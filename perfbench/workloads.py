"""The benchmark's workloads: fixed lists of zhat invocations, each paired
with a check against an independent reference (see refs.py).

A step is what a user pays for one command: a fresh interpreter running
``python -m zhat.cli ...`` or a one-line call to a public zhat function.
Checks read the JSON (or CSV) a step prints by key, never by bytes, so new
output keys do not break them.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import refs


class CheckError(Exception):
    """A step's output disagrees with its reference."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


@dataclass(frozen=True)
class Step:
    name: str
    argv: tuple[str, ...]  # interpreter arguments: ("-m", "zhat.cli", ...) or ("-c", code)
    timeout_s: float
    check: Callable[[int, str], None]  # (exit code, stdout) -> raises CheckError

    @property
    def is_cli(self) -> bool:
        return self.argv[:2] == ("-m", "zhat.cli")


def cli(name: str, args: list[str], timeout_s: float, check) -> Step:
    return Step(name, ("-m", "zhat.cli", *args), timeout_s, check)


def libcall(name: str, code: str, timeout_s: float, check) -> Step:
    return Step(name, ("-c", code), timeout_s, check)


# ------------------------------------------------------------- output access


def _json(rc: int, out: str, want_rc: int = 0) -> dict:
    expect(rc == want_rc, f"exit code {rc}, expected {want_rc}")
    try:
        return json.loads(out)
    except json.JSONDecodeError as e:
        raise CheckError(f"stdout is not JSON: {e}") from None


def _frac(d: dict) -> Fraction:
    return Fraction(d["num"], d["den"])


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _verdict(rc: int, out: str, verdict: str = "PASS") -> dict:
    want_rc = {"PASS": 0, "FAIL": 1, "INCONCLUSIVE": 3}[verdict]
    rep = _json(rc, out, want_rc)["report"]
    expect(rep["verdict"] == verdict, f"verdict {rep['verdict']}, expected {verdict}")
    return rep


def _radius_grid(r: int) -> list[int]:
    return sorted({max(1, r // 2**i) for i in range(5)})


def _inside(lo: float, hi: float, value: float, what: str, slack: float = 0.0) -> None:
    expect(lo - slack <= value <= hi + slack, f"{what}: [{lo}, {hi}] misses {value}")


# ------------------------------------------------------------- level-traces


def _check_trace(levels: list[int], measure_of, mode: str):
    def check(rc: int, out: str) -> None:
        doc = _json(rc, out)
        got = [lv["modulus"] for lv in doc["levels"]]
        expect(got == levels, f"levels {got}, expected {levels}")
        for lv in doc["levels"]:
            m = lv["modulus"]
            expect(_frac(lv["measure"]) == measure_of(m), f"measure at {m}: {lv['measure']}")
            expect(lv["mode"] == mode, f"mode at {m}: {lv['mode']}")
        expect(doc["certified"] == (mode == "exact"), f"certified {doc['certified']}")
    return check


def _check_kfree2_csv(rc: int, out: str) -> None:
    expect(rc == 0, f"exit code {rc}")
    rows = list(csv.DictReader(io.StringIO(out)))
    moduli = [int(r["modulus"]) for r in rows]
    expect(moduli == [4, 36, 900, 44100], f"levels {moduli}")
    for r in rows:
        m = int(r["modulus"])
        got = Fraction(int(r["measure_num"]), int(r["measure_den"]))
        expect(got == refs.kfree2_measure(m), f"measure at {m}: {got}")
        expect(int(r["residue_count"]) == got * m, f"residue count at {m}")


def _check_eulerian(levels: list[int], size_of):
    def check(rc: int, out: str) -> None:
        truth = {m: refs.is_crt_product(size_of, m) for m in levels}
        verdict = "PASS" if all(truth.values()) else "FAIL"
        rep = _verdict(rc, out, verdict)
        got = {int(k): v for k, v in rep["quantities"]["is_product"].items()}
        expect(got == truth, f"is_product {got}, expected {truth}")
    return check


def random_poly(rng: random.Random) -> tuple[list[int], str]:
    """A random univariate polynomial of degree 1..4 with coefficients in
    [-9, 9] (lowest degree first) and its DSL text, as in acceptance
    criterion 07."""
    deg = rng.randint(1, 4)
    coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [
        rng.choice([c for c in range(-9, 10) if c])
    ]
    terms = []
    for power, c in enumerate(coeffs):
        if c == 0:
            continue
        if power == 0:
            terms.append(f"{c:+d}")
        elif power == 1:
            terms.append(f"{c:+d}*x")
        else:
            terms.append(f"{c:+d}*x^{power}")
    return coeffs, "image(" + "".join(reversed(terms)).lstrip("+") + ")"


def _check_buck_kfree2(level_cutoff: int):
    grid = refs.primorials_upto(level_cutoff)

    def check(rep: dict) -> None:
        expect(rep["grid"] == grid, f"grid {rep['grid']}")
        expect(Fraction(*rep["params"]["upper_exact"]) == 1, "upper measure is not 1")
        expect(all(v == 1.0 for v in rep["values"]), f"values {rep['values']}")
        _inside(rep["lower_est"], rep["upper_est"], refs.SQFREE, "buck")
    return check


# ends past the primorials so the last level is not squarefree
SQUARES_CHAIN = [2, 6, 30, 210, 630]


def level_traces(rng: random.Random) -> list[Step]:
    polys = [random_poly(rng) for _ in range(3)]
    buck = _check_buck_kfree2(10**5)
    steps = [
        cli("kfree2-or-1mod4-primorial-1e6",
            ["measure", "--set", "kfree(2)|cong(1,4)", "--chain", "primorial", "--cutoff", "1e6"],
            30, _check_trace(refs.primorials_upto(10**6), lambda m: Fraction(1), "exact")),
        cli("sum-two-squares-to-630",
            ["measure", "--set", "image(x^2+y^2)", "--chain", "explicit:" + ",".join(
                map(str, SQUARES_CHAIN))],
            30, _check_trace(SQUARES_CHAIN, refs.sum_of_two_squares_measure, "exact")),
        cli("kfree2-primorial2-csv",
            ["measure", "--set", "kfree(2)", "--chain", "primorial^2", "--levels", "6",
             "--output", "csv"],
            15, _check_kfree2_csv),
        cli("kfree2-and-1mod4-truncated",
            ["measure", "--set", "kfree(2) & cong(1,4)", "--chain", "primorial",
             "--cutoff", "1e5", "--N", "1e6"],
            15, _check_trace(refs.primorials_upto(10**5),
                             lambda m, t=refs.truncated_squarefree_1mod4(
                                 10**6, refs.primorials_upto(10**5)): t[m],
                             "truncated")),
        cli("eulerian-coprime-pairs",
            ["verify", "eulerian", "--set", "coprime(2)", "--mlist", "12,90,210"],
            15, _check_eulerian([12, 90, 210], refs.coprime_pairs_size)),
    ]
    for i, (coeffs, text) in enumerate(polys):
        steps.append(cli(
            f"eulerian-poly-{i}",
            ["verify", "eulerian", "--set", text, "--mlist", "12,360,9999"],
            15, _check_eulerian([12, 360, 9999],
                                lambda m, c=coeffs: refs.poly_image_size(c, m))))
    steps.append(cli(
        "buck-kfree2",
        ["density", "--set", "kfree(2)", "--method", "buck", "--level-cutoff", "1e5"],
        15, lambda rc, out: buck(_json(rc, out)["reports"]["buck"])))
    return steps


# ------------------------------------------------------------- estimators


def _check_asymptotic(rep: dict, r: int, count) -> None:
    grid = _radius_grid(r)
    expect(rep["grid"] == grid, f"grid {rep['grid']}")
    for g, v in zip(grid, rep["values"]):
        expect(_close(v, count(g) / g, 1e-12), f"value at {g}: {v}, expected {count(g) / g}")


def _check_logarithmic(rep: dict, r: int, weight) -> None:
    grid = _radius_grid(r)
    expect(rep["grid"] == grid, f"grid {rep['grid']}")
    for g, v in zip(grid, rep["values"]):
        want = weight(g) / refs.harmonic(g)
        expect(_close(v, want, 1e-9), f"value at {g}: {v}, expected {want}")


def _check_uniform(rep: dict, r: int, density: float) -> None:
    expect(rep["grid"] == [r // 10, r // 5], f"grid {rep['grid']}")
    # window extremes straddle the mean over the scan, which sits within
    # the set's counting error (well below 1e-4 for r >= 2e6) of the density
    _inside(rep["lower_est"], rep["upper_est"], density, "uniform", slack=1e-4)


def _check_analytic(rep: dict, s_grid: list[float], ratio) -> None:
    expect(rep["params"]["s_grid"] == s_grid, f"s grid {rep['params']['s_grid']}")
    for s, (lo, hi) in zip(s_grid, rep["params"]["brackets"]):
        _inside(lo, hi, ratio(s), f"analytic bracket at s={s}")


def _check_all_kfree2(rc: int, out: str) -> None:
    reps = _json(rc, out)["reports"]
    r = 2 * 10**6
    _check_asymptotic(reps["asymptotic"], r, refs.squarefree_count)
    _check_logarithmic(reps["logarithmic"], r, refs.squarefree_harmonic)
    _check_uniform(reps["uniform"], r, refs.SQFREE)
    _check_analytic(reps["analytic"], S_GRID, lambda s: 1 / refs.zeta(2 * s))
    _check_buck_kfree2(10**4)(reps["buck"])


def _squarefree_nonprimes(r: int):
    pi = refs.prime_pi(r)
    return lambda g: refs.squarefree_count(g) - pi[g]


def _image_or_3mod7_weight(g: int) -> float:
    """sum of 1/n over n <= g with n = x^2 + 1 or n = 3 mod 7."""
    k = (g - 3) // 7
    progression = (refs.digamma(k + 1 + 3 / 7) - refs.digamma(3 / 7)) / 7
    squares = {x * x + 1 for x in range(math.isqrt(g - 1) + 1)}
    return progression + math.fsum(1 / n for n in squares if n % 7 != 3)


S_GRID = [1.5, 1.25, 1.1, 1.05]


def estimators(rng: random.Random) -> list[Step]:
    del rng  # every input is fixed
    cubefree_or_1mod4 = 5 / 7 / refs.zeta(3) + 0.25
    return [
        cli("asymptotic-squarefree-nonprimes-2e7",
            ["density", "--set", "kfree(2) \\ primes", "--method", "asymptotic", "--r", "2e7"],
            20, lambda rc, out: _check_asymptotic(
                _json(rc, out)["reports"]["asymptotic"], 2 * 10**7,
                _squarefree_nonprimes(2 * 10**7))),
        cli("all-methods-kfree2-2e6",
            ["density", "--set", "kfree(2)", "--method", "all", "--r", "2e6", "--cutoff", "1e6"],
            20, _check_all_kfree2),
        cli("analytic-primes-1e7",
            ["density", "--set", "primes", "--method", "analytic", "--cutoff", "1e7"],
            20, lambda rc, out: _check_analytic(
                _json(rc, out)["reports"]["analytic"], S_GRID,
                lambda s: refs.prime_zeta(s) / refs.zeta(s))),
        cli("uniform-cubefree-or-1mod4-1e7",
            ["density", "--set", "kfree(3) | cong(1,4)", "--method", "uniform", "--r", "1e7"],
            15, lambda rc, out: _check_uniform(
                _json(rc, out)["reports"]["uniform"], 10**7, cubefree_or_1mod4)),
        cli("logarithmic-image-or-3mod7-1e7",
            ["density", "--set", "image(x^2+1) | cong(3,7)", "--method", "logarithmic",
             "--r", "1e7"],
            15, lambda rc, out: _check_logarithmic(
                _json(rc, out)["reports"]["logarithmic"], 10**7, _image_or_3mod7_weight)),
    ]


# ------------------------------------------------------------- harnesses


RHO_N = 1125896954054519
RHO_FACTORS = (33554383, 33554393)


def _check_davenport_erdos(rc: int, out: str) -> None:
    q = _verdict(rc, out)["quantities"]
    want = math.prod(1 - Fraction(1, p * p) for p in refs.primes_upto(31))
    expect(_frac(q["delta_at_1"]) == want, f"delta_at_1 {q['delta_at_1']}")
    _inside(*q["limit_bracket"], refs.SQFREE, "limit bracket")


def _check_multiples(moduli: list[int]):
    def check(rc: int, out: str) -> None:
        doc = _json(rc, out)
        want = refs.nonmultiples_density(moduli)
        expect(_frac(doc["measure"]) == want, f"measure {doc['measure']}, expected {want}")
    return check


def _check_euler(rc: int, out: str) -> None:
    br = _json(rc, out)["bracket"]
    expect(br["certified"] is True, "bracket not certified")
    _inside(br["lo"], br["hi"], refs.SQFREE, "Euler bracket")


def _check_omega(rc: int, out: str) -> None:
    q = _verdict(rc, out)["quantities"]
    ps = refs.primes_upto(13)
    want = [refs.at_most_k_prime_factors(ps[:i], 2) for i in range(1, len(ps) + 1)]
    expect([_frac(v) for v in q["trace"]] == want, "trace")
    expect([_frac(v) for v in q["closed_form"]] == want, "closed form")
    expect(q["direct_count"] == want[-1] * math.prod(ps), f"direct count {q['direct_count']}")


def _check_asdmltp(rc: int, out: str) -> None:
    q = _verdict(rc, out)["quantities"]
    want = math.prod(1 - Fraction(1, m) for m in (4, 9, 25))  # pairwise coprime
    expect(_frac(q["ie_value"]) == want, f"ie_value {q['ie_value']}")


def _check_poonen_stoll(rc: int, out: str) -> None:
    q = _verdict(rc, out)["quantities"]
    cutoffs = [10, 100, 1000]
    expect(q["tail_bounds"] == [1 / c for c in cutoffs], f"tail bounds {q['tail_bounds']}")
    br = q["product_measure"]
    _inside(br["lo"], br["hi"], refs.SQFREE, "product bracket")
    ratios = [refs.squarefree_count(r) / r for r in (10**6 // 16, 10**6 // 4, 10**6)]
    want = 0.5 * (min(ratios) + max(ratios))
    expect(_close(q["empirical_density"], want, 1e-12), f"empirical {q['empirical_density']}")


def _check_counterexample(rc: int, out: str) -> None:
    q = _verdict(rc, out)["quantities"]
    level = 4**12
    covered = refs.spiral_cover_size(4, 12)
    expect(q["level"] == level and q["covered_classes"] == covered,
           f"covered {q['covered_classes']} of {q['level']}, expected {covered}")
    expect(_frac(q["complement_measure"]) == Fraction(level - covered, level), "complement")
    bound = 1 - Fraction(1, 3) * (1 - Fraction(1, level))
    expect(_frac(q["lower_bound"]) == bound, f"lower bound {q['lower_bound']}")


def _check_axioms(rc: int, out: str) -> None:
    q = _verdict(rc, out)["quantities"]
    expect(q["all_axioms_pass"] is True, "not every axiom holds")
    expect(all(a["passed"] and not a["failures"] for a in q["axioms"]), "axiom failures")


SUPPORTS = [[2, 3], [3, 5], [5, 7], [7, 11], [11, 13]]


def _check_union_dense(rc: int, out: str) -> None:
    q = _verdict(rc, out)["quantities"]
    hit = set(q["hitting_set"])
    expect(all(hit & set(s) for s in SUPPORTS), f"{sorted(hit)} misses a support")
    expect(len(hit) == refs.min_hitting_set_size(SUPPORTS), f"hitting set {sorted(hit)} not minimal")
    expect(q["dense"] is False, "declared dense")


def _check_rho(rc: int, out: str) -> None:
    p, q = RHO_FACTORS
    expect(p * q == RHO_N and refs.is_prime(p) and refs.is_prime(q), "reference factors")
    got = _json(rc, out)["result"]
    expect(got == f"{p}*{q}", f"result {got}")


def _supernatural_exponents(text: str) -> dict[int, float]:
    out = {}
    for part in text.split("*"):
        base, _, exp = part.partition("^")
        out[int(base)] = math.inf if exp == "inf" else int(exp or 1)
    return out


def _check_mul(rc: int, out: str) -> None:
    expect(refs.is_prime(1000000007), "1000000007 is not prime")
    want: dict[int, float] = {}
    for term in ({2: math.inf, 3: 2, 1000000007: 1}, {3: 1, 5: 1}):
        for p, e in term.items():
            want[p] = want.get(p, 0) + e
    got = _supernatural_exponents(_json(rc, out)["result"])
    expect(got == want, f"product {got}, expected {want}")


def _check_limit(rc: int, out: str) -> None:
    prof = _json(rc, out)["profile"]
    terms, window = 60, 5
    primes = refs.primes_upto(13)
    expect(sorted(map(int, prof)) == primes, f"primes {sorted(prof)}")
    for p in primes:
        tail = [refs.legendre(k, p) for k in range(terms - window + 1, terms + 1)]
        row = prof[str(p)]
        expect(row["trajectory_tail"] == tail, f"tail at {p}: {row['trajectory_tail']}")
        expect(row["last_valuation"] == tail[-1], f"last valuation at {p}")
        status = "stabilized" if len(set(tail)) == 1 else "diverging"
        expect(row["status"] == status, f"status at {p}: {row['status']}")


def _check_vm_scan(rc: int, out: str) -> None:
    expect(_json(rc, out) is True, f"identity scan returned {out.strip()}")


def _check_dlog(rc: int, out: str) -> None:
    rep = _json(rc, out)
    s, n, tol = 2.0, 10**7, 1e-6
    want = refs.log_zeta_derivative(s)
    # sum_{k>n} log k / k^2 is at least its integral from n + 1
    tail = (math.log(n + 1) + 1) / (n + 1)
    expect(rep["tail_budget"] >= tail, f"budget {rep['tail_budget']} below the tail {tail}")
    for side in ("series_side", "ratio_side"):
        expect(abs(rep[side] - want) <= rep["tail_budget"] + tol,
               f"{side} {rep[side]}, expected {want}")
    verdict = "INCONCLUSIVE" if rep["tail_budget"] > tol else "PASS"
    expect(rep["verdict"] == verdict, f"verdict {rep['verdict']}, expected {verdict}")


def harnesses(rng: random.Random) -> list[Step]:
    moduli = sorted(rng.sample(range(4, 51), 12))
    axiom_seed = rng.randrange(10**6)
    return [
        cli("davenport-erdos-p2-31",
            ["verify", "davenport-erdos", "--family", "p^2", "--pmax", "31",
             "--certified-points", "50", "--rmax", "1e7"],
            20, _check_davenport_erdos),
        cli("dirichlet-300", ["verify", "dirichlet", "--mmax", "300", "--pbound", "1e6"],
            20, lambda rc, out: expect(_verdict(rc, out)["quantities"]["missing_count"]
                                       == refs.dirichlet_missing(300, 10**6), "missing count")),
        cli("multiples-ie-12", ["measure", "--multiples", ",".join(map(str, moduli))],
            15, _check_multiples(moduli)),
        cli("euler-1e7", ["measure", "--euler", "1-1/p^2", "--cutoff", "1e7"], 15, _check_euler),
        cli("omega-2-13", ["verify", "omega", "--k", "2", "--pbound", "13"], 15, _check_omega),
        cli("asdmltp-4-9-25",
            ["verify", "asdmltp", "--moduli", "4,9,25", "--mcheck", "900"], 15, _check_asdmltp),
        cli("poonen-stoll", ["verify", "poonen-stoll"], 15, _check_poonen_stoll),
        cli("counterexample-4-12",
            ["verify", "counterexample", "--base", "4", "--terms", "12"], 15,
            _check_counterexample),
        cli("axioms-2000",
            ["verify", "axioms", "--cases", "2000", "--seed", str(axiom_seed)], 15, _check_axioms),
        cli("union-dense", ["verify", "union-dense", "--supports",
                            ";".join(",".join(map(str, s)) for s in SUPPORTS)],
            15, _check_union_dense),
        cli("sn-rho", ["sn", "rho", str(RHO_N)], 20, _check_rho),
        cli("sn-mul", ["sn", "mul", "2^inf*3^2*1000000007", "3*5"], 15, _check_mul),
        cli("sn-limit-factorial",
            ["sn", "limit", "--seq", "factorial", "--terms", "60", "--pmax", "13"], 15,
            _check_limit),
        libcall("vm-identity-scan-1e6",
                "import json; from zhat.analytic import vm_identity_scan; "
                "print(json.dumps(vm_identity_scan(10**6, 1e-9)))", 30, _check_vm_scan),
        libcall("dlog-zeta-check-1e7",
                "import json; from zhat.analytic import dlog_zeta_check; "
                "print(json.dumps(dlog_zeta_check(2.0, 10**7, 1e-6).to_json()))", 20, _check_dlog),
    ]


WORKLOADS = {
    "level-traces": level_traces,
    "estimators": estimators,
    "harnesses": harnesses,
}
