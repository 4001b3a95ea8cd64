"""Acceptance gate: sixteen pinned criteria, each with a runtime budget.

Every test prints one line of the form

    criterion NN: PASS [12.3s < 60s] detail

(run pytest with -s to see the lines on a green run; with plain -v the
one-line-per-criterion record is the verbose test listing itself).
"""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from zhat import cli
from zhat.density import axiom_suite, density_alpha, log_density_window
from zhat.measure import ModulusChain, closure_measure_trace, euler_product
from zhat.setdsl import compile_set
from zhat.verify import (
    asdmltp_verify,
    counterexample_cover,
    davenport_erdos,
    dirichlet_coverage,
    eulerian_check,
    omega_bound_measure,
    prime_power_family,
)

SQFREE = 6.0 / math.pi**2


class _Gate:
    """Collects checks for one criterion, then prints the verdict line."""

    def __init__(self, num: int, budget_s: float):
        self.num = num
        self.budget = budget_s
        self.t0 = time.monotonic()
        self.failures: list[str] = []

    def check(self, ok: bool, label: str):
        if not ok:
            self.failures.append(label)

    def finish(self, detail: str):
        elapsed = time.monotonic() - self.t0
        in_time = elapsed < self.budget
        ok = not self.failures and in_time
        line = (
            f"criterion {self.num:02d}: {'PASS' if ok else 'FAIL'} "
            f"[{elapsed:.1f}s < {self.budget:g}s] {detail}"
        )
        print(line)
        assert not self.failures, f"criterion {self.num}: {self.failures}"
        assert in_time, f"criterion {self.num}: {elapsed:.1f}s over budget"


def test_criterion_01_squarefree_triple():
    gate = _Gate(1, 60)
    cs = compile_set("kfree(2)")
    rep = density_alpha(cs, 0.0, [10**7 // 4**i for i in range(4, -1, -1)])
    gate.check(abs(rep.values[-1] - SQFREE) < 2e-3, "asymptotic estimate at 1e7")
    trace = closure_measure_trace(cs, ModulusChain.primorial_power(2), 10**6)
    by_mod = {rec.modulus: rec.measure for rec in trace.records}
    gate.check(by_mod.get(44100) == Fraction(768, 1225), "exact level measure")
    br = euler_product("1-1/p^2", 10**4)
    gate.check(br.hi - br.lo < 1e-3, "bracket width")
    gate.check(br.lo <= SQFREE <= br.hi, "bracket contains 6/pi^2")
    gate.finish(
        f"d_as={rep.values[-1]:.6f}, level(44100)=768/1225, "
        f"bracket width {br.hi - br.lo:.2e}"
    )


def test_criterion_02_leading_digit_one():
    gate = _Gate(2, 120)
    cs = compile_set("leadingdigit(1,10)")
    grid = sorted(
        [10**k for k in range(1, 8)] + [2 * 10**k for k in range(1, 8)]
    )
    rep = density_alpha(cs, 0.0, grid)
    gate.check(abs(rep.lower_est - 1 / 9) < 1e-2, "lower estimate near 1/9")
    gate.check(abs(rep.upper_est - 5 / 9) < 1e-2, "upper estimate near 5/9")
    w1 = log_density_window(cs, 10**6, 10**7)
    w2 = log_density_window(cs, 2 * 10**6, 2 * 10**7)
    target = math.log10(2.0)
    gate.check(abs(w1 - target) < 5e-3, "log window estimate, 10^k phase")
    gate.check(abs(w2 - target) < 5e-3, "log window estimate, 2*10^k phase")
    gate.finish(
        f"lower={rep.lower_est:.5f}, upper={rep.upper_est:.5f}, "
        f"log={w1:.6f}/{w2:.6f}"
    )


def test_criterion_03_divisibility_chain_family():
    gate = _Gate(3, 120)
    moduli = prime_power_family(2, 31)
    rep = davenport_erdos(
        moduli, r_max=10**7, tail_exponent=2, certified_grid_points=50
    )
    gate.check(rep.verdict == "PASS", f"harness verdict {rep.verdict}")
    prefix = rep.quantities["measure_prefix"]
    gate.check(
        all(a >= b for a, b in zip(prefix, prefix[1:])),
        "prefix measures nonincreasing",
    )
    dv = rep.quantities["delta_values"]
    seq = [dv[s] for s in sorted(dv, key=float)]
    gate.check(all(a < b for a, b in zip(seq, seq[1:])), "delta increasing in s")
    gate.check(
        any(
            "50-point certified bracket grid strictly increasing: True" in line
            for line in rep.narrative
        ),
        "exact rational 50-point grid certification recorded",
    )
    gate.check(
        rep.quantities["delta_at_1"] == pytest.approx(float(prefix[-1]), abs=1e-12),
        "delta at s=1 equals the inclusion-exclusion value",
    )
    lo, hi = rep.quantities["limit_bracket"]
    dists = [max(lo - v, v - hi, 0.0) for v in rep.quantities["log_estimate"]]
    gate.check(max(dists) < 5e-3, "log-density estimates near the limit bracket")
    gate.finish(
        f"verdict {rep.verdict}, 50-pt certified grid, "
        f"bracket [{lo:.6f},{hi:.6f}], max dlog dist {max(dists):.2e}"
    )


def test_criterion_04_units_collapse():
    gate = _Gate(4, 30)
    br = euler_product("1-1/p", 10**6)
    gate.check(br.hi < 0.05, f"upper bound {br.hi:.4f}")
    gate.check(
        any("DIVERGENT-TAIL" in n for n in br.notes), "divergent-tail flag"
    )
    gate.finish(f"hi={br.hi:.5f}, notes={list(br.notes)}")


def test_criterion_05_residue_coverage():
    gate = _Gate(5, 20)
    rep = dirichlet_coverage(100, 10**5)
    gate.check(rep.verdict == "PASS", f"verdict {rep.verdict}")
    gate.finish(f"verdict {rep.verdict} for moduli <= 100, primes < 1e5")


def test_criterion_06_axiom_suite():
    gate = _Gate(6, 10)
    exact = axiom_suite(100, seed=20240823)
    gate.check(exact.quantities["all_axioms_pass"], "exact pair satisfies all axioms")
    gate.check(len(exact.quantities["axioms"]) == 7, "seven axioms checked")
    deformed = axiom_suite(100, seed=20240823, pair="deformed")
    failing = [a["name"] for a in deformed.quantities["axioms"] if not a["passed"]]
    gate.check(
        failing == ["ideal-scaling"],
        f"deformation fails only scaling: {failing}",
    )
    bad = [a for a in deformed.quantities["axioms"] if a["name"] == "ideal-scaling"][0]
    gate.check(
        any("2" in w for w in bad["failures"]), "witness names the scaling a=2"
    )
    gate.finish(
        f"exact 7/7 over 100 cases; deformed fails {failing} "
        f"with witness {bad['failures'][0]!r}"
    )


def _random_poly_text(rng: random.Random) -> str:
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
    return "image(" + "".join(reversed(terms)).lstrip("+") + ")"


def test_criterion_07_multiplicative_images():
    gate = _Gate(7, 60)
    rng = random.Random(20240823)
    m_list = [12, 360, 9999]
    for _ in range(50):
        text = _random_poly_text(rng)
        rep = eulerian_check(compile_set(text), m_list)
        gate.check(rep.verdict == "PASS", f"{text} not a product at {m_list}")
    pair = eulerian_check(compile_set("coprime(2)"), [12, 90])
    gate.check(pair.verdict == "PASS", "coprime pairs factor")
    primes = eulerian_check(compile_set("primes"), [12], expect="not-product")
    gate.check(primes.verdict == "PASS", "primes fail the product test at 12")
    gate.check(
        primes.quantities["is_product"][12] is False, "non-product witnessed"
    )
    gate.finish("50 polynomial images + coprime pairs product; primes not")


def test_criterion_08_squares_triple():
    gate = _Gate(8, 60)
    rep = asdmltp_verify([4, 9, 25], r_max=10**6, m_check=900)
    gate.check(rep.verdict == "PASS", f"verdict {rep.verdict}")
    gate.check(rep.quantities["ie_value"] == Fraction(16, 25), "exact value 16/25")
    est = rep.quantities["asymptotic_estimate"][-1]
    gate.check(abs(est - 0.64) < 1e-2, f"empirical estimate {est:.4f}")
    cs = compile_set("!multiples(4,9,25)")
    exact_img = cs.clopen_image_exact(900)
    # the truncated side: classes mod 900 of the members up to 10^6
    trunc_residues = frozenset((np.flatnonzero(cs.mask_upto(10**6)) % 900).tolist())
    gate.check(
        trunc_residues == exact_img.residues,
        "truncated image equals the exact local image at 900",
    )
    gate.finish(f"16/25 exact, d_as={est:.5f}, image at 900 reproduced")


def test_criterion_09_covering_without_density():
    gate = _Gate(9, 5)
    rep = counterexample_cover(4, 10)
    gate.check(rep.verdict == "PASS", f"verdict {rep.verdict}")
    bound = rep.quantities["lower_bound"]
    gate.check(float(bound) > 0.666, f"bound {float(bound):.6f}")
    gate.check(
        rep.quantities["complement_measure"] >= bound, "measure above bound"
    )
    gate.finish(
        f"complement measure {float(rep.quantities['complement_measure']):.6f} "
        f"> 0.666 while the cosets cover every integer"
    )


def test_criterion_10_prime_factor_count_decay():
    gate = _Gate(10, 30)
    for k in (0, 1, 2):
        rep = omega_bound_measure(k, 13)
        gate.check(rep.verdict == "PASS", f"k={k} verdict {rep.verdict}")
        final = rep.quantities["closed_form"][-1]
        gate.check(
            final == Fraction(rep.quantities["direct_count"], 30030),
            f"k={k} closed form equals direct count",
        )
        trace = rep.quantities["trace"]
        head = max(k - 1, 0)
        gate.check(all(v == 1 for v in trace[:k]), f"k={k} trivial head")
        tail = trace[head:]
        gate.check(
            all(a > b for a, b in zip(tail, tail[1:])),
            f"k={k} trace strictly decreasing",
        )
    gate.finish("closed form == direct count mod 30030 for k in {0,1,2}")


# exact-image corpus for the global bound: every atom here has a finitely
# certified residue image at each chain level
EXACT_CORPUS = [
    "cong(2,6)",
    "cong(0,4)",
    "kfree(2)",
    "kfree(3)",
    "primes",
    "multiples(4,6)",
    "!multiples(3,5)",
    "multiples(4,6) | cong(1,5)",
    "kfree(2) & cong(1,4)",
    "finite(5,7,11)",
    "image(x^2)",
    "image(3*x^2+1) \\ cong(0,7)",
]


def test_criterion_11_global_upper_bound():
    gate = _Gate(11, 120)
    levels = ModulusChain.primorial().levels(10**4)
    for text in EXACT_CORPUS:
        cs = compile_set(text)
        rep = density_alpha(cs, 0.0, [10**6 // 2**i for i in range(4, -1, -1)])
        chain_min = min(
            float(cs.residue_image(m).level_measure()) for m in levels
        )
        gate.check(
            rep.upper_est <= chain_min + 1e-2,
            f"{text}: upper {rep.upper_est:.4f} vs chain min {chain_min:.4f}",
        )
    gate.finish(f"{len(EXACT_CORPUS)} exact sets bounded by chain measures")


def _squarefree_1_mod_4(r: int) -> int:
    """The squarefree n <= r with n = 1 mod 4, by a sum of its own: n is
    odd, so only odd d with d^2 | n count, and d^2 = 1 mod 4 leaves
    n / d^2 = 1 mod 4."""
    n = math.isqrt(r)
    mu, composite = [1] * (n + 1), bytearray(n + 1)
    for p in range(2, n + 1):
        if not composite[p]:
            composite[p::p] = b"\1" * len(range(p, n + 1, p))
            mu[p::p] = [-v for v in mu[p::p]]
            mu[p * p::p * p] = [0] * len(range(p * p, n + 1, p * p))
    return sum(mu[d] * ((r // (d * d) + 3) // 4) for d in range(1, n + 1, 2))


def test_criterion_12_floor_sums_reach_1e12():
    r = 10**12
    exact = _squarefree_1_mod_4(r)  # the reference is outside the gate's time
    gate = _Gate(12, 5)
    rep = density_alpha(compile_set("kfree(2) & cong(1,4)"), 0.0, [r // 2**i for i in range(4, -1, -1)])
    gate.check(rep.notes == ("closed-form floor sums",), f"notes {rep.notes}")
    gate.check(rep.values[-1] == exact / r, f"value {rep.values[-1]!r}, exact {exact}")
    gate.check(abs(rep.values[-1] - 2 / math.pi**2) < 1e-5, f"value {rep.values[-1]!r}")
    gate.finish(f"|kfree(2) & cong(1,4)| / r = {rep.values[-1]!r} at r = 1e12, 2/pi^2 = {2 / math.pi**2!r}")


def test_criterion_13_prime_count_to_1e10():
    gate = _Gate(13, 10)
    rep = density_alpha(compile_set("primes"), 0.0, [10**10])
    gate.check(rep.values[0] == 455052511 / 10**10, f"value {rep.values[0]!r}")
    gate.finish("pi(1e10) = 455052511 by the Lucy recurrence")


def test_criterion_14_floor_sums_past_their_budget_exit_3():
    gate = _Gate(14, 5)
    for text in ("kfree(2)", "kfree(2) & cong(1,4)", "primes | kfree(3)"):
        code = cli.main(["density", "--set", text, "--method", "asymptotic", "--r", "1e20"])
        gate.check(code == 3, f"{text}: exit {code}")
    gate.finish("kfree(2), kfree(2) & cong(1,4), primes | kfree(3) at r = 1e20 exit 3")


def test_criterion_15_prime_dirichlet_series_in_closed_form(capsys):
    gate = _Gate(15, 0.5)
    code = cli.main(["density", "--set", "primes", "--method", "analytic", "--cutoff", "1e9"])
    rep = json.loads(capsys.readouterr().out)["reports"]["analytic"]
    gate.check(code == 0, f"exit {code}")
    widths = [hi - lo for lo, hi in rep["params"]["brackets"]]
    gate.check(len(widths) == 4 and max(widths) <= 1e-12, f"bracket widths {widths}")
    gate.check(rep["certified"] and rep["lower_est"] == rep["upper_est"] == 0.0,
               f"limit [{rep['lower_est']}, {rep['upper_est']}]")
    gate.finish(f"P(s)/zeta(s) at s = 1.5..1.05, widest bracket {max(widths):.1e}, no stream at cutoff 1e9")


def test_criterion_16_sums_of_three_cubes_along_square_primorials(capsys):
    # every level (p#)^2 to 1e30, p <= 41, is exact: each image mod p^2 is
    # found by Hensel descent from the p^3 grid, where a grid of (p^2)^3
    # points stopped the trace before level 9 on the local-work budget. The
    # sums of three cubes miss exactly the classes 4 and 5 mod 9 and no
    # class mod p^2 for p != 3
    gate = _Gate(16, 1)
    code = cli.main(["measure", "--set", "image(x^3+y^3+z^3)", "--chain", "primorial^2",
                     "--cutoff", "1e30", "--levels", "30"])
    payload = json.loads(capsys.readouterr().out)
    gate.check(code == 0, f"exit {code}")
    primorials = [math.prod(p for p in range(2, top + 1) if all(p % d for d in range(2, p)))
                  for top in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)]
    levels = payload["levels"]
    gate.check([lv["modulus"] for lv in levels] == [m * m for m in primorials],
               f"moduli {[lv['modulus'] for lv in levels]}")
    gate.check(all(lv["mode"] == "exact" for lv in levels), "a level is not exact")
    gate.check([(lv["measure"]["num"], lv["measure"]["den"]) for lv in levels] == [(1, 1)] + [(7, 9)] * 12,
               "measures")
    gate.check(payload["notes"] == [], f"notes {payload['notes']}")
    gate.finish(f"image(x^3+y^3+z^3): {len(levels)} exact levels to (41#)^2, measure 7/9 from 36 on")
