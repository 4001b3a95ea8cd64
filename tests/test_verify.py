"""End-to-end checks for the theorem-verification harnesses."""

import dataclasses
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from zhat import _ie, _primes
from zhat.measure import Bracket, ModulusChain
from zhat.setdsl import BudgetExceeded, CompiledSet, DslValueError, compile_set
from zhat.verify import (
    VerificationReport,
    asdmltp_verify,
    counterexample_cover,
    davenport_erdos,
    dirichlet_coverage,
    eulerian_check,
    mt_criterion,
    omega_bound_measure,
    poonen_stoll_tail,
    prime_power_family,
    union_dense_check,
)


# ---------------------------------------------------------------------------
# families and report plumbing


def test_prime_power_family():
    assert prime_power_family(2, 31) == [
        4, 9, 25, 49, 121, 169, 289, 361, 529, 841, 961,
    ]
    assert prime_power_family(1, 10) == [2, 3, 5, 7]
    with pytest.raises(ValueError):
        prime_power_family(0, 10)


def test_report_json_schema():
    rep = dirichlet_coverage(30, 1000)
    payload = json.loads(json.dumps(rep.to_json()))
    assert set(payload) >= {"theorem", "inputs", "quantities", "verdict", "narrative"}
    assert payload["verdict"] in ("PASS", "FAIL", "INCONCLUSIVE")


def test_report_json_is_pinned():
    # recorded before the encoder moved out of verify
    expected = {
        "theorem": "omega",
        "inputs": {"k": 1, "prime_bound": 5},
        "quantities": {
            "trace": [{"num": 1, "den": 1, "float": 1.0},
                      {"num": 5, "den": 6, "float": 0.8333333333333334},
                      {"num": 11, "den": 15, "float": 0.7333333333333333}],
            "closed_form": [{"num": 1, "den": 1, "float": 1.0},
                            {"num": 5, "den": 6, "float": 0.8333333333333334},
                            {"num": 11, "den": 15, "float": 0.7333333333333333}],
            "direct_count": 22,
        },
        "verdict": "PASS",
        "narrative": ["levels over primes [2, 3, 5]",
                      "proportions match the closed form exactly: True",
                      "strictly decreasing once the prime count exceeds k: True",
                      "direct residue enumeration mod 30 agrees: True"],
    }
    payload = omega_bound_measure(1, 5).to_json()
    assert payload == expected
    assert json.dumps(payload, sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_report_json_encodes_every_quantity_type():
    # a Fraction, numpy scalars, a set, integer keys and nested records
    rep = VerificationReport("demo", {"moduli": (4, np.int64(6)), 3: "three"}, {
        "measure": Fraction(2, 3), "count": np.int64(7), "ratio": np.float32(0.5),
        "exact": True, "primes": {5, 2, 3},
        "by_prime": {2: [Fraction(1, 2), (np.int32(1), 2.5)], 10: None},
        "bracket": Bracket(0.25, 0.5, True, 100, ("note",)),
        "nested": omega_bound_measure(1, 3),
    }, "PASS", ("one", "two"))
    assert json.dumps(rep.to_json(), sort_keys=True) == (
        '{"inputs": {"3": "three", "moduli": [4, 6]}, "narrative": ["one", "two"], '
        '"quantities": {"bracket": {"certified": true, "cutoff": 100, "hi": 0.5, "lo": 0.25}, '
        '"by_prime": {"10": null, "2": [{"den": 2, "float": 0.5, "num": 1}, [1, 2.5]]}, '
        '"count": 7, "exact": true, "measure": {"den": 3, "float": 0.6666666666666666, '
        '"num": 2}, "nested": {"inputs": {"k": 1, "prime_bound": 3}, "narrative": '
        '["levels over primes [2, 3]", "proportions match the closed form exactly: True", '
        '"strictly decreasing once the prime count exceeds k: True", "direct residue '
        'enumeration mod 6 agrees: True"], "quantities": {"closed_form": [{"den": 1, '
        '"float": 1.0, "num": 1}, {"den": 6, "float": 0.8333333333333334, "num": 5}], '
        '"direct_count": 5, "trace": [{"den": 1, "float": 1.0, "num": 1}, {"den": 6, '
        '"float": 0.8333333333333334, "num": 5}]}, "theorem": "omega", "verdict": "PASS"}, '
        '"primes": [2, 3, 5], "ratio": 0.5}, "theorem": "demo", "verdict": "PASS"}'
    )
    assert type(rep.to_json()["quantities"]["count"]) is int
    assert type(rep.to_json()["quantities"]["ratio"]) is float


# ---------------------------------------------------------------------------
# divisibility-chain limit harness


def test_de_explicit_pair_reaches_exact_limit():
    rep = davenport_erdos([4, 6])
    assert rep.verdict == "PASS"
    assert rep.quantities["delta_at_1"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    lo, hi = rep.quantities["limit_bracket"]
    assert lo == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert hi == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_de_prime_squares_certified_grid():
    moduli = prime_power_family(2, 31)
    rep = davenport_erdos(
        moduli, r_max=10**6, tail_exponent=2, certified_grid_points=50
    )
    assert rep.verdict == "PASS"
    prefix = rep.quantities["measure_prefix"]
    assert all(a >= b for a, b in zip(prefix, prefix[1:]))
    deltas = [rep.quantities["delta_values"][s] for s in sorted(rep.quantities["delta_values"])]
    assert all(a < b for a, b in zip(deltas, deltas[1:]))
    lo, hi = rep.quantities["limit_bracket"]
    assert lo <= 6.0 / math.pi**2 <= hi


def test_de_primes_have_divergent_tail():
    rep = davenport_erdos(prime_power_family(1, 20), r_max=10**6, tail_exponent=1)
    lo, hi = rep.quantities["limit_bracket"]
    assert lo == 0.0
    assert any("DIVERGENT-TAIL" in line for line in rep.narrative)


def test_de_exhausted_log_budget_is_inconclusive(monkeypatch):
    # the logarithmic estimate at r = 10^65 needs all 2^11 lcms of the
    # family; the exact parts factor into groups of one modulus each
    monkeypatch.setattr(_ie, "IE_TERM_BUDGET", 64)
    rep = davenport_erdos(prime_power_family(2, 31), r_max=100, tail_exponent=2)
    assert rep.verdict == "INCONCLUSIVE"
    assert rep.quantities["log_estimate"] is None
    assert rep.quantities["delta_at_1"] == math.prod(1 - Fraction(1, p * p) for p in
                                                     (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31))
    assert any("logarithmic estimate skipped" in line and "64 distinct lcm terms" in line
               for line in rep.narrative)
    json.dumps(rep.to_json())


def test_de_rejects_empty_family():
    with pytest.raises(ValueError):
        davenport_erdos([])


# ---------------------------------------------------------------------------
# residue coverage of primes


def test_dirichlet_coverage_passes_with_room():
    rep = dirichlet_coverage(30, 1000)
    assert rep.verdict == "PASS"


def test_dirichlet_coverage_reports_first_witness():
    rep = dirichlet_coverage(100, 100)
    assert rep.verdict == "INCONCLUSIVE"
    assert rep.quantities["missing"][0] == (13, 12)
    assert any("raise prime_bound" in line for line in rep.narrative)


def test_dirichlet_coverage_recovers_with_larger_bound():
    rep = dirichlet_coverage(100, 10**5)
    assert rep.verdict == "PASS"


def unique_coverage(m_max, prime_bound):
    """(missing, extra) class lists with the hit classes read off np.unique."""
    ps = _primes.primes_upto(prime_bound)
    missing, extra = [], []
    for m in range(2, m_max + 1):
        observed = set(np.unique(ps % m).tolist())
        expected = {c for c in range(m) if math.gcd(c, m) == 1}
        expected.update(p % m for p in _primes.factorize(m))
        missing.extend((m, c) for c in sorted(expected - observed))
        extra.extend((m, c) for c in sorted(observed - expected))
    return missing, extra


# the harness stops reading primes at a level once every class a prime can
# lie in is hit; these hit masks read every prime, so 300 at 20, 10^3 and
# 10^6 shows the early stop leaves the report as it was
@pytest.mark.parametrize("m_max, prime_bound", [(2, 2), (30, 3), (60, 200), (100, 100), (120, 5000),
                                                (300, 20), (300, 10**3), (300, 10**6)])
def test_dirichlet_coverage_matches_unique_classes(m_max, prime_bound):
    missing, extra = unique_coverage(m_max, prime_bound)
    assert not extra
    rep = dirichlet_coverage(m_max, prime_bound)
    assert rep.quantities == {"missing": missing[:20], "missing_count": len(missing)}
    assert rep.verdict == ("INCONCLUSIVE" if missing else "PASS")
    assert all(type(c) is int for _, c in rep.quantities["missing"])


def test_dirichlet_coverage_fails_when_the_image_drops_a_unit_class(monkeypatch):
    # the early stop still waits for every class a prime can lie in, so a
    # unit class missing from the exact image is hit and reported
    image = CompiledSet.residue_image

    def drop_3_mod_7(self, m, *args):
        img = image(self, m, *args)
        if m == 7:
            mask = img.mask.copy()
            mask[3] = False
            img = dataclasses.replace(img, mask=mask)
        return img

    monkeypatch.setattr(CompiledSet, "residue_image", drop_3_mod_7)
    rep = dirichlet_coverage(300, 10**6)
    assert rep.verdict == "FAIL"
    assert rep.narrative[-1] == "impossible classes hit (bug): [(7, 3)]"


# ---------------------------------------------------------------------------
# prime-factor-count decay


def test_omega_closed_form_matches_direct_count():
    for k in (0, 1, 2):
        rep = omega_bound_measure(k, 13)
        assert rep.verdict == "PASS"
        final = rep.quantities["closed_form"][-1]
        assert final == Fraction(rep.quantities["direct_count"], 30030)


@pytest.mark.parametrize("k", range(4))
def test_omega_direct_tally_matches_the_dp(k):
    # the bytearray tally against the coefficient DP behind the trace, and
    # against a numpy count of the prime divisors of every residue
    for bound in range(2, 18):
        rep = omega_bound_measure(k, bound)
        primes = [p for p in (2, 3, 5, 7, 11, 13, 17) if p <= bound]
        m = math.prod(primes)
        assert Fraction(rep.quantities["direct_count"], m) == rep.quantities["trace"][-1]
        omega = np.zeros(m, dtype=np.int64)
        for p in primes:
            omega[::p] += 1
        assert rep.quantities["direct_count"] == int((omega <= k).sum()), (k, bound)
        assert rep.verdict == "PASS"


@pytest.mark.parametrize("k, bound", [(0, 71), (1, 71), (2, 71), (3, 71), (25, 13)])
def test_omega_every_level_matches_a_sum_over_prime_subsets(k, bound):
    # level i from scratch: the residues divisible by exactly the primes of
    # S are prod(p - 1) over the rest of the prefix, and e_d sums 1/(p-1)
    # over the d-subsets S
    rep = omega_bound_measure(k, bound)
    primes = [p for p in range(2, bound + 1) if all(p % d for d in range(2, p))]
    assert len(rep.quantities["trace"]) == len(rep.quantities["closed_form"]) == len(primes)
    for i in range(1, len(primes) + 1):
        pref = primes[:i]
        subsets = [S for d in range(min(k, i) + 1) for S in itertools.combinations(pref, d)]
        count = sum(math.prod(p - 1 for p in pref if p not in S) for S in subsets)
        closed = math.prod(Fraction(p - 1, p) for p in pref) * sum(
            math.prod(Fraction(1, p - 1) for p in S) for S in subsets)
        assert rep.quantities["trace"][i - 1] == Fraction(count, math.prod(pref))
        assert rep.quantities["closed_form"][i - 1] == closed
    assert rep.verdict == "PASS"


def test_omega_past_twenty_primes_raises_before_sieving(monkeypatch):
    # at most 21 primes are read, all below 2^10: no sieve runs
    monkeypatch.setattr(_primes, "_PRIMES", None)
    monkeypatch.setattr(_primes, "_SIEVE_BOUND", 0)
    with pytest.raises(BudgetExceeded, match="more than 20 primes"):
        omega_bound_measure(2, 10**8)
    assert _primes._SIEVE_BOUND == 0
    assert omega_bound_measure(2, 71).verdict == "PASS"  # the 20th prime


def test_omega_trace_heads_at_one_then_decreases():
    rep = omega_bound_measure(2, 13)
    trace = rep.quantities["trace"]
    assert trace[0] == 1 and trace[1] == 1
    tail = trace[1:]
    assert all(a > b for a, b in zip(tail, tail[1:]))


def test_omega_zero_is_units_only():
    rep = omega_bound_measure(0, 13)
    # measure of integers with no prime factor below the cutoff
    expected = Fraction(1)
    for p in (2, 3, 5, 7, 11, 13):
        expected *= Fraction(p - 1, p)
    assert rep.quantities["trace"][-1] == expected


# ---------------------------------------------------------------------------
# multiplicative image structure


def test_eulerian_square_image_is_product():
    rep = eulerian_check(compile_set("image(x^2)"), [12, 100, 9999])
    assert rep.verdict == "PASS"
    assert all(rep.quantities["is_product"].values())


def test_eulerian_primes_break_product_at_12():
    rep = eulerian_check(compile_set("primes"), [12], expect="not-product")
    assert rep.verdict == "PASS"
    assert rep.quantities["is_product"][12] is False


def test_eulerian_expect_mismatch_is_failure():
    rep = eulerian_check(compile_set("primes"), [12])
    assert rep.verdict == "FAIL"


def test_eulerian_coprime_pairs_factor():
    rep = eulerian_check(compile_set("coprime(2)"), [12, 90])
    assert rep.verdict == "PASS"


def test_eulerian_skips_truncated_sets_without_a_box(monkeypatch):
    def no_box(self, n):
        raise AssertionError("a truncated set built a box")

    monkeypatch.setattr(CompiledSet, "blocks", no_box)
    rep = eulerian_check(compile_set("kfree(2) & cong(1,4)"), [12, 90])
    assert rep.verdict == "INCONCLUSIVE" and rep.quantities["is_product"] == {}
    assert rep.narrative == ("level 12: truncated image, product test skipped",
                             "level 90: truncated image, product test skipped",
                             "truncated images cannot certify product structure")


# ---------------------------------------------------------------------------
# pairwise-coprime composite families


def test_asdmltp_squares_triple():
    rep = asdmltp_verify([4, 9, 25], r_max=10**6, m_check=900)
    assert rep.verdict == "PASS"
    assert rep.quantities["target"] == Fraction(16, 25)
    assert rep.quantities["ie_value"] == Fraction(16, 25)
    assert rep.quantities["asymptotic_estimate"][-1] == pytest.approx(0.64, abs=1e-2)


@pytest.mark.parametrize("m_check", [36, 262144, 300000, 600000])
def test_asdmltp_truncated_image_is_the_classes_of_the_members(m_check):
    # levels below, at and above the 2^18-cell block, where a block covers
    # whole periods, exactly one, or one or two runs of classes
    n = max(10**6, 2 * m_check)
    hit = np.unique(np.flatnonzero(compile_set("!multiples(4,9,25)").mask_upto(n)) % m_check).size
    rep = asdmltp_verify([4, 9, 25], r_max=10**3, m_check=m_check)
    assert rep.narrative[-1].startswith(f"truncated image at m={m_check} ({hit} classes)")


def test_asdmltp_rejects_common_factor():
    with pytest.raises(DslValueError):
        asdmltp_verify([4, 6])


def test_asdmltp_rejects_prime_modulus():
    with pytest.raises(DslValueError):
        asdmltp_verify([3, 25])


# ---------------------------------------------------------------------------
# product-measure tails


def test_poonen_stoll_squarefree_product():
    rep = poonen_stoll_tail("kfree", k=2, prime_cutoffs=(10, 100, 1000))
    assert rep.verdict == "PASS"
    br = rep.quantities["product_measure"]
    assert br.lo <= 6.0 / math.pi**2 <= br.hi
    assert rep.quantities["empirical_density"] == pytest.approx(
        6.0 / math.pi**2, abs=1e-2
    )


def test_poonen_stoll_units_tail_diverges():
    rep = poonen_stoll_tail("units", prime_cutoffs=(10, 100))
    assert rep.verdict == "INCONCLUSIVE"


def test_poonen_stoll_trivial_spec():
    rep = poonen_stoll_tail("trivial", prime_cutoffs=(10,))
    assert rep.verdict == "PASS"


# ---------------------------------------------------------------------------
# closure-gap traces


def test_mt_gap_vanishes_for_squarefree():
    rep = mt_criterion(
        compile_set("kfree(2)"),
        ModulusChain.primorial_power(2),
        cutoff=10**6,
        r_max=10**6,
        tol=0.02,
    )
    assert rep.quantities["levels"] == [4, 36, 900, 44100]
    gaps = rep.quantities["gap_trace"]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] == pytest.approx(768 / 1225 - 6.0 / math.pi**2, abs=2e-3)
    assert rep.quantities["vanishing"] is True
    assert rep.verdict == "PASS"


def test_mt_gap_exactly_zero_for_periodic():
    rep = mt_criterion(
        compile_set("cong(0,5)"),
        ModulusChain.explicit([5, 10, 20]),
        cutoff=20,
        r_max=10**4,
    )
    assert all(g == pytest.approx(0.0, abs=1e-3) for g in rep.quantities["gap_trace"])
    assert rep.quantities["vanishing"] is True
    assert rep.verdict == "PASS"
    # radii below 4 collapse to distinct radii >= 1
    for r_max in (1, 3):
        small = mt_criterion(compile_set("cong(0,5)"), ModulusChain.explicit([5]), 5, r_max=r_max)
        assert small.quantities["gap_trace"] == [0.0] and small.verdict == "PASS"


def test_mt_gap_stays_large_for_primes():
    rep = mt_criterion(
        compile_set("primes"),
        ModulusChain.primorial(),
        cutoff=2310,
        r_max=10**5,
    )
    assert rep.quantities["vanishing"] is False
    assert min(rep.quantities["gap_trace"]) > 0.1
    assert rep.verdict == "INCONCLUSIVE"


# ---------------------------------------------------------------------------
# covering family without density


def test_counterexample_cover_four_adic():
    rep = counterexample_cover(4, 10)
    assert rep.verdict == "PASS"
    bound = rep.quantities["lower_bound"]
    assert bound == 1 - Fraction(1, 3) * (1 - Fraction(4) ** -10)
    assert float(bound) > 0.666
    assert rep.quantities["complement_measure"] >= bound


@pytest.mark.parametrize("a", [3, 4, 5, 6])
def test_counterexample_cover_counts_the_classes_of_the_coset_mask(a):
    # the covered classes mod a^K against the union of the cosets
    # x_n + a^n Z, n <= K, marked on a mask of all a^K classes
    for terms in range(1, 9):
        m = a**terms
        mask = np.zeros(m, dtype=bool)
        for n in range(1, terms + 1):
            x = n // 2 if n % 2 == 0 else -(n // 2)
            mask[x % a**n::a**n] = True
        q = counterexample_cover(a, terms).quantities
        assert (q["covered_classes"], q["level"]) == (int(mask.sum()), m)
        assert q["complement_measure"] == Fraction(m - int(mask.sum()), m)


def test_counterexample_cover_rejects_small_base():
    with pytest.raises(ValueError):
        counterexample_cover(2, 5)


# ---------------------------------------------------------------------------
# union density and hitting sets


def test_union_dense_family_flag():
    rep = union_dense_check([], family_flag=True)
    assert rep.quantities["dense"] is True


def test_union_not_dense_with_hitting_pair():
    rep = union_dense_check([[2, 3], [3, 5], [2, 5]])
    assert rep.quantities["dense"] is False
    assert sorted(rep.quantities["hitting_set"]) == [2, 3]


def test_union_single_common_prime():
    rep = union_dense_check([[7], [7, 11], [7, 13]])
    assert rep.quantities["dense"] is False
    assert rep.quantities["hitting_set"] == [7]
