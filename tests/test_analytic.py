"""Dirichlet-series tools: truncated sums, the log-derivative identity, and
certified inclusion-exclusion values."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zhat import _primes, measure
from zhat.analytic import (
    DirichletTruncation,
    DlogReport,
    _iroot,
    _von_mangoldt_blocks,
    de_delta_bracket,
    de_delta_exact,
    de_delta_table,
    delta_ratio,
    dlog_zeta_check,
    prime_zeta,
    series_ratio,
    series_ratios,
    vm_identity_check,
    vm_identity_scan,
    von_mangoldt,
    zeta_set,
    zeta_sets,
)
from zhat.setdsl import CountView, compile_set

SEGMENT = _primes._SEGMENT
BLOCK = measure._BLOCK


# ---------------------------------------------------------------------------
# von Mangoldt weights


def test_von_mangoldt_values():
    assert von_mangoldt(1) == 0.0
    assert von_mangoldt(2) == pytest.approx(math.log(2))
    assert von_mangoldt(8) == pytest.approx(math.log(2))
    assert von_mangoldt(9) == pytest.approx(math.log(3))
    assert von_mangoldt(97) == pytest.approx(math.log(97))
    assert von_mangoldt(12) == 0.0
    assert von_mangoldt(30030) == 0.0


def test_von_mangoldt_rejects_nonpositive():
    with pytest.raises(ValueError):
        von_mangoldt(0)


def test_vm_identity_single_points():
    assert vm_identity_check(360, 1e-9)
    assert vm_identity_check(97, 1e-9)
    assert not vm_identity_check(360, -1.0)


def test_vm_identity_scan_holds_to_1e5():
    assert vm_identity_scan(10**5, 1e-8)


def test_vm_identity_scan_oracle_small():
    # independent check: accumulate weights over multiples
    n_max = 2000
    acc = [0.0] * (n_max + 1)
    for d in range(1, n_max + 1):
        w = von_mangoldt(d)
        if w:
            for m in range(d, n_max + 1, d):
                acc[m] += w
    worst = max(abs(acc[n] - math.log(n)) for n in range(1, n_max + 1))
    assert worst < 1e-10


def per_n_scan(n_max, tol):
    """The scan as a per-n loop: add e * log p over the factorization of n,
    smallest prime first."""
    logs = np.log(np.arange(0, n_max + 1, dtype=np.float64), where=np.arange(n_max + 1) > 0,
                  out=np.zeros(n_max + 1))
    worst = 0.0
    for n in range(2, n_max + 1):
        total = 0.0
        for p, e in _primes.factorize(n).items():
            total += e * math.log(p)
        worst = max(worst, abs(logs[n] - total))
        if worst >= tol:
            return False
    return True


@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 64, 10**4])
@pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-30, 0.0])
def test_vm_identity_scan_matches_per_n_loop(n_max, tol):
    assert vm_identity_scan(n_max, tol) == per_n_scan(n_max, tol)


def test_vm_identity_scan_fails_below_rounding():
    # for some n <= 10^4 rounding parts log n from the sum of its prime
    # logs, so a tolerance below float rounding must report a failure
    assert not vm_identity_scan(10**4, 1e-30)
    assert not vm_identity_scan(10**4, 0.0)
    assert vm_identity_scan(10**4, 1e-12)


def test_vm_identity_scan_spans_two_blocks():
    # blocks of BLOCK integers from 2: the last block, [BLOCK + 2, BLOCK + 5]
    # or [SEGMENT + 2, SEGMENT + 5], has its own base primes
    for n_max in [BLOCK, BLOCK + 1, BLOCK + 5, SEGMENT + 5]:
        assert vm_identity_scan(n_max, 1e-12)
        assert not vm_identity_scan(n_max, 0.0)


# prime powers end some tables; BLOCK = 2^16, SEGMENT = 2^18 and 2^19 end
# a block, and BLOCK + 1 and BLOCK + 5 start one inside a sieve segment
@pytest.mark.parametrize("n", [1, 2, 8, 9, 3125, 10**4, BLOCK, BLOCK + 1, BLOCK + 5,
                               SEGMENT, SEGMENT + 1, 2 * SEGMENT])
def test_von_mangoldt_table_matches_pointwise(n):
    # Lambda block by block over the grid of the power-sum kernel
    starts, tables = zip(*_von_mangoldt_blocks(n))
    assert starts == tuple(range(1, n + 1, BLOCK))
    lam = np.concatenate(tables)
    assert lam.tolist() == [von_mangoldt(k) for k in range(1, n + 1)]


# ---------------------------------------------------------------------------
# truncated restricted zeta values


def test_zeta_set_partial_matches_fsum():
    cset = compile_set("cong(1,4)")
    zx = zeta_set(cset, 2.0, 100)
    direct = math.fsum(n ** -2.0 for n in range(1, 101) if n % 4 == 1)
    assert zx.partial == pytest.approx(direct, rel=1e-12)
    br = zx.bracket()
    assert br.lo <= zx.partial + zx.tail_hi
    assert br.certified


def test_zeta_set_no_members_below_cutoff():
    zx = zeta_set(compile_set("finite(200)"), 2.0, 100)
    assert zx.partial == 0.0


def test_delta_ratio_bracket_shrinks_with_cutoff():
    cset = compile_set("kfree(2)")
    b1 = delta_ratio(cset, 1.5, 10**3)
    b2 = delta_ratio(cset, 1.5, 2 * 10**3)
    assert b1.lo <= b2.lo and b2.hi <= b1.hi
    assert (b2.hi - b2.lo) < (b1.hi - b1.lo)
    # squarefree restricted series is zeta(s)/zeta(2s), so the quotient
    # tends to 1/zeta(3) at s = 1.5
    target = 1.0 / 1.2020569031595943
    assert b2.lo <= target <= b2.hi


def test_dirichlet_truncation_validation():
    with pytest.raises(ValueError):
        zeta_set(compile_set("cong(1,4)"), 0.5, 100)
    with pytest.raises(ValueError):
        zeta_set(compile_set("cong(1,4)"), 2.0, 0)


# ---------------------------------------------------------------------------
# log-derivative identity harness


def test_dlog_zeta_passes_at_s2():
    rep = dlog_zeta_check(2.0, 10**5, 1e-3)
    assert rep.verdict == "PASS"
    assert rep.ratio_side == pytest.approx(0.5698883884679873, rel=1e-9)
    assert rep.series_side == pytest.approx(0.5699509987625495, rel=1e-9)
    assert rep.difference < rep.tol


@pytest.mark.parametrize("s", [1.3, 2.0, 3.5])
def test_dlog_zeta_sides_within_rounding_budget_of_fsum(s):
    # the budget is the truncation budget plus the rounding of both sides
    n = 10**4
    rep = dlog_zeta_check(s, n, 1e-3)
    den = math.fsum(k ** -s for k in range(1, n + 1))
    ratio = math.fsum(math.log(k) * k ** -s for k in range(2, n + 1)) / den
    prime_powers = [(p, p**j) for p in _primes.primes_upto(n).tolist()
                    for j in range(1, n.bit_length()) if p**j <= n]
    series = math.fsum(math.log(p) * q ** -s for p, q in prime_powers)
    tail_log = n ** (1 - s) * (math.log(n) / (s - 1) + (s - 1) ** -2)
    truncation = (tail_log + rep.ratio_side * n ** (1 - s) / (s - 1)) / den + tail_log
    rounding = rep.tail_budget - truncation
    assert rounding > 0
    assert abs(rep.ratio_side - ratio) <= rounding
    assert abs(rep.series_side - series) <= rounding


def test_dlog_zeta_inconclusive_near_pole():
    rep = dlog_zeta_check(1.21, 10**5, 1e-3)
    assert rep.verdict == "INCONCLUSIVE"
    assert rep.tail_budget > rep.tol


def test_dlog_zeta_rejects_bad_domain():
    with pytest.raises(ValueError):
        dlog_zeta_check(1.0, 100, 1e-3)


# ---------------------------------------------------------------------------
# inclusion-exclusion Dirichlet values


def test_de_delta_exact_rationals():
    assert de_delta_exact([4], 2) == Fraction(15, 16)
    assert de_delta_exact([4, 6], 1) == Fraction(2, 3)
    assert de_delta_exact([2], 1) == Fraction(1, 2)
    # pairwise coprime moduli factor
    v = de_delta_exact([4, 9], 1)
    assert v == Fraction(3, 4) * Fraction(8, 9)


def test_de_delta_float_matches_direct_subset_sum():
    moduli = [4, 9, 25, 49]
    s = 1.375
    # direct signed subset sum over lcms
    total = 0.0
    for mask in range(1 << len(moduli)):
        l = 1
        bits = 0
        for i, m in enumerate(moduli):
            if mask >> i & 1:
                l = l * m // math.gcd(l, m)
                bits += 1
        total += (-1.0) ** bits * l ** (-s)
    assert de_delta_exact(moduli, s) == pytest.approx(total, rel=1e-12)


def test_de_delta_bracket_encloses_float_value():
    moduli = [4, 9, 25]
    for k in range(1, 9):
        s = Fraction(1) + Fraction(k, 16)
        lo, hi = de_delta_bracket(moduli, s, digits=12)
        assert lo <= hi
        assert float(hi - lo) < 1e-11
        fval = de_delta_exact(moduli, float(s))
        assert float(lo) - 1e-9 <= fval <= float(hi) + 1e-9


def test_de_delta_bracket_integer_s_is_sharp():
    lo, hi = de_delta_bracket([4, 6], Fraction(1), digits=15)
    assert lo <= Fraction(2, 3) <= hi
    assert float(hi - lo) < 1e-14


def test_de_delta_table_layout():
    text = de_delta_table([4, 6], [Fraction(1), Fraction(2)])
    lines = text.strip().splitlines()
    assert len(lines) >= 3
    assert "s" in lines[0]


def test_iroot_brute_oracle():
    import random

    rng = random.Random(5)
    for _ in range(400):
        k = rng.randint(1, 12)
        x = rng.randint(0, 10**12)
        r = _iroot(x, k)
        assert r**k <= x < (r + 1) ** k


def test_iroot_exact_powers():
    for base in (2, 3, 10, 97):
        for k in (2, 3, 5, 8):
            assert _iroot(base**k, k) == base
            assert _iroot(base**k - 1, k) == base - 1


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=150, deadline=None)
@given(
    moduli=st.lists(st.integers(min_value=2, max_value=60), min_size=1, max_size=5),
    ds=st.integers(min_value=0, max_value=40),
)
def test_de_delta_monotone_in_s(moduli, ds):
    s1 = 1.0 + ds / 20.0
    s2 = s1 + 0.25
    assert de_delta_exact(moduli, s1) <= de_delta_exact(moduli, s2) + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    moduli=st.lists(st.integers(min_value=2, max_value=30), min_size=1, max_size=4),
    k=st.integers(min_value=1, max_value=12),
)
def test_de_delta_bracket_contains_exact(moduli, k):
    s = Fraction(1) + Fraction(k, 16)
    lo, hi = de_delta_bracket(moduli, s, digits=10)
    fval = de_delta_exact(moduli, float(s))
    assert float(lo) - 1e-8 <= fval <= float(hi) + 1e-8


# ---------------------------------------------------------------------------
# count views in closed form


@pytest.mark.parametrize("text", ["primes", "kfree(2)", "kfree(3) \\ multiples(4,9)", "kfree(2) \\ primes",
                                  "!multiples(4,6)"])
def test_series_ratio_lies_inside_the_stream_brackets(text):
    # the stream encloses the ratio by a partial sum over the members and the
    # full series' tail, with no Euler product and no prime zeta function
    cset = compile_set(text)
    ss = [2.0, 1.5, 1.1, 1.02]
    closed = series_ratios(cset.count_view(), ss)
    for cutoff in (10**4, 10**5, 10**6):
        for s, c, t in zip(ss, closed, zeta_sets(cset, ss, cutoff)):
            stream = t.ratio_bracket()
            assert stream.lo <= c.lo <= c.hi <= stream.hi, (s, cutoff)
            assert c.width <= 1e-12


def test_prime_zeta_at_2_matches_its_published_digits():
    p = prime_zeta(2.0)
    known = Fraction("0.4522474200410654985")  # OEIS A085548
    assert Fraction(p.lo) <= known <= Fraction(p.hi)
    assert p.width < 1e-13


def test_series_ratio_near_the_pole_approaches_the_dirichlet_density():
    view = compile_set("kfree(2) \\ multiples(3)").count_view()
    density = 9 / (2 * math.pi**2)  # 6/pi^2 times (1 - 1/3) / (1 - 1/9)
    near = series_ratio(view, 1 + 1e-6)
    assert abs(near.lo - density) < 1e-5 and abs(near.hi - density) < 1e-5
    limit = series_ratio(view, 1.0)
    assert limit.lo <= density <= limit.hi and limit.width < 1e-13


@settings(max_examples=80, deadline=None)
@given(moduli=st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=6),
       k=st.integers(min_value=0, max_value=48))
def test_series_ratio_contains_the_rational_de_delta_bracket(moduli, k):
    # s = 1 + k/16 is a float exactly; the rational bracket is 1e-30 wide
    s = Fraction(1) + Fraction(k, 16)
    lo, hi = de_delta_bracket(moduli, s)
    br = series_ratio(CountView(moduli=tuple(moduli)), float(s))
    assert Fraction(br.lo) <= lo and hi <= Fraction(br.hi)


def test_a_modulus_past_float_range_adds_a_bounded_term():
    # (2 5^500)^-s is below 2^-1000: the term drops into the error bound
    # instead of overflowing the conversion to float
    huge = 2 * 5**500
    assert de_delta_exact([9, huge], 1.5) == 1 - 9**-1.5
    br = series_ratio(CountView(moduli=(9, huge)), 1.5)
    assert Fraction(br.lo) <= Fraction(26, 27) <= Fraction(br.hi) and br.width < 1e-13


def test_series_ratio_rejects_cong_views_and_s_below_1():
    with pytest.raises(ValueError):
        series_ratio(CountView(k=2, cls=(1, 4)), 2.0)
    with pytest.raises(ValueError):
        series_ratio(CountView(k=2), 0.5)
    with pytest.raises(ValueError):
        prime_zeta(1.0)


def test_dlog_report_json_is_pinned():
    # recorded before the encoder moved out of verify: numpy floats come
    # out as plain floats
    rep = DlogReport(s=2.0, cutoff=10**4, tol=1e-6, ratio_side=np.float64(-0.5699),
                     series_side=-0.5699000000000001, difference=np.float64(1e-16),
                     tail_budget=2.5e-3, verdict="INCONCLUSIVE")
    expected = {"s": 2.0, "cutoff": 10000, "tol": 1e-06, "ratio_side": -0.5699,
                "series_side": -0.5699000000000001, "difference": 1e-16,
                "tail_budget": 0.0025, "verdict": "INCONCLUSIVE"}
    assert rep.to_json() == expected
    assert json.dumps(rep.to_json()) == json.dumps(expected)
