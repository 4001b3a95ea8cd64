"""Certified float brackets against exact integer arithmetic.

For s = a/b every k^(-s) is enclosed by directed integer roots at a fixed
resolution, the way de_delta_bracket encloses lcm^(-s); sums of these
enclosures are exact rational brackets for the power sums, the integral
tails and their quotients. A float bracket is certified when it contains
the exact bracket built from the same inequalities.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zhat import _primes, measure
from zhat._primes import BudgetExceeded, _iroot
from zhat.analytic import delta_ratio, zeta_set, zeta_sets
from zhat.density import density_analytic
from zhat.measure import (euler_product, masked_power_sums, zeta_bracket, zeta_log_partial,
                          zeta_partial)
from zhat.setdsl import compile_set

SCALE = 10**30
SETS = ["primes", "kfree(2)", "cong(1,4)", "kfree(2) & cong(1,4)", "!multiples(4,6)", "cong(0,4)"]


def power_bracket(ks, a: int, b: int, weights=None) -> tuple[Fraction, Fraction]:
    """Exact enclosure of sum of w_k k^(-a/b) over ks (w_k = 1 unless integer
    weights are given): with r = floor(k^(a/b) S), k^(-a/b) lies in
    [S/(r+1), S/r], summed at resolution 1/S^2."""
    lo = hi = 0
    for k in ks:
        w = 1 if weights is None else int(weights[k])
        r = _iroot(k**a * SCALE**b, b)
        lo += w * (SCALE**3 // (r + 1))
        hi += w * -(-(SCALE**3) // r)
    return Fraction(lo, SCALE**2), Fraction(hi, SCALE**2)


def tail_bracket(x: int, a: int, b: int) -> tuple[Fraction, Fraction]:
    """Exact enclosure of x^(1-s)/(s-1) = b / ((a-b) x^((a-b)/b))."""
    r = _iroot(x ** (a - b) * SCALE**b, b)
    return Fraction(b * SCALE, (a - b) * (r + 1)), Fraction(b * SCALE, (a - b) * r)


def exact_zeta(n: int, a: int, b: int) -> tuple[Fraction, Fraction]:
    """Enclosure of zeta(a/b) from the partial sum to n and integral tails."""
    p_lo, p_hi = power_bracket(range(1, n + 1), a, b)
    return p_lo + tail_bracket(n + 1, a, b)[0], p_hi + tail_bracket(n, a, b)[1]


def exact_subset(cset, n: int, a: int, b: int) -> tuple[Fraction, Fraction]:
    """Enclosure of zeta_X(a/b): members up to n plus the full-series tail."""
    ks = np.flatnonzero(cset.mask_upto(n)).tolist()
    x_lo, x_hi = power_bracket(ks, a, b)
    return x_lo, x_hi + tail_bracket(n, a, b)[1]


def exact_ratio(cset, n: int, a: int, b: int) -> tuple[Fraction, Fraction]:
    x_lo, x_hi = exact_subset(cset, n, a, b)
    z_lo, z_hi = exact_zeta(n, a, b)
    return x_lo / z_hi, min(Fraction(1), x_hi / z_lo)


def encloses(lo: float, hi: float, exact: tuple[Fraction, Fraction]) -> bool:
    return Fraction(lo) <= exact[0] and exact[1] <= Fraction(hi)


# s = a/b in (0, 4] with b in {1, 2, 4}, where _iroot is exact isqrt work
exponents = st.sampled_from([1, 2, 4]).flatmap(
    lambda b: st.tuples(st.integers(1, 4 * b), st.just(b))
)
# s > 1, where the series and their integral tails converge
convergent = exponents.filter(lambda ab: ab[0] > ab[1])


# ---------------------------------------------------------------- Euler-Maclaurin


@pytest.mark.parametrize("s", [1, 2, 3, 5])
def test_zeta_partial_exact_for_small_n(s):
    # n < 20 is the direct sum; from 20 on Euler-Maclaurin takes over
    for n in range(1, 61):
        value, bound = zeta_partial(float(s), n)
        exact = sum(Fraction(1, k**s) for k in range(1, n + 1))
        assert abs(Fraction(value) - exact) <= Fraction(bound), n
        assert bound < 1e-13 * value


@settings(max_examples=30, deadline=None)
@given(exponents, st.integers(1, 10**4))
def test_zeta_partial_within_bound(ab, n):
    a, b = ab
    value, bound = zeta_partial(a / b, n)
    lo, hi = power_bracket(range(1, n + 1), a, b)
    assert Fraction(value) - Fraction(bound) <= lo and hi <= Fraction(value) + Fraction(bound)
    assert bound < 1e-13 * value


@pytest.mark.parametrize("s, n", [(0.0, 10), (-1.0, 10), (math.inf, 10), (math.nan, 10), (2.0, -1),
                                  (2.0, 2**53)])
def test_zeta_partial_rejects_bad_input(s, n):
    with pytest.raises(ValueError):
        zeta_partial(s, n)


# 64 is the head of the log-weighted sum: below it the terms are summed
# directly, from it on Euler-Maclaurin takes over
@settings(max_examples=40, deadline=None)
@given(st.floats(1.2, 8.0, exclude_min=True),
       st.one_of(st.sampled_from([63, 64, 65]), st.integers(1, 2 * 10**5)))
def test_zeta_log_partial_within_bound_of_fsum(s, n):
    value, bound = zeta_log_partial(s, n)
    direct = math.fsum(math.log(k) * k ** -s for k in range(2, n + 1))
    assert abs(value - direct) <= bound
    assert bound <= 1e-12 * value


@pytest.mark.parametrize("s, n", [(1.0, 10), (0.5, 10), (math.inf, 10), (math.nan, 10), (2.0, -1),
                                  (2.0, 2**53)])
def test_zeta_log_partial_rejects_bad_input(s, n):
    with pytest.raises(ValueError):
        zeta_log_partial(s, n)


# ---------------------------------------------------------------- zeta brackets


@settings(max_examples=30, deadline=None)
@given(convergent, st.integers(2, 10**4))
def test_zeta_bracket_encloses_exact(ab, n):
    a, b = ab
    br = zeta_bracket(a / b, n)
    assert encloses(br.lo, br.hi, exact_zeta(n, a, b))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SETS), convergent, st.integers(2, 10**4))
def test_zeta_set_and_delta_ratio_enclose_exact(text, ab, n):
    a, b = ab
    cset = compile_set(text)
    br = zeta_set(cset, a / b, n).bracket()
    assert encloses(br.lo, br.hi, exact_subset(cset, n, a, b))
    br = delta_ratio(cset, a / b, n)
    assert encloses(br.lo, br.hi, exact_ratio(cset, n, a, b))


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(SETS),
       st.lists(convergent, min_size=1, max_size=3, unique_by=lambda ab: ab[0] / ab[1]),
       st.integers(2, 10**4))
def test_density_analytic_brackets_enclose_exact(text, grid, n):
    # a stream bracket encloses the exact truncation enclosure at n; a
    # count view's closed-form bracket, of the ratio itself, lies inside it
    grid = sorted(grid, key=lambda ab: -ab[0] / ab[1])  # s decreases toward 1
    cset = compile_set(text)
    view = cset.count_view()
    rep = density_analytic(cset, [a / b for a, b in grid], n, tail_window=1)
    for (a, b), (lo, hi) in zip(grid, rep.params["brackets"]):
        exact = exact_ratio(cset, n, a, b)
        if view is not None and view.cls is None:
            assert exact[0] <= Fraction(lo) and Fraction(hi) <= exact[1]
        else:
            assert encloses(lo, hi, exact)


# ---------------------------------------------------------------- Euler products


def exact_euler(c: int, k: int, cutoff: int) -> tuple[Fraction, Fraction]:
    """The partial product and a lower bound for it times exp(t): for t < 0
    and odd n the Lagrange remainder of the degree-n Taylor sum is positive."""
    ps = _primes.primes_upto(cutoff).tolist()
    partial = Fraction(math.prod(p**k - c for p in ps), math.prod(p**k for p in ps))
    t = Fraction(-2 * c, (k - 1) * cutoff ** (k - 1))
    return partial * sum(t**j / math.factorial(j) for j in range(62)), partial


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 2]), st.sampled_from([2, 3]), st.integers(2, 10**4))
def test_euler_product_encloses_exact(c, k, cutoff):
    br = euler_product(f"1-{c}/p^{k}", cutoff)
    assert encloses(br.lo, br.hi, exact_euler(c, k, cutoff))


def test_euler_product_divergent_tail_above_exact_partial():
    br = euler_product("1-1/p", 10**4)
    ps = _primes.primes_upto(10**4).tolist()
    assert Fraction(math.prod(p - 1 for p in ps), math.prod(ps)) <= Fraction(br.hi)


def test_euler_product_zero_and_near_zero_factors():
    assert euler_product("1-4/p^2", 100).hi == 0.0
    br = euler_product("1-3/p^2", 100)
    assert encloses(br.lo, br.hi, exact_euler(3, 2, 100))


def test_euler_product_past_the_box_budget_raises_before_sieving(monkeypatch):
    def sieve(*args):
        raise AssertionError("sieved past the box budget")

    monkeypatch.setattr(_primes, "_sieve_segment", sieve)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="exceeds box budget"):
        euler_product("1-1/p^2", _primes.BOX_BUDGET + 1)
    assert time.perf_counter() - start < 1.0


def euler_from_the_whole_table(c: int, k: int, cutoff: int) -> measure.Bracket:
    """The bracket of euler_product for 1 - c/p^k, from one whole table of
    the primes up to the cutoff summed in slices of _BLOCK primes: the
    reference the streamed sums must equal bit for bit."""
    ps = _primes.primes_upto(cutoff)
    parts = []
    for lo in range(0, ps.size, measure._BLOCK):
        x = ps[lo:lo + measure._BLOCK].astype(np.float64)
        np.power(x, -float(k), out=x)
        x *= -float(c)
        np.log1p(x, out=x)
        parts.append(float(x.sum()))
    log_partial = math.fsum(parts)
    xm = c / 2**k * (1.0 + measure._gamma(measure._LIB_UNITS + 3))
    a, b = measure._gamma(measure._LIB_UNITS + 2) / (1.0 - xm), measure._gamma(measure._LIB_UNITS)
    err = measure._sum_error(log_partial, a + b + a * b, min(ps.size, measure._BLOCK),
                             ps.size * (c + 1) * measure._TINY)
    hi = measure._exp_up(measure._up(log_partial + err))
    if k == 1:
        return measure.Bracket(0.0, hi, True, cutoff, notes=("DIVERGENT-TAIL",))
    tail = measure._up(2 * c / ((k - 1) * cutoff ** (k - 1)))
    lo = measure._exp_down(measure._down(measure._down(log_partial - err) - tail))
    return measure.Bracket(lo, hi, True, cutoff)


# 821641 is the 65536th prime: the first chunk of _BLOCK = 2^16 primes ends
# on it, and 821647 starts the second; 2^18 ends the first sieve segment
@pytest.mark.parametrize("cutoff", [821641, 821647, 2**18, 2**18 + 1, 2 * 10**6])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_streamed_euler_bracket_is_the_whole_table_bracket(cutoff, k):
    assert euler_product(f"1-1/p^{k}", cutoff) == euler_from_the_whole_table(1, k, cutoff)


# ---------------------------------------------------------------- block size


def test_power_sums_agree_across_block_sizes(monkeypatch):
    mask = compile_set("kfree(2)").mask_upto(3000)
    ss = [3.0, 1.5, 1.05]
    sums, bounds = masked_power_sums(mask, ss)
    monkeypatch.setattr(measure, "_BLOCK", 7)
    small, small_bounds = masked_power_sums(mask, ss)
    assert np.all(np.abs(sums - small) <= bounds + small_bounds)
    assert np.all(small_bounds < bounds)  # fewer additions per term


@pytest.mark.parametrize("text", ["primes", "kfree(2)", "cong(1,4)"])
def test_brackets_enclose_exact_with_tiny_blocks(monkeypatch, text):
    monkeypatch.setattr(measure, "_BLOCK", 7)
    cset, n, (a, b) = compile_set(text), 2000, (5, 4)
    (zx,) = zeta_sets(cset, [a / b], n)
    br = zx.bracket()
    assert encloses(br.lo, br.hi, exact_subset(cset, n, a, b))
    br = zx.ratio_bracket()
    assert encloses(br.lo, br.hi, exact_ratio(cset, n, a, b))
    br = euler_product("1-2/p^3", n)
    assert encloses(br.lo, br.hi, exact_euler(2, 3, n))


def test_empty_mask_sums_to_zero():
    for table in (np.zeros(50, dtype=bool), np.zeros(50, dtype=np.int64), np.zeros(50)):
        sums, bounds = masked_power_sums(table, [2.0])
        assert sums.tolist() == [0.0] and bounds.tolist() == [0.0]


# ---------------------------------------------------------------- weighted sums


@pytest.mark.parametrize("block", [measure._BLOCK, 7])
@pytest.mark.parametrize("dtype", [np.int64, np.uint16, np.float64])
def test_weighted_power_sums_enclose_exact(monkeypatch, block, dtype):
    # shell counts of the dimension-n alpha ratio are such integer weights;
    # index 0 is never read, so its negative weight is harmless
    monkeypatch.setattr(measure, "_BLOCK", block)
    weights = np.random.default_rng(5).integers(0, 40, 2001)
    weights[::3] = 0
    weights = weights.astype(dtype)
    if dtype != np.uint16:
        weights[0] = -3
    grid = [(1, 2), (1, 1), (5, 4), (3, 1)]
    sums, bounds = masked_power_sums(weights, [a / b for a, b in grid])
    for (a, b), t, e in zip(grid, sums, bounds):
        lo, hi = measure._down(t - e), measure._up(t + e)
        assert encloses(lo, hi, power_bracket(range(1, weights.size), a, b, weights))


def test_zero_one_weights_sum_like_the_mask():
    mask = compile_set("kfree(2) & cong(1,4)").mask_upto(5000)
    ss = [2.0, 1.0, 0.5]
    sums, bounds = masked_power_sums(mask, ss)
    wsums, wbounds = masked_power_sums(mask.astype(np.uint8), ss)
    assert wsums.tolist() == sums.tolist()
    assert np.all(wbounds > bounds)  # the product counts one more rounding


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
def test_weights_must_be_finite_and_nonnegative(bad):
    weights = np.ones(200)
    weights[150] = bad
    with pytest.raises(ValueError, match="finite and nonnegative"):
        masked_power_sums(weights, [2.0])
    with pytest.raises(ValueError):
        masked_power_sums(np.array([0, 1, -2]), [2.0])
