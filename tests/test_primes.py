"""The shared prime cache, primality and factorization.

Below 2 * 10^5 the sieve is the oracle. Past the sieve, is_prime is the
strong test to the bases 2..41 and factorize splits cofactors by
Pollard-Brent; products of known primes and known strong pseudoprimes
check those paths.
"""

import bisect
import contextlib
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zhat
from zhat import _primes, setdsl
from zhat._primes import factorize, is_prime
from zhat.setdsl import BudgetExceeded

SIEVE_N = 2 * 10**5
TRIAL_N = 1 << 21


def test_is_prime_and_factorize_match_the_sieve():
    mask = _primes._prime_segment(0, SIEVE_N)
    assert [k for k in range(-3, SIEVE_N + 1) if is_prime(k)] == mask.nonzero()[0].tolist()
    for k in range(1, SIEVE_N + 1):
        fac = factorize(k)
        assert list(fac) == sorted(fac) and all(mask[p] for p in fac), k
        assert math.prod(p**e for p, e in fac.items()) == k
        assert factorize(-k) == fac


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


# primes on both sides of the old 2^22 sieve cap and of 2^32
KNOWN_PRIMES = [2, 3, 1031, 65537, 4194301, 4194319, 33554383, 33554393,
                4294967291, 4294967311, 1000000007, 2**31 - 1]


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from(KNOWN_PRIMES), st.integers(1, 3), min_size=1, max_size=4))
def test_factorize_recovers_products_of_primes(exps):
    n = math.prod(p**e for p, e in exps.items())
    assert factorize(n) == dict(sorted(exps.items()))
    assert is_prime(n) == (sum(exps.values()) == 1)


@pytest.mark.parametrize("n, factors", [
    (3215031751, {151: 1, 751: 1, 28351: 1}),  # strong pseudoprime to 2, 3, 5, 7
    (3825123056546413051, {149491: 1, 747451: 1, 34233211: 1}),  # to the bases 2..23
])
def test_strong_pseudoprimes_are_composite(n, factors):
    assert not is_prime(n)
    assert factorize(n) == factors


def test_large_primes_and_prime_powers():
    is_prime(2)
    sieve_bound = _primes._SIEVE_BOUND
    m61 = 2**61 - 1
    assert is_prime(m61)
    assert factorize(m61) == {m61: 1}
    assert factorize(m61**3 * 9) == {3: 2, m61: 3}
    assert factorize(m61 * (2**31 - 1)) == {2**31 - 1: 1, m61: 1}
    assert is_prime(2**89 - 1) and not is_prime(2**89 + 1)
    # none of this grows the shared sieve
    assert _primes._SIEVE_BOUND == sieve_bound


def test_rho_budget_raises(monkeypatch):
    monkeypatch.setattr(_primes, "RHO_BUDGET", 64)
    with pytest.raises(BudgetExceeded, match="more than 64 Pollard-Brent iterations"):
        factorize(33554383 * 33554393)
    assert factorize(33554383 * 101) == {101: 1, 33554383: 1}  # trial division only


def test_sieve_past_the_box_budget_raises_before_sieving(monkeypatch):
    # a fresh cache under a box budget of 1000: a larger bound raises with
    # nothing sieved, and doubling the cache stops at the budget
    for name in ("_SIEVE_BOUND", "_PRIMES", "_SMALL_PRIMES"):
        monkeypatch.setattr(_primes, name, getattr(_primes, name))
    monkeypatch.setattr(_primes, "_SIEVE_BOUND", 0)
    monkeypatch.setattr(_primes, "BOX_BUDGET", 1000)
    with pytest.raises(BudgetExceeded, match="sieve up to 1001 exceeds box budget 1000"):
        _primes.primes_upto(1001)
    assert _primes._SIEVE_BOUND == 0
    _primes.primes_upto(600)
    _primes.primes_upto(700)  # would double to 1200
    assert _primes._SIEVE_BOUND == 1000
    assert _primes.primes_upto(1000)[-1] == 997


@contextlib.contextmanager
def fresh_cache():
    """The shared sieve emptied for the body and restored after it."""
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_SIEVE_BOUND", "_PRIMES"):
            mp.setattr(_primes, name, getattr(_primes, name))
        mp.setattr(_primes, "_SIEVE_BOUND", 0)
        yield


def test_primes_without_the_sieve_match_the_sieve():
    # on a fresh cache is_prime and factorize divide by the pure-Python
    # primes below 2^10 only, which proves primality below 2^20 (the strong
    # test decides above), and grow no sieve; the sieve's table is their
    # oracle for every n < 2^21
    with fresh_cache():
        trial = list(map(is_prime, range(TRIAL_N)))
        for k, fac in enumerate(map(factorize, range(1, TRIAL_N)), 1):
            assert math.prod(p**e for p, e in fac.items()) == k and all(trial[p] for p in fac), k
        assert _primes._SIEVE_BOUND == 0
        assert trial == _primes._prime_segment(0, TRIAL_N - 1).tolist()
        assert _primes._SMALL_PRIMES == _primes.primes_upto(_primes._TRIAL_BOUND).tolist()


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.integers(-2, TRIAL_N), st.integers(1, 2**64)))
def test_large_primes_without_the_sieve_match_the_sieve(n):
    with fresh_cache():
        trial = is_prime(n), factorize(n) if n else None
        assert _primes._SIEVE_BOUND == 0
    _primes.primes_upto(TRIAL_N)  # the shared sieve, past every n below TRIAL_N
    assert (is_prime(n), factorize(n) if n else None) == trial


@pytest.mark.parametrize("name", ["DslError", "DslSyntaxError", "DslValueError",
                                  "DimensionMismatch", "BudgetExceeded"])
def test_exception_classes_are_one_object_in_every_namespace(name):
    assert getattr(setdsl, name) is getattr(_primes, name) is getattr(zhat, name)


def test_iter_primes_reads_the_small_table_then_the_sieve():
    # the primes below 2^10 come from the pure-Python table with no sieve;
    # the iterator goes on past 2^10 in step with primes_upto
    with fresh_cache():
        it = _primes.iter_primes()
        small = [next(it) for _ in _primes._SMALL_PRIMES]
        assert small == _primes._SMALL_PRIMES and small[-1] < _primes._TRIAL_BOUND
        assert _primes._SIEVE_BOUND == 0
        more = [next(it) for _ in range(2000)]
        assert _primes._SIEVE_BOUND > 0
        assert small + more == _primes.primes_upto(more[-1]).tolist()


def test_named_sequences_live_with_the_primes():
    assert list(itertools.islice(_primes.sequence_terms("primorials"), 5)) == [2, 6, 30, 210, 2310]
    assert _primes._sequence_upto("factorials", 720) == [1, 2, 6, 24, 120, 720]
    assert _primes._sequence_upto("factorial_shift", 30) == [2, 4, 9, 28]


def one_factor_valuation(n, p):
    """v_p(|n|), one factor of p per division."""
    n, v = abs(n), 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 97, 65537, 2**61 - 1]), st.integers(0, 3000),
       st.integers(-10**30, 10**30).filter(bool))
def test_valuation_matches_one_factor_at_a_time(p, e, unit):
    # large exponents, negative n and cofactors that p may or may not divide
    n = unit * p**e
    assert _primes.valuation(n, p) == one_factor_valuation(n, p)


def test_valuation_edges():
    assert _primes.valuation(1, 2) == 0 and _primes.valuation(-3, 2) == 0
    assert _primes.valuation(-(2**4095) * 3, 2) == 4095
    assert _primes.valuation(math.factorial(2000), 2) == one_factor_valuation(math.factorial(2000), 2)
    with pytest.raises(ValueError):
        _primes.valuation(0, 3)


def lucy_quotients(n):
    """pi(x) by the Lucy tables of n at every quotient x = n // k."""
    spent = []
    pi = _primes.prime_pi_table(n, spent.append)
    return {x: pi(x) for x in {n // k for k in range(1, math.isqrt(n) + 1)} | set(range(math.isqrt(n) + 1))}


@pytest.mark.parametrize("n", [*range(1, 40), 97, 1000, 65536, 99991, 10**6 - 1, 10**6])
def test_lucy_prime_counts_match_the_sieve(n):
    primes = _primes.primes_upto(n).tolist()
    for x, count in lucy_quotients(n).items():
        assert count == bisect.bisect_right(primes, x), (n, x)


def test_lucy_charges_each_prime_step_before_it_runs():
    calls = []
    assert _primes.prime_pi_table(100, calls.append)(100) == 25
    # the sqrt(100) = 10 cells of each table, then for p = 2, 3, 5, 7 the
    # large cells while 100 // k >= p^2 and the small cells p^2..10
    assert calls == [10, 10 + 7, 10 + 2, 4, 2]


def test_lucy_tables_are_charged_before_they_are_made():
    def refuse(n):
        raise BudgetExceeded(f"{n} cells")

    with pytest.raises(BudgetExceeded, match="10000000000 cells"):
        _primes.prime_pi_table(10**20, refuse)


def test_mobius_codes_match_factorization():
    codes = _primes.mobius_codes(3000)
    assert codes[0] == 0
    for d in range(1, 3001):
        fac = factorize(d)
        mu = 0 if any(e > 1 for e in fac.values()) else (-1) ** len(fac)
        assert codes[d] == {0: 0, 1: 1, -1: 2}[mu], d
