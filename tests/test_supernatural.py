import itertools
import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zhat import _primes, supernatural
from zhat._primes import BudgetExceeded
from zhat.supernatural import (
    DIVERGING,
    STABILIZED,
    SupernaturalNumber,
    divides,
    gcd_lcm,
    limit_profile,
    mul,
    omega,
    parse_supernatural,
    rho,
    to_text,
)


@pytest.mark.parametrize("bad", [-1, 2.0, True, None, "2"], ids=repr)
def test_exponents_are_ints_or_inf(bad):
    with pytest.raises(ValueError):
        SupernaturalNumber({2: bad})


def test_factorization_map_examples():
    assert to_text(rho(-12)) == "2^2*3"
    assert to_text(rho(1)) == "1"
    assert to_text(rho(360)) == "2^3*3^2*5"
    with pytest.raises(ValueError):
        rho(0)


def test_canonical_text_round_trip_examples():
    for text in ("1", "2", "2^inf", "2^inf*3^2*5", "7^3*11"):
        assert to_text(parse_supernatural(text)) == text
    # non-canonical spellings normalize
    assert to_text(parse_supernatural("3^2*2^inf*5^1")) == "2^inf*3^2*5"


def test_parse_rejects_garbage():
    for bad in ("", "4^2", "2^-1", "2**3", "2^inf*2"):
        with pytest.raises(ValueError):
            parse_supernatural(bad)


def test_mul_example():
    a = parse_supernatural("2^inf*3")
    b = parse_supernatural("3^2*5")
    assert to_text(mul(a, b)) == "2^inf*3^3*5"


def test_divisibility_and_lattice():
    a = parse_supernatural("2^2*3")
    b = parse_supernatural("2*3^2*5")
    g, l = gcd_lcm(a, b)
    assert to_text(g) == "2*3"
    assert to_text(l) == "2^2*3^2*5"
    assert divides(g, a) and divides(g, b)
    assert divides(a, l) and divides(b, l)
    assert not divides(a, b)
    full = parse_supernatural("2^inf")
    assert divides(parse_supernatural("2^5"), full)


def test_omega_counts():
    s = parse_supernatural("2^inf*3^2*5")
    assert omega(s) == 3


@given(st.integers(min_value=2, max_value=10**6), st.integers(min_value=2, max_value=10**6))
def test_factorization_is_multiplicative(a, b):
    assert rho(a * b) == mul(rho(a), rho(b))


@given(st.integers(min_value=2, max_value=10**9))
def test_round_trip_integer_factorizations(n):
    s = rho(n)
    assert parse_supernatural(to_text(s)) == s
    # recover n from a finite factorization
    back = math.prod(p**e for p, e in s.exponents.items())
    assert back == n


@settings(max_examples=60)
@given(
    st.dictionaries(st.sampled_from([2, 3, 5, 7, 11]),
                    st.one_of(st.integers(min_value=1, max_value=9), st.none()),
                    max_size=4)
)
def test_gcd_lcm_lattice_laws(spec):
    a = SupernaturalNumber({p: (math.inf if e is None else e) for p, e in spec.items()})
    b = parse_supernatural("2^inf*3^2")
    g, l = gcd_lcm(a, b)
    assert divides(g, a) and divides(g, b) and divides(a, l) and divides(b, l)
    g2, l2 = gcd_lcm(b, a)
    assert g == g2 and l == l2
    assert mul(a, b) == mul(g, l) or any(e is None for e in spec.values()) or 2 in spec or 3 in spec
    # the product identity holds whenever no exponent saturates at inf
    if not any(e is None for e in spec.values()):
        finite_b = parse_supernatural("3^2*7")
        g3, l3 = gcd_lcm(a, finite_b)
        assert mul(g3, l3) == mul(a, finite_b)


def test_limit_profile_factorial_divergence():
    seq = [math.factorial(k) for k in range(1, 31)]
    prof = limit_profile(seq, 7, 5)
    assert set(prof.valuations) == {2, 3, 5, 7}
    for p in (2, 3, 5, 7):
        assert prof.status[p] == DIVERGING
    # Legendre oracle at the last term
    for p in (2, 3, 5, 7):
        n, total = 30, 0
        q = p
        while q <= n:
            total += n // q
            q *= p
        assert prof.valuations[p][-1] == total


def test_limit_profile_stabilization():
    seq = [6 * 2**k for k in range(12)]
    prof = limit_profile(seq, 5, 4)
    assert prof.status[3] == STABILIZED
    assert prof.status[5] == STABILIZED
    assert prof.status[2] == DIVERGING


def test_limit_profile_validation():
    with pytest.raises(ValueError):
        limit_profile([], 5, 3)
    with pytest.raises(ValueError):
        limit_profile([1, 0, 2], 5, 3)


def test_limit_profile_budget_raises_before_listing_primes(monkeypatch):
    # a fresh cache: 10^8 may hold more primes than the budget, and the
    # profile refuses with nothing sieved
    monkeypatch.setattr(_primes, "_PRIMES", None)
    monkeypatch.setattr(_primes, "_SIEVE_BOUND", 0)
    seq = [math.factorial(k) for k in range(1, 11)]
    with pytest.raises(BudgetExceeded, match="profile budget 100000"):
        limit_profile(seq, 10**8, 5)
    assert _primes._SIEVE_BOUND == 0
    # the check bounds the prime count by 1.25506 x / log x: 8 primes up to
    # 20 (bound 8.4) fit a budget of 10, 25 up to 100 (bound 27.3) do not
    monkeypatch.setattr(supernatural, "PROFILE_PRIME_BUDGET", 10)
    assert len(limit_profile(seq, 20, 5).valuations) == 8
    with pytest.raises(BudgetExceeded):
        limit_profile(seq, 100, 5)
    assert _primes._SIEVE_BOUND == 0


def test_limit_profile_reads_an_iterator_within_its_work_budget(monkeypatch):
    seq = [math.factorial(k) for k in range(1, 31)]
    assert limit_profile(iter(seq), 7, 5) == limit_profile(seq, 7, 5)
    # 4 primes up to 7: the work is 4 times the terms' total bit length;
    # an endless sequence is refused once that passes the budget
    bits = sum(x.bit_length() for x in seq)
    monkeypatch.setattr(supernatural, "PROFILE_WORK_BUDGET", 4 * bits)
    assert limit_profile(seq, 7, 5).valuations[2][-1] == 26
    with pytest.raises(BudgetExceeded, match="31 terms and the 4 primes up to 7"):
        limit_profile(itertools.accumulate(itertools.count(1), operator.mul), 7, 5)
    # with no prime listed the terms are still held: one unit per bit
    monkeypatch.setattr(supernatural, "PROFILE_WORK_BUDGET", bits)
    assert limit_profile(seq, 1, 5).valuations == {}
    with pytest.raises(BudgetExceeded):
        limit_profile(seq + [31], 1, 5)
