"""The inclusion-exclusion kernel against subset-by-subset enumeration.

Every inclusion-exclusion number zhat prints (multiple-set measures, the
Dirichlet closed form, residue counts of multiple-sets, closed-form
density sums) comes from one kernel: integer coefficients per distinct
lcm, factored over coprime groups of moduli. The reference here is the
plain sum over all 2^t subsets.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zhat import _ie
from zhat._ie import _ie_coefficients, _ie_groups
from zhat._primes import BudgetExceeded
from zhat.analytic import de_delta_bracket, de_delta_exact
from zhat.density import _floor_sums, harmonic
from zhat.measure import multiples_measure_ie, multiples_measure_prefixes
from zhat.setdsl import CountView


def ie_weight(mods, r, alpha, complement=False):
    """The floor-sum weight of !multiples(mods), or of multiples(mods), in
    [1, r] at alpha 0 or -1."""
    return _floor_sums(CountView(moduli=tuple(mods), complement=complement), alpha, [r])[0]


def subset_terms(mods):
    """(sign, lcm) for every subset J of the moduli, the empty one included."""
    return [
        ((-1) ** k, math.lcm(*sub))
        for k in range(len(mods) + 1)
        for sub in combinations(mods, k)
    ]


# moduli up to 60 with repeats, divisibility chains and 1 all allowed
families = st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=9)


@settings(max_examples=120, deadline=None)
@given(families)
def test_coefficients_are_subset_signs_per_lcm(mods):
    ref = Counter()
    for sign, lcm in subset_terms(mods):
        ref[lcm] += sign
    assert _ie_coefficients(mods) == {l: c for l, c in ref.items() if c}


@settings(max_examples=120, deadline=None)
@given(families, st.sampled_from([1, 2]))
def test_multiples_measure_matches_subset_sum(mods, dim):
    ref = sum(Fraction(sign, lcm**dim) for sign, lcm in subset_terms(mods))
    assert multiples_measure_ie(mods, dim) == ref


@settings(max_examples=80, deadline=None)
@given(families, st.sampled_from([1, 2, 3]))
def test_de_delta_exact_integer_s_matches_subset_sum(mods, s):
    ref = sum(Fraction(sign, lcm**s) for sign, lcm in subset_terms(mods))
    assert de_delta_exact(mods, s) == ref
    lo, hi = de_delta_bracket(mods, Fraction(s), digits=12)
    assert lo <= ref <= hi


@settings(max_examples=80, deadline=None)
@given(families, st.sampled_from([1.001, 1.25, 1.5, 2.5]))
def test_de_delta_float_s_matches_subset_sum(mods, s):
    ref = math.fsum(sign * lcm**-s for sign, lcm in subset_terms(mods))
    assert de_delta_exact(mods, s) == pytest.approx(ref, rel=1e-12, abs=1e-15)


@settings(max_examples=120, deadline=None)
@given(families, st.sampled_from([1, 2, 7, 60, 999, 10**4, 10**9, 10**30]))
def test_floor_sums_match_subset_sum(mods, r):
    terms = subset_terms(mods)
    coeffs = _ie_coefficients(mods, bound=r)
    assert all(l <= r for l in coeffs)
    count = sum(c * (r // l) for l, c in coeffs.items())
    assert count == sum(sign * (r // lcm) for sign, lcm in terms)
    assert ie_weight(mods, r, 0.0) == count
    assert ie_weight(mods, r, 0.0, complement=True) == r - count
    ref = math.fsum(sign * harmonic(r // lcm) / lcm for sign, lcm in terms)
    got = ie_weight(mods, r, -1.0)
    assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("mods", [[4, 6], [1, 5], [2, 3, 5, 7], [6, 10, 15], [9, 12, 25, 49, 1]])
def test_floor_sum_counts_non_multiples(mods):
    for r in (1, 5, 59, 600, 2000):
        direct = sum(1 for n in range(1, r + 1) if all(n % a for a in mods))
        assert ie_weight(mods, r, 0.0) == direct, (mods, r)


@settings(max_examples=120, deadline=None)
@given(families)
def test_groups_are_the_coprime_components(mods):
    groups = _ie_groups(mods)
    for top, other in combinations(groups, 2):
        assert math.gcd(top, other) == 1

    def group_of(a):  # 1 divides every lcm: it sits in the group keyed 1
        (top,) = [top for top in groups if (top == 1 if a == 1 else top % a == 0)]
        return top

    last = {group_of(a): i for i, a in enumerate(mods)}
    assert list(groups) == sorted(last, key=last.get)  # a group goes last as its last modulus joins
    for top, coeffs in groups.items():
        members = [a for a in mods if group_of(a) == top]
        assert math.lcm(*members) == top
        assert coeffs == _ie_coefficients(members)
        if top == 1:
            continue
        for k in range(1, len(members)):  # no group splits into coprime parts
            for part in combinations(range(len(members)), k):
                a = math.lcm(*(members[i] for i in part))
                b = math.lcm(*(members[i] for i in range(len(members)) if i not in part))
                assert math.gcd(a, b) > 1


def test_term_budget_raises(monkeypatch):
    monkeypatch.setattr(_ie, "IE_TERM_BUDGET", 64)
    primes = [2, 3, 5, 7, 11, 13, 17]  # 128 distinct lcms
    assert len(_ie_coefficients(primes[:6])) == 64
    with pytest.raises(BudgetExceeded):
        _ie_coefficients(primes)
    # the bound prunes below the budget: squarefree products of these <= 100
    assert len(_ie_coefficients(primes, bound=100)) < 64
    # coprime groups each stay small, so the factored measure is unaffected
    assert multiples_measure_ie(primes) == math.prod(Fraction(p - 1, p) for p in primes)


def test_term_budget_stops_inside_the_fold(monkeypatch):
    monkeypatch.setattr(_ie, "IE_TERM_BUDGET", 64)
    primes = [2, 3, 5, 7, 11, 13, 17, 19]  # the seventh prime would double 64 terms
    with pytest.raises(BudgetExceeded) as exc:
        _ie_coefficients(primes)
    assert str(exc.value) == "inclusion-exclusion over 8 moduli needs more than 64 distinct lcm terms"
    sizes = [len(e.frame.f_locals["nxt"]) for e in exc.traceback
             if e.frame.code.name == "_ie_fold"]
    assert sizes == [64 + 1]


def test_term_budget_checked_before_a_convolution(monkeypatch):
    monkeypatch.setattr(_ie, "IE_TERM_BUDGET", 64)
    # two coprime groups of 32 terms each; 2*17 merges them into 32*32
    mods = [2 * p for p in (3, 5, 7, 11, 13)] + [17 * p for p in (19, 23, 29, 31, 37)]
    assert [len(c) for c in _ie_groups(mods).values()] == [32, 32]
    message = "inclusion-exclusion over 11 moduli needs more than 64 distinct lcm terms"
    for kernel in (_ie_groups, multiples_measure_ie, lambda m: de_delta_exact(m, 1.5),
                   lambda m: de_delta_bracket(m, Fraction(3, 2))):
        with pytest.raises(BudgetExceeded) as exc:
            kernel(mods + [2 * 17])
        assert str(exc.value) == message
        assert exc.traceback[-1].frame.code.name == "_ie_join"


@settings(max_examples=120, deadline=None)
@given(families, st.sampled_from([1, 2]))
def test_prefix_measures_match_per_prefix_calls(mods, dim):
    prefixes = [mods[: i + 1] for i in range(len(mods))]
    got = multiples_measure_prefixes(mods, dim)
    assert got == [multiples_measure_ie(pre, dim) for pre in prefixes]
    assert got == [sum(Fraction(sign, lcm**dim) for sign, lcm in subset_terms(pre))
                   for pre in prefixes]


def test_prefix_measures_of_prime_squares():
    ps = [p for p in range(2, 200) if all(p % q for q in range(2, p))]
    mods = [p * p for p in ps]
    want, acc = [], Fraction(1)
    for p in ps:
        acc *= 1 - Fraction(1, p * p)
        want.append(acc)
    assert multiples_measure_prefixes(mods) == want
    with pytest.raises(ValueError):
        multiples_measure_prefixes([])
    with pytest.raises(ValueError):
        multiples_measure_prefixes([4, 0])
