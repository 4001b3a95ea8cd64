"""The one inclusion-exclusion (IE) kernel: integer coefficients per
distinct lcm of a modulus family, factored over coprime groups of moduli,
and the exact Haar measures of complements of sets of multiples it gives.
measure.multiples_measure_ie is its public entry.

Pure integer and rational arithmetic on the standard library: it sits at
the numpy-free bottom of the import graph with _primes, below _counts,
measure, analytic and density, which all run it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

from ._primes import BudgetExceeded

# most distinct-lcm terms one kernel call may hold: as many as 20 moduli
# have subsets
IE_TERM_BUDGET = 2**20


def _ie_coefficients(moduli, bound: int | None = None) -> dict[int, int]:
    """Inclusion-exclusion over the subsets J of the moduli, collected per
    distinct lcm: {l: c} with c the sum of (-1)^|J| over the J with
    lcm(J) = l, zero coefficients dropped. Then the sum over subsets of
    (-1)^|J| f(lcm J) is the sum of c * f(l). Moduli fold in one at a
    time. With a bound, lcms above it are dropped as they appear; their
    later multiples would exceed it too."""
    coeffs = {1: 1}
    for a in moduli:
        coeffs = _ie_fold(coeffs, a, math.lcm, _ie_over_budget(len(moduli)), bound)
    return coeffs


def _ie_fold(coeffs: dict, item, meet, over_budget: BudgetExceeded, bound: int | None = None) -> dict:
    """The coefficients with one more item: each term t gains the term
    meet(t, item) with the opposite sign, none when meet gives None (an
    empty intersection) or, with a bound, a meet above it. Raises
    over_budget as soon as the new dict holds more than IE_TERM_BUDGET
    terms."""
    nxt = dict(coeffs)
    for t, c in coeffs.items():
        k = meet(t, item)
        if k is None or bound is not None and k > bound:
            continue
        v = nxt.get(k, 0) - c
        if v:
            nxt[k] = v
            if len(nxt) > IE_TERM_BUDGET:
                raise over_budget
        else:
            del nxt[k]
    return nxt


def _ie_over_budget(family_size: int) -> BudgetExceeded:
    return BudgetExceeded(f"inclusion-exclusion over {family_size} moduli needs more than "
                          f"{IE_TERM_BUDGET} distinct lcm terms")


def _ie_join(groups: dict[int, dict[int, int]], a: int, family_size: int) -> list[int]:
    """Add the modulus a to the coprime groups {group lcm: _ie_coefficients
    of the group's moduli}, in place, and return the lcms of the groups it
    merged: those whose lcm shares a prime with a (the group keyed 1 takes
    every modulus 1). Moduli in different groups are coprime, so a subset's
    lcm is the product of its parts' lcms and the merged coefficient dicts
    convolve, l*l' taking c*c', with no two products equal. Then a folds
    in and the new group goes last, after the groups that keep their
    places. A sum over subsets of a term multiplicative in the lcm is the
    product of one sum per group. Raises BudgetExceeded before a
    convolution of more than IE_TERM_BUDGET terms."""
    merged = [top for top in groups if math.gcd(top, a) > 1 or top == a]
    coeffs = {1: 1}
    for top in merged:
        part = groups.pop(top)
        if len(coeffs) * len(part) > IE_TERM_BUDGET:
            raise _ie_over_budget(family_size)
        coeffs = {l * k: c * d for l, c in coeffs.items() for k, d in part.items()}
    groups[math.lcm(a, *merged)] = _ie_fold(coeffs, a, math.lcm, _ie_over_budget(family_size))
    return merged


def _ie_groups(moduli) -> dict[int, dict[int, int]]:
    """The coprime groups of the moduli, built by _ie_join one modulus at a
    time: {group lcm: inclusion-exclusion coefficients of its moduli}."""
    groups: dict[int, dict[int, int]] = {}
    for a in moduli:
        _ie_join(groups, a, len(moduli))
    return groups


def _ie_measure(moduli, dim: int = 1) -> Fraction:
    """Sum over subsets J of the moduli of (-1)^|J| / lcm(J)^dim: the Haar
    measure of the closure of the integers (in dimension dim) that are
    multiples of none of them. Exact, one factor per coprime group."""
    *_, (num, den) = _ie_prefix_measures(moduli, dim)
    return Fraction(num, den)


def _ie_prefix_measures(moduli, dim: int = 1) -> Iterator[tuple[int, int]]:
    """(numerator, denominator) of _ie_measure for every prefix of the
    moduli, the empty one first, at one _ie_join per modulus: the running
    product swaps the merged groups' factors for the new group's. The only
    zero factor is the group keyed 1's, which merges with nothing but
    moduli 1; it stays out of the running product, so the exact divisions
    never meet a zero, and every prefix holding a 1 measures 0."""
    groups: dict[int, dict[int, int]] = {}
    factors: dict[int, int] = {}  # numerator of each group's factor, but the group keyed 1
    num, den = 1, 1
    yield num, den
    for a in moduli:
        for top in _ie_join(groups, a, len(moduli)):
            num //= factors.pop(top, 1)
            den //= top**dim
        top, coeffs = next(reversed(groups.items()))
        if top > 1:
            factors[top] = sum(c * (top // l) ** dim for l, c in coeffs.items())
            num *= factors[top]
        den *= top**dim
        yield (0 if 1 in groups else num), den

