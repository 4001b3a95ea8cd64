"""Supernatural numbers: formal products of prime powers with exponents in
N ∪ {inf}, the factorization map from nonzero integers, and coordinatewise
limit detection for integer sequences.

An exponent is a plain Python value, an ``int >= 0`` or ``math.inf``, so
order, sums, min and max are the built-in ones. Only finitely presented
elements are representable: the exponent map is a finite dict and an absent
prime means exponent 0. Canonical text form is
``2^inf*3^2*5`` (primes strictly increasing, ``^1`` omitted, empty
product ``1``); parse/print round-trips exactly.
"""

from __future__ import annotations

import math
import re
from itertools import takewhile
from typing import Iterable, Mapping, Sequence

from . import _primes


class SupernaturalNumber:
    """∏ p^{e_p} with e_p in N ∪ {inf}, finitely many nonzero exponents."""

    __slots__ = ("_exp",)

    def __init__(self, exponents: Mapping[int, int | float] | Iterable[tuple[int, int | float]] = ()):
        items: dict[int, int | float] = {}
        pairs = exponents.items() if isinstance(exponents, Mapping) else exponents
        for p, e in pairs:
            # inf + inf is a new float object: compare with ==, not is
            if not ((type(e) is int and e >= 0) or e == math.inf):
                raise ValueError(f"exponent needs an integer >= 0 or math.inf, got {e!r}")
            if e == 0:
                continue
            if p in items:
                raise ValueError(f"duplicate prime {p}")
            if not _primes.is_prime(p):
                raise ValueError(f"{p} is not prime")
            items[p] = e
        self._exp = tuple(sorted(items.items()))

    @property
    def exponents(self) -> dict[int, int | float]:
        return dict(self._exp)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self._exp)

    def v(self, p: int) -> int | float:
        """Exponent of p (0 when absent)."""
        for q, e in self._exp:
            if q == p:
                return e
        return 0

    @property
    def is_one(self) -> bool:
        return not self._exp

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SupernaturalNumber):
            return NotImplemented
        return self._exp == other._exp

    def __hash__(self) -> int:
        return hash(self._exp)

    def __mul__(self, other: "SupernaturalNumber") -> "SupernaturalNumber":
        return mul(self, other)

    def __repr__(self) -> str:
        return f"SupernaturalNumber({to_text(self)!r})"

    def __str__(self) -> str:
        return to_text(self)


def rho(k: int) -> SupernaturalNumber:
    """Factorization of a nonzero integer as a supernatural number (of |k|)."""
    if k == 0:
        raise ValueError("rho(0) is the zero ideal, not representable as a supernatural number")
    return SupernaturalNumber(_primes.factorize(k))


def mul(sigma: SupernaturalNumber, tau: SupernaturalNumber) -> SupernaturalNumber:
    out: dict[int, int | float] = dict(sigma._exp)
    for p, e in tau._exp:
        out[p] = out[p] + e if p in out else e
    return SupernaturalNumber(out)


def divides(sigma: SupernaturalNumber, tau: SupernaturalNumber) -> bool:
    """sigma | tau iff every exponent of sigma is <= tau's (inf <= inf holds)."""
    return all(e <= tau.v(p) for p, e in sigma._exp)


def gcd_lcm(sigma: SupernaturalNumber, tau: SupernaturalNumber) -> tuple[SupernaturalNumber, SupernaturalNumber]:
    """(exponentwise min, exponentwise max)."""
    support = sorted(set(sigma.support) | set(tau.support))
    g = {p: min(sigma.v(p), tau.v(p)) for p in support}
    l = {p: max(sigma.v(p), tau.v(p)) for p in support}
    return SupernaturalNumber(g), SupernaturalNumber(l)


def omega(sigma: SupernaturalNumber) -> int:
    """Number of distinct primes in the support."""
    return len(sigma._exp)


# ---------------------------------------------------------------- text form

_FACTOR_RE = re.compile(r"^(\d+)(?:\^(inf|\d+))?$")


def to_text(sigma: SupernaturalNumber) -> str:
    if sigma.is_one:
        return "1"
    parts = []
    for p, e in sigma._exp:
        if e == 1:
            parts.append(str(p))
        else:
            parts.append(f"{p}^{e!r}")
    return "*".join(parts)


def parse_supernatural(text: str) -> SupernaturalNumber:
    s = text.strip().replace(" ", "")
    if s == "1":
        return SupernaturalNumber()
    if not s:
        raise ValueError("empty supernatural literal")
    pairs: list[tuple[int, int | float]] = []
    for factor in s.split("*"):
        m = _FACTOR_RE.match(factor)
        if not m:
            raise ValueError(f"bad factor {factor!r} in supernatural literal {text!r}")
        p = int(m.group(1))
        exp_txt = m.group(2)
        e = math.inf if exp_txt == "inf" else int(exp_txt) if exp_txt else 1
        if e == 0:
            raise ValueError(f"zero exponent on {p} in {text!r}")
        pairs.append((p, e))
    return SupernaturalNumber(pairs)


# ----------------------------------------------------------- limit profiles

# most primes one profile lists: a listed prime costs about 2 KB of peak
# RSS (its trajectory, its report row and its JSON), so the report stays
# near 200 MB
PROFILE_PRIME_BUDGET = 10**5

# most work one profile may spend: the terms' total bit length times the
# number of listed primes. Valuations of factorials by small primes run
# slowest, about 6 * 10^7 of these units a second on a 2-vCPU Xeon (the
# first 4000 factorials and the primes up to 7 make 3.1 * 10^8, 5 s), so a
# profile within budget takes at most about 8 s, and the terms it holds at
# most 5 * 10^8 bits
PROFILE_WORK_BUDGET = 5 * 10**8

STABILIZED = "stabilized"
DIVERGING = "diverging"
INCONCLUSIVE = "inconclusive"


class ValuationProfile:
    """Per-prime valuations of an integer sequence plus window flags.

    The flags only claim behaviour over the inspected window: ``stabilized``
    means constant over the last K terms; ``diverging`` means nondecreasing
    over the whole sequence with strict growth inside the window (a
    divergence-to-inf witness, never a proof). A plain class, so that
    ``sn`` loads neither dataclasses nor inspect."""

    def __init__(self, prime_bound: int, window: int,
                 valuations: dict[int, tuple[int, ...]], status: dict[int, str]):
        self.prime_bound = prime_bound
        self.window = window
        self.valuations = valuations
        self.status = status

    def __eq__(self, other) -> bool:
        return isinstance(other, ValuationProfile) and vars(self) == vars(other)


def limit_profile(seq: Sequence[int] | Iterable[int], prime_bound: int, window: int) -> ValuationProfile:
    """Valuation trajectories v_p(x_k) for p <= prime_bound over a sequence,
    with stabilization/divergence flags judged on the last ``window`` terms."""
    if prime_bound < 1 or window < 1:
        raise ValueError("prime bound and window must be >= 1")
    # pi(x) < 1.25506 x / log x for x > 1 (Rosser and Schoenfeld, Illinois
    # J. Math. 6, 1962, Corollary 1): checked before a prime is listed
    if prime_bound > 1 and prime_bound > PROFILE_PRIME_BUDGET * math.log(prime_bound) / 1.25506:
        raise _primes.BudgetExceeded(
            f"primes up to {prime_bound} may number more than the profile budget "
            f"{PROFILE_PRIME_BUDGET}"
        )
    primes = list(takewhile(lambda p: p <= prime_bound, _primes.iter_primes()))
    # the terms are held and each listed prime takes one valuation of each,
    # so the work is the terms' total bit length times the prime count (one
    # at least), summed as the terms are generated and before any valuation
    terms, work = [], 0
    for x in map(int, seq):
        if x == 0:
            raise ValueError("sequence terms must be nonzero")
        work += x.bit_length() * max(1, len(primes))
        if work > PROFILE_WORK_BUDGET:
            raise _primes.BudgetExceeded(
                f"{len(terms) + 1} terms and the {len(primes)} primes up to {prime_bound} "
                f"exceed the profile work budget {PROFILE_WORK_BUDGET} (bits times primes)"
            )
        terms.append(x)
    if not terms:
        raise ValueError("empty sequence")
    valuations: dict[int, tuple[int, ...]] = {}
    status: dict[int, str] = {}
    k = min(window, len(terms))
    for p in primes:
        vals = tuple(_primes.valuation(x, p) for x in terms)
        tail = vals[-k:]
        if len(set(tail)) == 1:
            status[p] = STABILIZED
        elif all(a <= b for a, b in zip(vals, vals[1:])) and tail[-1] > tail[0]:
            status[p] = DIVERGING
        else:
            status[p] = INCONCLUSIVE
        valuations[p] = vals
    return ValuationProfile(prime_bound=prime_bound, window=k, valuations=valuations, status=status)
