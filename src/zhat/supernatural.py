"""Supernatural numbers: formal products of prime powers with exponents in
N ∪ {inf}, the factorization map from nonzero integers, and coordinatewise
limit detection for integer sequences.

Only finitely presented elements are representable: the exponent map is a
finite dict and an absent prime means exponent 0. Canonical text form is
``2^inf*3^2*5`` (primes strictly increasing, ``^1`` omitted, empty
product ``1``); parse/print round-trips exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from . import _primes


class ExtNat:
    """A natural number extended with infinity. Immutable, totally ordered;
    infinity absorbs under addition and max."""

    __slots__ = ("_v",)

    def __init__(self, value: "int | ExtNat | None"):
        if isinstance(value, ExtNat):
            self._v = value._v
            return
        if value is not None:
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"ExtNat needs an integer >= 0 or None for inf, got {value!r}")
        self._v = value  # None encodes infinity

    @classmethod
    def inf(cls) -> "ExtNat":
        return cls(None)

    @property
    def is_zero(self) -> bool:
        return self._v == 0

    def to_int(self) -> int:
        if self._v is None:
            raise ValueError("infinite ExtNat has no integer value")
        return self._v

    def __add__(self, other: "ExtNat | int") -> "ExtNat":
        other = other if isinstance(other, ExtNat) else ExtNat(other)
        if self._v is None or other._v is None:
            return ExtNat(None)
        return ExtNat(self._v + other._v)

    __radd__ = __add__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = ExtNat(other)
        if not isinstance(other, ExtNat):
            return NotImplemented
        return self._v == other._v

    def __le__(self, other: "ExtNat | int") -> bool:
        other = other if isinstance(other, ExtNat) else ExtNat(other)
        if other._v is None:
            return True
        if self._v is None:
            return False
        return self._v <= other._v

    def __lt__(self, other: "ExtNat | int") -> bool:
        other = other if isinstance(other, ExtNat) else ExtNat(other)
        return self <= other and self != other

    def __ge__(self, other: "ExtNat | int") -> bool:
        other = other if isinstance(other, ExtNat) else ExtNat(other)
        return other <= self

    def __gt__(self, other: "ExtNat | int") -> bool:
        other = other if isinstance(other, ExtNat) else ExtNat(other)
        return other < self

    def __hash__(self) -> int:
        return hash(("ExtNat", self._v))

    def __repr__(self) -> str:
        return "inf" if self._v is None else str(self._v)


INF = ExtNat.inf()


def _ext_min(a: ExtNat, b: ExtNat) -> ExtNat:
    return a if a <= b else b


def _ext_max(a: ExtNat, b: ExtNat) -> ExtNat:
    return b if a <= b else a


class SupernaturalNumber:
    """∏ p^{e_p} with e_p in N ∪ {inf}, finitely many nonzero exponents."""

    __slots__ = ("_exp",)

    def __init__(self, exponents: Mapping[int, ExtNat | int] | Iterable[tuple[int, ExtNat | int]] = ()):
        items: dict[int, ExtNat] = {}
        pairs = exponents.items() if isinstance(exponents, Mapping) else exponents
        for p, e in pairs:
            e = e if isinstance(e, ExtNat) else ExtNat(e)
            if e.is_zero:
                continue
            if p in items:
                raise ValueError(f"duplicate prime {p}")
            if not _primes.is_prime(p):
                raise ValueError(f"{p} is not prime")
            items[p] = e
        self._exp = tuple(sorted(items.items()))

    @property
    def exponents(self) -> dict[int, ExtNat]:
        return dict(self._exp)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self._exp)

    def v(self, p: int) -> ExtNat:
        """Exponent of p (0 when absent)."""
        for q, e in self._exp:
            if q == p:
                return e
        return ExtNat(0)

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
    out: dict[int, ExtNat] = dict(sigma._exp)
    for p, e in tau._exp:
        out[p] = out[p] + e if p in out else e
    return SupernaturalNumber(out)


def divides(sigma: SupernaturalNumber, tau: SupernaturalNumber) -> bool:
    """sigma | tau iff every exponent of sigma is <= tau's (inf <= inf holds)."""
    return all(e <= tau.v(p) for p, e in sigma._exp)


def gcd_lcm(sigma: SupernaturalNumber, tau: SupernaturalNumber) -> tuple[SupernaturalNumber, SupernaturalNumber]:
    """(exponentwise min, exponentwise max)."""
    support = sorted(set(sigma.support) | set(tau.support))
    g = {p: _ext_min(sigma.v(p), tau.v(p)) for p in support}
    l = {p: _ext_max(sigma.v(p), tau.v(p)) for p in support}
    return SupernaturalNumber(g), SupernaturalNumber(l)


def omega(sigma: SupernaturalNumber) -> ExtNat:
    """Number of distinct primes in the support."""
    return ExtNat(len(sigma._exp))


# ---------------------------------------------------------------- text form

_FACTOR_RE = re.compile(r"^(\d+)(?:\^(inf|\d+))?$")


def to_text(sigma: SupernaturalNumber) -> str:
    if sigma.is_one:
        return "1"
    parts = []
    for p, e in sigma._exp:
        if e == ExtNat(1):
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
    pairs: list[tuple[int, ExtNat]] = []
    for factor in s.split("*"):
        m = _FACTOR_RE.match(factor)
        if not m:
            raise ValueError(f"bad factor {factor!r} in supernatural literal {text!r}")
        p = int(m.group(1))
        exp_txt = m.group(2)
        e = INF if exp_txt == "inf" else ExtNat(int(exp_txt) if exp_txt else 1)
        if e.is_zero:
            raise ValueError(f"zero exponent on {p} in {text!r}")
        pairs.append((p, e))
    return SupernaturalNumber(pairs)


# ----------------------------------------------------------- limit profiles

STABILIZED = "stabilized"
DIVERGING = "diverging"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ValuationProfile:
    """Per-prime valuations of an integer sequence plus window flags.

    The flags only claim behaviour over the inspected window: ``stabilized``
    means constant over the last K terms; ``diverging`` means nondecreasing
    over the whole sequence with strict growth inside the window (a
    divergence-to-inf witness, never a proof)."""

    prime_bound: int
    window: int
    valuations: dict[int, tuple[int, ...]] = field(default_factory=dict)
    status: dict[int, str] = field(default_factory=dict)


def limit_profile(seq: Sequence[int] | Iterable[int], prime_bound: int, window: int) -> ValuationProfile:
    """Valuation trajectories v_p(x_k) for p <= prime_bound over a sequence,
    with stabilization/divergence flags judged on the last ``window`` terms."""
    if prime_bound < 1 or window < 1:
        raise ValueError("prime bound and window must be >= 1")
    terms = [int(x) for x in seq]
    if not terms:
        raise ValueError("empty sequence")
    if any(x == 0 for x in terms):
        raise ValueError("sequence terms must be nonzero")
    primes = [int(p) for p in _primes.primes_upto(prime_bound)]
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
