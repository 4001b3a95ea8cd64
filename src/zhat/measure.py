"""Haar measure on the profinite completion: finite-level measures, monotone
measure traces along divisibility chains, inclusion-exclusion for sets of
multiples, and certified brackets for Euler products and zeta values.

The normalization gives the whole ring measure 1, so a coset of the ideal
generated by m in dimension n has measure m^(-n). For a definable set X the
level measures |pi_m(X)| / m^n decrease along divisibility chains and
converge to the measure of the closure of X.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _primes
from .setdsl import (
    EXACT,
    TRUNCATED,
    BudgetExceeded,
    CompiledSet,
    DslValueError,
    _ie_measure,
    _ie_prefix_measures,
)

# widen float-evaluated brackets so rounding in long sums and products cannot
# push a true value across an endpoint; numpy reduces pairwise, so relative
# error stays within a few hundred ulp even at 10^8 terms
_FLOAT_GUARD = 1e-12


class ChainError(ValueError):
    pass


# ------------------------------------------------------------- chains

PRIMORIAL = "primorial"
FACTORIAL = "factorial"
PRIMORIAL_POWER = "primorial-power"
EXPLICIT = "explicit"


@dataclass(frozen=True)
class ModulusChain:
    """A strict divisibility chain m_1 | m_2 | ... used as the parameter set
    of a measure trace. The non-explicit kinds eventually absorb every
    prime."""

    kind: str
    power: int = 1
    moduli: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in (PRIMORIAL, FACTORIAL, PRIMORIAL_POWER, EXPLICIT):
            raise ChainError(f"unknown chain kind {self.kind!r}")
        if self.kind == PRIMORIAL_POWER and self.power < 1:
            raise ChainError("primorial power must be >= 1")
        if self.kind == EXPLICIT:
            mods = self.moduli
            if not mods:
                raise ChainError("explicit chain needs at least one level")
            for a, b in zip(mods, mods[1:]):
                if b <= a or b % a != 0:
                    raise ChainError(f"chain not strictly divisible at {a} -> {b}")

    @staticmethod
    def primorial() -> "ModulusChain":
        return ModulusChain(PRIMORIAL)

    @staticmethod
    def factorial() -> "ModulusChain":
        return ModulusChain(FACTORIAL)

    @staticmethod
    def primorial_power(k: int) -> "ModulusChain":
        return ModulusChain(PRIMORIAL_POWER, power=k)

    @staticmethod
    def explicit(moduli) -> "ModulusChain":
        return ModulusChain(EXPLICIT, moduli=tuple(moduli))

    def levels(self, cutoff: int) -> list[int]:
        """Chain levels not exceeding cutoff (explicit chains return their
        prefix under the cutoff)."""
        if cutoff < 1:
            raise ChainError("cutoff must be >= 1")
        if self.kind == EXPLICIT:
            out = [m for m in self.moduli if m <= cutoff]
        elif self.kind == FACTORIAL:
            out, k, acc = [], 2, 2
            while acc <= cutoff:
                out.append(acc)
                k += 1
                acc *= k
        else:
            k = self.power if self.kind == PRIMORIAL_POWER else 1
            out, acc = [], 1
            for p in _primes.iter_primes():
                acc *= int(p) ** k
                if acc > cutoff:
                    break
                out.append(acc)
        if not out:
            raise ChainError(f"no chain level fits under cutoff {cutoff}")
        return out


# ------------------------------------------------------------- brackets


@dataclass(frozen=True)
class Bracket:
    """An interval certified (or flagged otherwise) to contain a value."""

    lo: float
    hi: float
    certified: bool
    cutoff: int
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"bracket endpoints out of order: {self.lo} > {self.hi}")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def to_json(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "certified": self.certified, "cutoff": self.cutoff}


# ------------------------------------------------------------- traces


@dataclass(frozen=True)
class LevelMeasure:
    level_index: int
    modulus: int
    residue_count: int
    measure: Fraction
    mode: str


@dataclass(frozen=True)
class MeasureTrace:
    chain: ModulusChain
    dim: int
    records: tuple[LevelMeasure, ...]
    mode: str
    notes: tuple[str, ...] = ()

    @property
    def certified(self) -> bool:
        return self.mode == EXACT

    def values(self) -> list[Fraction]:
        return [r.measure for r in self.records]

    def floats(self) -> list[float]:
        return [float(r.measure) for r in self.records]

    def last(self) -> Fraction:
        return self.records[-1].measure

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("level_index,modulus,residue_count,measure_num,measure_den,measure_float,mode\n")
        for r in self.records:
            buf.write(
                f"{r.level_index},{r.modulus},{r.residue_count},"
                f"{r.measure.numerator},{r.measure.denominator},"
                f"{float(r.measure):.12g},{r.mode}\n"
            )
        return buf.getvalue()


def haar_ideal(m: int, n: int) -> Fraction:
    """Measure of a coset of (m) in dimension n: exactly m^(-n)."""
    if m < 1:
        raise DslValueError("modulus must be >= 1")
    if n < 1:
        raise DslValueError("dimension must be >= 1")
    return Fraction(1, m**n)


def closure_measure_trace(cset: CompiledSet, chain: ModulusChain, cutoff: int,
                          truncation: int | None = None) -> MeasureTrace:
    """Level measures |pi_m(X)| / m^n along the chain. Exact-mode values
    are certified upper bounds for the closure measure and nonincreasing;
    truncated-mode values are uncertified lower bounds for the level
    measure. Running out of budget yields a partial trace plus a note."""
    records: list[LevelMeasure] = []
    notes: list[str] = []
    for idx, m in enumerate(chain.levels(cutoff), start=1):
        try:
            if cset.mode == EXACT:
                count = cset.residue_count(m)
            else:
                count = cset.residue_image(m, truncation).count
        except BudgetExceeded as e:
            notes.append(f"stopped before level {idx} (m={m}): {e}")
            break
        records.append(
            LevelMeasure(idx, m, count, Fraction(count, m**cset.dim), cset.mode)
        )
    if not records:
        raise BudgetExceeded(notes[0] if notes else "no level computed")
    if cset.mode == TRUNCATED:
        notes.append("UNCERTIFIED: truncated images give lower bounds for level measures")
    return MeasureTrace(chain, cset.dim, tuple(records), cset.mode, tuple(notes))


def _positive_moduli(moduli) -> tuple[int, ...]:
    mods = tuple(moduli)
    if not mods:
        raise DslValueError("need at least one modulus")
    if any(a < 1 for a in mods):
        raise DslValueError("moduli must be positive")
    return mods


def multiples_measure_ie(moduli, dim: int = 1) -> Fraction:
    """Exact measure of the closure of the complement of a finite union of
    multiple-sets, by inclusion-exclusion: sum over subsets J of
    (-1)^|J| / lcm(J)^dim, the empty subset contributing 1."""
    return _ie_measure(_positive_moduli(moduli), dim)


def multiples_measure_prefixes(moduli, dim: int = 1) -> list[Fraction]:
    """multiples_measure_ie of moduli[:1], moduli[:2], ..., built one
    coprime-group update per modulus instead of one kernel call each."""
    prefixes = _ie_prefix_measures(_positive_moduli(moduli), dim)
    next(prefixes)  # the empty family
    return [Fraction(num, den) for num, den in prefixes]


def euler_product(local_factor: str, prime_cutoff: int, tail_exponent: int | None = None) -> Bracket:
    """Bracket for a product over all primes of factors 1 - c/p^k, given as
    text like "1-1/p^2" or "1" (c defaults to 1, k to 1).

    The partial product over p <= cutoff is an upper bound since every
    factor lies in [0,1]. For k >= 2 the tail is bounded below through
    log(1-x) >= -2x and an integral comparison, giving a certified bracket.
    k = 1 has a divergent tail: the bracket is [0, partial] with a
    DIVERGENT-TAIL note."""
    c, k = _parse_local_factor(local_factor)
    if tail_exponent is not None and tail_exponent != k:
        raise DslValueError(f"tail exponent {tail_exponent} does not match factor {local_factor!r}")
    if prime_cutoff < 2:
        raise DslValueError("prime cutoff must be >= 2")
    if c == 0:
        return Bracket(1.0, 1.0, True, prime_cutoff)
    if c * 1.0 > 2.0**k:
        raise DslValueError(f"factor {local_factor!r} is negative at p=2")
    ps = _primes.primes_upto(prime_cutoff).astype(np.float64)
    factors = 1.0 - c * ps ** (-float(k))
    partial = float(np.prod(factors))
    if k == 1:
        return Bracket(0.0, partial * (1.0 + _FLOAT_GUARD), True, prime_cutoff,
                       notes=("DIVERGENT-TAIL",))
    # need c/p^k <= 1/2 beyond the cutoff for the log(1-x) >= -2x step
    if 2 * c > prime_cutoff**k:
        raise DslValueError("cutoff too small for the tail bound with this factor")
    tail_log_lo = -2.0 * c * prime_cutoff ** (1 - k) / (k - 1)
    lo = partial * math.exp(tail_log_lo) * (1.0 - _FLOAT_GUARD)
    hi = partial * (1.0 + _FLOAT_GUARD)
    return Bracket(lo, hi, True, prime_cutoff)


def _parse_local_factor(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"\s*1\s*(?:-\s*(?:(\d+)\s*/\s*)?p\s*(?:\^\s*(\d+))?\s*)?", text)
    if not m:
        raise DslValueError(
            f"cannot parse local factor {text!r}; expected '1' or '1-c/p^k'"
        )
    if m.group(1) is None and "p" not in text:
        return 0, 1
    # "1-p^k" without a slash is rejected: the factor must shrink with p
    if "/" not in text and "p" in text:
        raise DslValueError(f"local factor {text!r} must divide by a power of p")
    c = int(m.group(1)) if m.group(1) else 1
    k = int(m.group(2)) if m.group(2) else 1
    return c, k


def zeta_bracket(s: float, cutoff: int) -> Bracket:
    """Certified bracket for the zeta value at real s > 1 from the partial
    sum to the cutoff plus integral-comparison tail bounds."""
    if s <= 1:
        raise DslValueError(f"zeta bracket needs s > 1, got {s}")
    if cutoff < 2:
        raise DslValueError("cutoff must be >= 2")
    terms = np.arange(1, cutoff + 1, dtype=np.float64) ** (-float(s))
    partial = float(terms.sum())
    lo = partial + (cutoff + 1) ** (1.0 - s) / (s - 1.0)
    hi = partial + cutoff ** (1.0 - s) / (s - 1.0)
    guard = _FLOAT_GUARD * max(1.0, abs(hi))
    return Bracket(lo - guard, hi + guard, True, cutoff)
