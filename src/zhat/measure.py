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
from fractions import Fraction
from itertools import islice, takewhile
from typing import TYPE_CHECKING

from . import _primes
# numpy and the set layer are imported by the functions that run them, so
# `zhat measure --multiples` loads neither
from ._ie import _ie_measure, _ie_prefix_measures
from ._primes import BudgetExceeded, DslValueError, Record

if TYPE_CHECKING:
    from .setdsl import CompiledSet

# Float brackets carry a-priori rounding bounds in the style of Higham,
# "Accuracy and Stability of Numerical Algorithms" (2002), ch. 3-4: a value
# computed through k roundings is x(1 + theta_k) with |theta_k| <= gamma_k,
# so |x - computed| <= gamma_2k |computed|. Endpoints are then moved one
# float outward with nextafter, which also absorbs the rounding of the
# bounds themselves (they sit far below an ulp of the endpoint).
_U = 2.0**-53  # unit roundoff of float64
# pow, exp, log1p and expm1 (numpy and libm) are taken to be within 4 ulp,
# i.e. 8 unit roundoffs; np.power measures under 0.6 ulp on x86-64 AVX-512
_LIB_UNITS = 8
# absolute error of one library result in the subnormal range (4 ulp of
# 2^-1074), where the relative model above does not hold
_TINY = 2.0**-1072
# power sums read the mask this many integers at a time: each term then
# passes through fewer than _BLOCK additions (numpy's sum of one block, any
# order, then one correctly rounded math.fsum over the block sums)
_BLOCK = 1 << 16


def _gamma(k: int) -> float:
    return k * _U / (1.0 - k * _U)


def _err(x: float, units: int) -> float:
    """Bound on |exact - x| for x computed through `units` roundings."""
    return abs(x) * _gamma(2 * units)


def _down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _sum_error(total: float, term_rel: float, depth: int, tiny: float) -> float:
    """Bound on |exact - total| for a float sum of same-sign terms, each
    computed with relative error at most term_rel and passed through at
    most `depth` additions: every term is perturbed by a factor within
    eta = term_rel + gamma_depth (1 + term_rel) of 1, whatever the order
    (Higham 2002, section 4.2), and same signs make the perturbations add
    to at most eta |exact|. `tiny` is the absolute underflow allowance."""
    eta = term_rel + _gamma(depth) * (1.0 + term_rel)
    return eta * abs(total) / (1.0 - eta) + tiny


class ChainError(ValueError):
    pass


# ------------------------------------------------------------- chains

PRIMORIAL = "primorial"
FACTORIAL = "factorial"
PRIMORIAL_POWER = "primorial-power"
EXPLICIT = "explicit"


class ModulusChain(Record):
    """A strict divisibility chain m_1 | m_2 | ... used as the parameter set
    of a measure trace. The non-explicit kinds eventually absorb every
    prime."""

    _fields = ("kind", "power", "moduli")
    _defaults = (1, ())

    def _check(self):
        if self.kind not in (PRIMORIAL, FACTORIAL, PRIMORIAL_POWER, EXPLICIT):
            raise ChainError(f"unknown chain kind {self.kind!r}")
        if self.kind == PRIMORIAL_POWER and self.power < 1:
            raise ChainError("primorial power must be >= 1")
        if self.kind == EXPLICIT:
            mods = self.moduli
            if not mods:
                raise ChainError("explicit chain needs at least one level")
            if min(mods) < 1:
                raise ChainError("explicit chain moduli must be >= 1")
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
        """Chain levels not exceeding cutoff: the named sequences'
        primorials (to the chain's power) or factorials from 2! on, or the
        explicit moduli, which increase."""
        if cutoff < 1:
            raise ChainError("cutoff must be >= 1")
        if self.kind == EXPLICIT:
            terms = self.moduli
        elif self.kind == FACTORIAL:
            terms = islice(_primes.sequence_terms("factorials"), 1, None)  # from 2! on
        else:
            k = self.power if self.kind == PRIMORIAL_POWER else 1
            terms = (m**k for m in _primes.sequence_terms("primorials"))
        out = list(takewhile(lambda m: m <= cutoff, terms))
        if not out:
            raise ChainError(f"no chain level fits under cutoff {cutoff}")
        return out


# ------------------------------------------------------------- brackets


class Bracket(Record):
    """An interval certified (or flagged otherwise) to contain a value."""

    _fields = ("lo", "hi", "certified", "cutoff", "notes")
    _defaults = ((),)

    def _check(self):
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


class LevelMeasure(Record):
    _fields = ("level_index", "modulus", "residue_count", "measure", "mode")


class MeasureTrace(Record):
    _fields = ("chain", "dim", "records", "mode", "notes")
    _defaults = ((),)

    @property
    def certified(self) -> bool:
        from .setdsl import EXACT

        return self.mode == EXACT

    def values(self) -> list[Fraction]:
        return [r.measure for r in self.records]

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
    measure. Running out of budget yields a partial trace plus a note; so
    does a set whose exact images rest on Dirichlet's theorem (primes)."""
    from .setdsl import ASSUMES_DIRICHLET, EXACT, TRUNCATED

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
    if cset.mode == EXACT and ASSUMES_DIRICHLET in cset.assumptions:
        notes.append("ASSUMES Dirichlet's theorem: the exact images count every unit class "
                     "mod m as holding a prime")
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


def euler_product(local_factor: str, prime_cutoff: int) -> Bracket:
    """Bracket for a product over all primes of factors 1 - c/p^k, given as
    text like "1-1/p^2" or "1" (c defaults to 1, k to 1).

    The partial product over p <= cutoff is an upper bound since every
    factor lies in [0,1]. It is evaluated as exp of the sum of
    log1p(-c/p^k), with a rounding bound on that sum, and rounded outward.
    The primes come from the prime stream, one sieve segment at a time,
    refilled into one buffer of _BLOCK primes across segment boundaries:
    each numpy sum reads the primes that a whole table cut every _BLOCK
    primes would give it, and memory stays one block wide at any cutoff
    up to the box budget. Past it BudgetExceeded is raised before
    anything is sieved.
    For k >= 2 the tail is bounded below through log(1-x) >= -2x and an
    integral comparison, giving a certified bracket. k = 1 has a divergent
    tail: the bracket is [0, partial] with a DIVERGENT-TAIL note."""
    c, k = _parse_local_factor(local_factor)
    if prime_cutoff < 2:
        raise DslValueError("prime cutoff must be >= 2")
    if c == 0:
        return Bracket(1.0, 1.0, True, prime_cutoff)
    if k < 1:
        raise DslValueError(f"factor {local_factor!r} needs an exponent >= 1")
    if c > 2**k:
        raise DslValueError(f"factor {local_factor!r} is negative at p=2")
    if c == 2**k:  # the factor at p=2 vanishes
        return Bracket(0.0, 0.0, True, prime_cutoff)
    # -c/p^k takes a pow, the conversion of c and a product: 10 roundings.
    # Every |x| is at most xm < 1, and |x| <= |log1p(x)| on (-1, 0], so
    # log1p moves a relative error of x by at most a factor 1/(1 - xm)
    xm = c / 2**k * (1.0 + _gamma(_LIB_UNITS + 3))
    if xm >= 1.0:
        raise DslValueError(f"factor {local_factor!r} is too close to 0 at p=2 for a float bracket")
    import numpy as np

    parts, count = [], 0
    for x in _refill(_primes._prime_stream(2, prime_cutoff), np.empty(_BLOCK)):
        count += x.size
        np.power(x, -float(k), out=x)
        x *= -float(c)
        np.log1p(x, out=x)
        parts.append(float(x.sum()))
    log_partial = math.fsum(parts)
    a, b = _gamma(_LIB_UNITS + 2) / (1.0 - xm), _gamma(_LIB_UNITS)
    err = _sum_error(log_partial, a + b + a * b, min(count, _BLOCK), count * (c + 1) * _TINY)
    hi = _exp_up(_up(log_partial + err))
    if k == 1:
        return Bracket(0.0, hi, True, prime_cutoff, notes=("DIVERGENT-TAIL",))
    # need c/p^k <= 1/2 beyond the cutoff for the log(1-x) >= -2x step
    if 2 * c > prime_cutoff**k:
        raise DslValueError("cutoff too small for the tail bound with this factor")
    # 2c P^(1-k) / (k-1) as one correctly rounded integer quotient
    tail = _up(2 * c / ((k - 1) * prime_cutoff ** (k - 1)))
    lo = _exp_down(_down(_down(log_partial - err) - tail))
    return Bracket(lo, hi, True, prime_cutoff)


def _refill(blocks, buf: np.ndarray):
    """The items of the arrays in blocks, in order, as views of buf
    refilled to buf.size items at a time across block boundaries, the
    last view shorter; the caller may overwrite each view."""
    fill = 0
    for block in blocks:
        while block.size:
            take = min(buf.size - fill, block.size)
            buf[fill:fill + take] = block[:take]
            block, fill = block[take:], fill + take
            if fill == buf.size:
                yield buf
                fill = 0
    if fill:
        yield buf[:fill]


def _exp_up(y: float) -> float:
    v = math.exp(y)
    return _up(v + _err(v, _LIB_UNITS) + _TINY)


def _exp_down(y: float) -> float:
    v = math.exp(y)
    return max(0.0, _down(v - _err(v, _LIB_UNITS)))


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


# ------------------------------------------------------------- power sums


def masked_power_sums(mask, s_grid) -> tuple[np.ndarray, np.ndarray]:
    """Sums of k^(-s) over the k >= 1 with mask[k] set, for every s of the
    grid, each with a bound on its rounding error. A numeric (non-boolean)
    array is a table of nonnegative weights instead: the sums are then of
    mask[k] k^(-s), the weights are taken as exact and each product counts
    one more rounding. Index 0 is never read.

    mask may also be an iterable of (lo, table) blocks, table[i] holding
    the integer lo + i (CompiledSet.blocks), read as one table; cells
    below 1 are skipped. One pass of _chunk_power_sums, whose chunk sums
    are added by math.fsum, so extra memory stays a few chunks wide.
    Blocks that start at 1 + j * _BLOCK chunk exactly like the array, so
    their sums are the same floats."""
    import numpy as np

    ss = [float(s) for s in s_grid]
    blocks = [(0, mask)] if isinstance(mask, np.ndarray) else mask
    tally = _Tally()
    parts: list[list[float]] = [[] for _ in ss]
    for _, _, chunk_sums in _chunk_power_sums(blocks, ss, tally):
        for part, t in zip(parts, chunk_sums):
            part.append(t)
    sums = np.array([math.fsum(part) for part in parts])
    depth = min(tally.count, _BLOCK)
    # a product in the subnormal range errs by at most half of 2^-1074
    tiny = (tally.mass + tally.count if tally.weighted else tally.count) * _TINY
    term_rel = _gamma(_LIB_UNITS + tally.weighted)
    bounds = np.array([_sum_error(t, term_rel, depth, tiny) for t in sums])
    return sums, bounds


class _Tally(Record):
    """What a power-sum pass has read: the nonzero cells, the sum of their
    weights, and whether any table held weights (not booleans)."""
    _fields = ("count", "mass", "weighted")
    _defaults = (0, 0.0, False)
    _frozen = False
    __hash__ = None


def _chunk_power_sums(blocks, ss: list[float], tally: _Tally):
    """The power-sum kernel's one pass over (lo, table) blocks, in chunks
    of at most _BLOCK integers from the first cell >= 1 of each block:
    yields (k0, chunk, sums) for every chunk with a nonzero cell, chunk[i]
    holding k0 + i and sums[j] its numpy sum of (weight times) k^(-ss[j]),
    and adds what it read to tally. A chunk's nonzero indices are
    converted once and raised to every s in one buffer, grown to the
    largest chunk read and reused across the pass."""
    import numpy as np

    buf = np.empty(0)
    for base, table in blocks:
        tally.weighted = tally.weighted or table.dtype != np.bool_
        for lo in range(max(0, 1 - base), table.size, _BLOCK):
            chunk = table[lo:lo + _BLOCK]
            # nonzero runs several times faster on booleans than on numbers
            idx = np.flatnonzero(chunk.astype(bool, copy=False))
            if not idx.size:
                continue
            tally.count += idx.size
            if tally.weighted:
                w = chunk[idx].astype(np.float64, copy=False)
                # the order-independent bound needs terms of one sign; NaN fails both
                if not (w.min() >= 0.0 and w.max() < math.inf):
                    raise DslValueError("power-sum weights must be finite and nonnegative")
                tally.mass += float(w.sum())
            k = idx.astype(np.float64)
            k += base + lo
            if buf.size < k.size:
                buf = np.empty(chunk.size)
            out = buf[:k.size]
            sums = []
            for s in ss:
                np.power(k, -s, out=out)
                if tally.weighted:
                    out *= w
                sums.append(float(out.sum()))
            yield base + lo, chunk, sums


# Euler-Maclaurin for sum_{k <= n} k^-s: terms k < _EM_HEAD directly, then
# the integral, the end-point halves and Bernoulli corrections at _EM_HEAD
# and n. x^-s is completely monotone, so the remainder has the sign of the
# first omitted correction and is at most its size.
_EM_HEAD = 20
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)  # B_2 .. B_12
_BERNOULLI_NEXT = 7 / 6  # B_14, the first omitted
# most roundings behind one evaluated piece (library calls count 8): a_7,
# which bounds the remainder, takes 52; a correction at most 48, the
# integral 32 (at s = 1 it is log1p of a correctly rounded quotient: 9).
# For s < 1 expm1 takes y = (1-s) log(n/m) > 0 and multiplies the relative
# error of y by at most 1 + y, so the integral's size counts 1 + y times
_EM_UNITS = 52


def zeta_partial(s: float, n: int) -> tuple[float, float]:
    """sum_{k <= n} k^-s for real s > 0 and 0 <= n < 2^53, and a bound on
    its distance from the exact sum (rounding plus Euler-Maclaurin
    remainder). Costs the same for every n."""
    if not 0 < s < math.inf:
        raise DslValueError(f"zeta partial sum needs finite s > 0, got {s}")
    if not 0 <= n < 2**53:
        raise DslValueError(f"zeta partial sum needs 0 <= n < 2^53, got {n}")
    s = float(s)
    pieces = [k ** -s for k in range(1, min(n, _EM_HEAD - 1) + 1)]
    size = math.fsum(pieces)  # sum of the magnitudes the pieces carry
    remainder = 0.0
    if n >= _EM_HEAD:
        m = _EM_HEAD
        fm, fn = m ** -s, n ** -s
        # integral of x^-s over [m, n] = m^(1-s) (1 - (n/m)^(1-s)) / (s-1),
        # or log(n/m) at s = 1
        log_ratio = math.log1p((n - m) / m)
        y = (1.0 - s) * log_ratio
        integral = log_ratio if s == 1.0 else m * fm * -math.expm1(y) / (s - 1.0)
        ends = 0.5 * (fm + fn)
        pieces += [integral, ends]
        size += integral * (1.0 + max(y, 0.0)) + ends
        # a_j(x) = (s)_(2j-1) x^(1-s-2j) / (2j)!, the j-th correction being
        # B_2j (a_j(m) - a_j(n))
        am, an = 0.5 * s * fm / m, 0.5 * s * fn / n
        for j, b in enumerate(_BERNOULLI, start=1):
            pieces.append(b * (am - an))
            size += abs(b) * (am + an)
            r = (s + 2 * j - 1) * (s + 2 * j) / ((2 * j + 1) * (2 * j + 2))
            am *= r / (m * m)
            an *= r / (n * n)
        remainder = _BERNOULLI_NEXT * am
    total = math.fsum(pieces)
    bound = _gamma(2 * _EM_UNITS) * (size + remainder) + remainder + _err(total, 1) + _TINY
    if not math.isfinite(total + bound):
        raise DslValueError(f"zeta partial sum overflows at s = {s}")
    return total, bound


# sum_{k <= n} k^-s log k is minus the s-derivative of zeta_partial's sum,
# and its Euler-Maclaurin pieces are minus the s-derivatives of those
# pieces: with psi_j(s) = sum_{i<j} 1/(s+i), the log-derivative in s of
# (s)_j, the j-th derivative of x^-s log x is
# (-1)^j (s)_j x^(-s-j) (log x - psi_j(s)), so a_j(x) turns into
# b_j(x) = a_j(x) (log x - psi_(2j-1)(s)). On [m, inf) with log m >
# psi_16(s) the derivatives of orders 14 and 16 are positive, and the
# remainder after the B_12 correction lies between 0 and the B_14 one
# (Graham, Knuth and Patashnik, "Concrete Mathematics", section 9.5).
# For s > 1, psi_16(s) < psi_16(1) = H_16 < 3.4 < log 64.
_EM_LOG_HEAD = 64
# log x and psi_13 (14 roundings) put at most 20 more roundings into a piece
_EM_LOG_UNITS = _EM_UNITS + 20


def zeta_log_partial(s: float, n: int) -> tuple[float, float]:
    """sum_{k <= n} k^-s log k for real s > 1 and 0 <= n < 2^53, and a
    bound on its distance from the exact sum (rounding plus
    Euler-Maclaurin remainder). Costs the same for every n."""
    if not 1 < s < math.inf:
        raise DslValueError(f"log-weighted zeta partial sum needs finite s > 1, got {s}")
    if not 0 <= n < 2**53:
        raise DslValueError(f"log-weighted zeta partial sum needs 0 <= n < 2^53, got {n}")
    s = float(s)
    m = _EM_LOG_HEAD
    pieces = [math.log(k) * k ** -s for k in range(2, min(n, m - 1) + 1)]
    size = math.fsum(pieces)
    remainder = 0.0
    if n >= m:
        u = s - 1.0
        lm, ln = math.log(m), math.log(n)
        fm, fn = m ** -s, n ** -s
        # the integral of x^-s log x over [m, n] is F(m) - F(n), with
        # F(x) = x^(1-s) (log x / (s-1) + 1 / (s-1)^2)
        big_m, big_n = m * fm * (lm / u + 1.0 / (u * u)), n * fn * (ln / u + 1.0 / (u * u))
        ends = 0.5 * (fm * lm + fn * ln)
        pieces += [big_m, -big_n, ends]
        size += big_m + big_n + ends
        am, an = 0.5 * s * fm / m, 0.5 * s * fn / n
        psi = 1.0 / s  # psi_(2j-1)(s)
        for j, b in enumerate(_BERNOULLI, start=1):
            pieces.append(b * (am * (lm - psi) - an * (ln - psi)))
            size += abs(b) * (am * (lm + psi) + an * (ln + psi))
            r = (s + 2 * j - 1) * (s + 2 * j) / ((2 * j + 1) * (2 * j + 2))
            am *= r / (m * m)
            an *= r / (n * n)
            psi += 1.0 / (s + 2 * j - 1) + 1.0 / (s + 2 * j)
        # b_7(m) <= a_7(m) log m
        remainder = _BERNOULLI_NEXT * am * lm
    total = math.fsum(pieces)
    # a library result in the subnormal range errs by _TINY, and a piece
    # (or the remainder) multiplies it by less than 3n + 64: F(n), where
    # n^-s underflows only for s > 19, by 3n, every other one by 64
    tiny = _TINY * (3 * n + 64) * len(pieces)
    bound = _gamma(2 * _EM_LOG_UNITS) * (size + remainder) + remainder + _err(total, 1) + tiny
    if not math.isfinite(total + bound):
        raise DslValueError(f"log-weighted zeta partial sum overflows at s = {s}")
    return total, bound


def _tail_integral(x: int, s: float) -> tuple[float, float]:
    """Enclosure of x^(1-s) / (s-1), evaluated as x * x^-s / (s-1) (11
    roundings) for integers 1 <= x <= 2^53."""
    v = x * x ** -s / (s - 1.0)
    e = _err(v, _LIB_UNITS + 3)
    return _down(v - e), _up(v + e)


def zeta_bracket(s: float, cutoff: int) -> Bracket:
    """Certified bracket for the zeta value at real s > 1 from the partial
    sum to the cutoff plus integral-comparison tail bounds. The partial sum
    comes from Euler-Maclaurin, so the cost does not grow with the cutoff."""
    if s <= 1:
        raise DslValueError(f"zeta bracket needs s > 1, got {s}")
    if cutoff < 2:
        raise DslValueError("cutoff must be >= 2")
    partial, err = zeta_partial(s, cutoff)
    tail_lo = _tail_integral(cutoff + 1, s)[0]
    tail_hi = _tail_integral(cutoff, s)[1]
    return Bracket(_down(_down(partial - err) + tail_lo), _up(_up(partial + err) + tail_hi),
                   True, cutoff)
