"""Dirichlet series of definable sets over the positive integers: truncated
zeta sums with certified tails, the density ratio delta(X,s), the von
Mangoldt function, exact closed forms for complements of sets of
multiples, and certified closed forms of the ratio for every count view
without a cong factor, primes through the prime zeta function.

Everything here is specific to the rational integers: the norm of a positive
integer is the integer itself, so ideal-indexed sums become ordinary series.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

from . import _primes
from ._ie import _ie_groups
from ._primes import FAIL, INCONCLUSIVE, PASS, DslValueError, Record, _iroot
from .measure import (
    _BLOCK,
    _LIB_UNITS,
    _TINY,
    _U,
    Bracket,
    _down,
    _err,
    _gamma,
    _tail_integral,
    _up,
    masked_power_sums,
    multiples_measure_ie,
    zeta_bracket,
    zeta_log_partial,
    zeta_partial,
)

# numpy is imported by the functions that build a table, so the closed
# forms load none
if TYPE_CHECKING:
    import numpy as np

    from .setdsl import CompiledSet, CountView


# ------------------------------------------------------------- truncations


class DirichletTruncation(Record):
    """Partial sum of a subset zeta series, a bound on its rounding error,
    and a certified tail range. Subset terms are positive, so the partial
    sum less its rounding bound is the lower endpoint and the full-series
    tail bounds the rest."""

    _fields = ("cutoff", "s", "partial", "bound", "tail_hi", "notes")
    _defaults = ((),)

    def bracket(self) -> Bracket:
        return Bracket(max(0.0, _down(self.partial - self.bound)),
                       _up(_up(self.partial + self.bound) + self.tail_hi),
                       True, self.cutoff, self.notes)

    def ratio_bracket(self) -> Bracket:
        """Certified bracket for zeta_X(s) / zeta(s), clipped to [0,1], with
        the quotients rounded outward."""
        zx = self.bracket()
        z = zeta_bracket(self.s, self.cutoff)
        return Bracket(max(0.0, _down(zx.lo / z.hi)), min(1.0, _up(zx.hi / z.lo)),
                       True, self.cutoff)


def zeta_sets(cset: CompiledSet, s_grid, cutoff: int) -> list[DirichletTruncation]:
    """Truncations of sum over positive members of X of k^(-s) at every s
    of the grid, from one stream of membership blocks over [1, cutoff] and
    one pass of the power-sum kernel. The tail is bounded by the
    full-series integral tail since X cuts out a subset."""
    ss = [float(s) for s in s_grid]
    for s in ss:
        if not s > 1:
            raise DslValueError(f"subset zeta needs s > 1, got {s}")
    if cutoff < 1:
        raise DslValueError(f"subset zeta needs cutoff >= 1, got {cutoff}")
    if cset.dim != 1:
        raise DslValueError("subset zeta is defined for dimension-1 sets")
    empty = True

    def blocks():
        nonlocal empty
        for lo, table in cset.blocks(cutoff):
            empty = empty and not table.any()
            yield lo, table

    sums, bounds = masked_power_sums(blocks(), ss)
    notes = ("empty-truncation",) if empty else ()
    return [DirichletTruncation(cutoff, s, float(t), float(b), _tail_integral(cutoff, s)[1], notes)
            for s, t, b in zip(ss, sums, bounds)]


def zeta_set(cset: CompiledSet, s: float, cutoff: int) -> DirichletTruncation:
    """zeta_sets at the single point s."""
    return zeta_sets(cset, [s], cutoff)[0]


def delta_ratio(cset: CompiledSet, s: float, cutoff: int) -> Bracket:
    """Certified bracket for zeta_X(s) / zeta(s), clipped to [0,1]."""
    return zeta_set(cset, s, cutoff).ratio_bracket()


# ------------------------------------------------------------- von Mangoldt


def von_mangoldt(n: int) -> float:
    """log p when n is a positive power of the prime p, else 0."""
    if n < 1:
        raise DslValueError("von Mangoldt needs n >= 1")
    if n == 1:
        return 0.0
    fac = _primes.factorize(n)
    if len(fac) == 1:
        import numpy as np

        (p,) = fac
        # below 2^53 np.log, as _von_mangoldt_blocks takes it: math.log
        # differs by an ulp at some primes (285343 is the first)
        return float(np.log(float(p))) if p < 2**53 else math.log(p)
    return 0.0


def _divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in _primes.factorize(n).items():
        divs = [d * p**j for d in divs for j in range(e + 1)]
    return divs


def vm_identity_check(n: int, tol: float) -> bool:
    """log n recovered as the divisor sum of the von Mangoldt function."""
    total = sum(von_mangoldt(d) for d in _divisors(n))
    return abs(math.log(n) - total) < tol


def vm_identity_scan(n_max: int, tol: float) -> bool:
    """The divisor-sum identity over all 1 <= n <= n_max, one block of
    _BLOCK integers [lo, hi] at a time: each base prime p <= sqrt(hi)
    adds log p to the multiples of each power p^j in the block and
    divides them by p, which leaves 1 or the one prime factor of n above
    sqrt(hi), adding its own log. A remainder in (1, sqrt(hi)] would hold
    a factor the sieve missed: it is set to 1 and adds log 1 = 0, so the
    identity fails there. The block's tables of 8 bytes per integer are
    all that is held; the table of log n takes the difference in place."""
    if n_max < 2:
        return True
    import numpy as np

    worst = 0.0
    base = _primes.primes_upto(math.isqrt(n_max))
    for lo in range(2, n_max + 1, _BLOCK):
        hi = min(lo + _BLOCK - 1, n_max)
        root = math.isqrt(hi)
        rest = np.arange(lo, hi + 1, dtype=np.int64)
        total = np.zeros(rest.size)
        for p in base[:int(np.searchsorted(base, root, side="right"))].tolist():
            log_p, q = math.log(p), p
            while q <= hi:
                multiples = slice((-lo) % q, None, q)
                total[multiples] += log_p
                rest[multiples] //= p
                q *= p
        rest[rest <= root] = 1
        total += np.log(rest)
        diff = _log_block(lo, hi)
        diff -= total
        worst = max(worst, float(np.max(np.abs(diff, out=diff))))
    return not worst >= tol


def _von_mangoldt_blocks(n: int):
    """(lo, Lambda(k) for lo <= k <= hi) over the blocks [lo, hi] of
    _BLOCK integers that cover [1, n] from 1, the grid on which the
    power-sum kernel chunks: log p at every prime power p^j. Each sieve
    segment of _primes._segments(1, n) is sieved once; its primes, and
    the higher powers of the base primes up to sqrt(hi) that fall in it,
    fill the tables of its blocks."""
    import numpy as np

    for lo, hi in _primes._segments(1, n):
        primes = np.flatnonzero(_primes._prime_segment(lo, hi)) + lo
        powers, logs = [primes], [np.log(primes)]
        p = _primes.primes_upto(math.isqrt(hi))
        log_p, q = np.log(p), p * p
        while q.size:
            inside = q >= lo
            powers.append(q[inside])
            logs.append(log_p[inside])
            keep = q <= hi // p  # q * p <= hi
            p, log_p, q = p[keep], log_p[keep], q[keep] * p[keep]
        at, logs = np.concatenate(powers), np.concatenate(logs)
        for a in range(lo, hi + 1, _BLOCK):
            b = min(a + _BLOCK - 1, hi)
            inside = (at >= a) & (at <= b)
            lam = np.zeros(b - a + 1)
            lam[at[inside] - a] = logs[inside]
            yield a, lam


def _log_block(lo: int, hi: int) -> np.ndarray:
    import numpy as np

    logs = np.arange(lo, hi + 1, dtype=np.float64)
    return np.log(logs, out=logs)


class DlogReport(Record):
    _fields = ("s", "cutoff", "tol", "ratio_side", "series_side", "difference", "tail_budget", "verdict")


def dlog_zeta_check(s: float, cutoff: int, tol: float) -> DlogReport:
    """Compare the logarithmic derivative of zeta computed two ways at
    truncation: as (-sum log n / n^s) / (sum 1/n^s) and as
    -sum Lambda(n)/n^s. PASS when the observed difference fits inside
    tol plus the certified budget, which covers the truncation of both
    series and the rounding of every sum; when the budget alone exceeds
    tol the comparison is INCONCLUSIVE rather than failed."""
    if s <= 1.2:
        raise DslValueError("logarithmic-derivative check needs s > 1.2")
    if cutoff < 10**4:
        raise DslValueError("cutoff must be at least 10^4")
    den, den_err = zeta_partial(s, cutoff)
    # log n in closed form: from Lambda it would use log = Lambda * 1, the identity under test
    num, num_err = zeta_log_partial(s, cutoff)
    (series,), (series_err,) = masked_power_sums(_von_mangoldt_blocks(cutoff), [s])
    # the kernel takes its weights as exact; each log is within _LIB_UNITS
    series_err += _err(series + series_err, _LIB_UNITS)
    ratio_side, series_side = float(num / den), float(series)
    # integral comparison: sum_{n>N} log(n)/n^s <= N^(1-s)(log N/(s-1)+1/(s-1)^2)
    tail_log = cutoff ** (1.0 - s) * (math.log(cutoff) / (s - 1.0) + (s - 1.0) ** -2)
    tail_plain = cutoff ** (1.0 - s) / (s - 1.0)
    # each full series is within tail plus rounding of its partial sum
    budget = float((tail_log + num_err + ratio_side * (tail_plain + den_err)) / (den - den_err)
                   + _err(ratio_side, 1) + tail_log + series_err)
    diff = abs(ratio_side - series_side)
    if budget > tol:
        verdict = INCONCLUSIVE
    elif diff < tol + budget:
        verdict = PASS
    else:
        verdict = FAIL
    return DlogReport(float(s), cutoff, tol, ratio_side, series_side, diff, budget, verdict)


# ------------------------------------------------------------- IE closed form


def de_delta_exact(moduli, s) -> "Fraction | float":
    """The density ratio of the complement-of-multiples closure at real
    s >= 1: sum over subsets J of (-1)^|J| lcm(J)^(-s). Exact rational for
    integer s, where it is the inclusion-exclusion measure in dimension s;
    float otherwise, one exactly rounded sum per coprime group of moduli."""
    mods = tuple(moduli)
    if not mods or any(a < 1 for a in mods):
        raise DslValueError("need positive moduli")
    if s < 1:
        raise DslValueError(f"closed form defined for s >= 1, got {s}")
    if float(s) == int(s):
        return multiples_measure_ie(mods, dim=int(s))
    sf = float(s)
    return math.prod(math.fsum(_terms(coeffs, sf)) for coeffs in _ie_groups(mods).values())


def de_delta_bracket(moduli, s: Fraction, digits: int = 30) -> tuple[Fraction, Fraction]:
    """Certified rational bracket for the closed form at rational s >= 1,
    built from directed integer-root brackets of each lcm^s, scaled by the
    integer inclusion-exclusion coefficients. Tight enough (10^-digits per
    term) to separate nearby grid points. Each coprime group of moduli sums
    to a subset-zeta ratio, which is nonnegative, so the group brackets
    multiply endpoint by endpoint."""
    mods = tuple(moduli)
    s = Fraction(s)
    if s < 1:
        raise DslValueError(f"closed form defined for s >= 1, got {s}")
    if not mods or any(a < 1 for a in mods):
        raise DslValueError("need positive moduli")
    # integer numerators at a fixed resolution: directed rounding per term
    # and per product keeps the bracket certified while avoiding any
    # rational-gcd work inside the loop
    res = 10 ** (digits + 6)
    scale = 10**digits
    num, den = s.numerator, s.denominator
    lo_acc, hi_acc = res, res
    for coeffs in _ie_groups(mods).values():
        g_lo, g_hi = 0, 0
        for lcm, c in coeffs.items():
            if lcm == 1:
                t_lo, t_hi = res, res
            else:
                root = _iroot(lcm**num * scale**den, den)
                # lcm^(-s) lies in [scale/(root+1), scale/root]
                t_lo = res * scale // (root + 1)
                t_hi = -((-res * scale) // root)
            if c > 0:
                g_lo += c * t_lo
                g_hi += c * t_hi
            else:
                g_lo += c * t_hi
                g_hi += c * t_lo
        lo_acc = lo_acc * max(g_lo, 0) // res
        hi_acc = -((-hi_acc * g_hi) // res)
    return Fraction(lo_acc, res), Fraction(hi_acc, res)


def de_delta_table(moduli, s_values) -> str:
    """CSV table 's,value' of the closed form over a grid."""
    lines = ["s,value"]
    for s in s_values:
        v = de_delta_exact(moduli, s)
        lines.append(f"{float(s):.10g},{float(v):.12g}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------- count views in closed form

# every zeta value of the closed forms is Euler-Maclaurin at this cutoff,
# which costs the same as any other and leaves a tail range far below
# float resolution
_ZETA_CUTOFF = 2**52
# a term l^-s with l at least this is below 2^-1000 for s >= 1; it is
# dropped and its size goes into the error bound, as l would overflow a float
_HUGE = 2**1000


def _terms(coeffs: dict[int, int], s: float):
    """The floats c * l^-s of the Dirichlet polynomial sum of c l^-s over
    the {l: c} items, 0 for l >= _HUGE."""
    return (c * l**-s if l < _HUGE else 0.0 for l, c in coeffs.items())


def _polynomial(coeffs: dict[int, int], s: float) -> tuple[float, float]:
    """Enclosure of the Dirichlet polynomial sum of c l^-s over the {l: c}
    items at s >= 1: the correctly rounded fsum of the terms, each within
    _LIB_UNITS for the power and two roundings for the product and the
    conversion of c, and 3 s u more where l >= 2^53 converts to a float
    with relative error u, which (1 + u)^-s turns into at most 3 s u."""
    terms = list(_terms(coeffs, s))
    total = math.fsum(terms)
    top = max(coeffs, default=1)
    rel = _gamma(2 * (_LIB_UNITS + 2)) + (3 * s * _U if top >= 2**53 else 0.0)
    err = rel * math.fsum(map(abs, terms)) + _err(total, 1) + len(terms) * _TINY
    if top >= _HUGE:
        err += 2.0**-1000 * sum(abs(c) for l, c in coeffs.items() if l >= _HUGE)
    return _down(total - err), _up(total + err)


def _zeta_at(j: int, s: float) -> tuple[float, float]:
    """Enclosure of zeta(j s) for an integer j >= 1 and j s > 1: the float
    product j * s is exact or the exact argument lies between its
    neighbours, and zeta decreases."""
    x = j * s
    if Fraction(x) == j * Fraction(s):
        z = zeta_bracket(x, _ZETA_CUTOFF)
        return z.lo, z.hi
    return zeta_bracket(_up(x), _ZETA_CUTOFF).lo, zeta_bracket(_down(x), _ZETA_CUTOFF).hi


def prime_zeta(s: float) -> Bracket:
    """Certified bracket for P(s), the sum of p^-s over the primes, at
    s > 1: P(s) = sum over j >= 1 of mu(j)/j log zeta(j s) (Froberg, BIT 8
    (1968)), each log zeta(j s) from a zeta enclosure and the log within
    _LIB_UNITS. For x >= 2, log zeta(x) <= zeta(x) - 1 <= 2^-x (1 + 2/(x-1))
    <= 3 2^-x, so the terms past J add at most
    3 2^-(J+1)s / ((J+1)(1 - 2^-s)); the sum stops once that is below
    2^-64 2^-s <= 2^-64 P(s), or below the subnormal allowance _TINY."""
    s = float(s)
    if not 1 < s < math.inf:
        raise DslValueError(f"prime zeta needs finite s > 1, got {s}")
    ends, j = [[], []], 0
    while True:
        j += 1
        fac = _primes.factorize(j)
        if all(e == 1 for e in fac.values()):
            z_lo, z_hi = _zeta_at(j, s)
            log_lo, log_hi = math.log(z_lo), math.log(z_hi)
            lo = _down(_down(log_lo - _err(log_lo, _LIB_UNITS)) / j)
            hi = _up(_up(log_hi + _err(log_hi, _LIB_UNITS)) / j)
            if len(fac) % 2:
                lo, hi = -hi, -lo
            ends[0].append(lo)
            ends[1].append(hi)
        # the pow, two products and a quotient, with 2^-40 to spare
        tail = 3.0 * 2.0 ** (-(j + 1) * s) / ((j + 1) * (1.0 - 2.0**-s)) * (1 + 2.0**-40) + _TINY
        if tail <= max(2.0**-64 * 2.0**-s, _TINY):
            break
    return Bracket(_down(math.fsum(ends[0] + [-tail])), _up(math.fsum(ends[1] + [tail])), True, None)


def _local_ratio(groups: list[dict[int, int]], primes: list[int], k: int | None,
                 s: float) -> tuple[float, float]:
    """Enclosure of zeta_V(s)/zeta(s) at s >= 1 for V = kfree(k) (k None:
    no such factor) ∩ !multiples(A). Write each squarefree d as d1 d2,
    d1 | P and gcd(d2, P) = 1, P the product of the primes of A, so that
    lcm(d^k, l) = lcm(d1^k, l) d2^k for every inclusion-exclusion term l of
    A. The sum over d1 | P of mu(d1) times that over l is the
    inclusion-exclusion sum of A with p^k added for every p | P, and the
    sum over d2 is the Euler product over p ∤ P of 1 - p^-ks, that is
    1/zeta(ks) times prod over p | P of 1/(1 - p^-ks). groups holds the
    coefficients of the coprime groups of that family and primes the p | P.
    Every factor is nonnegative, so the enclosures multiply end by end."""
    lo = hi = 1.0
    for coeffs in groups:
        a, b = _polynomial(coeffs, s)
        lo, hi = max(0.0, _down(lo * a)), _up(hi * b)
    if k is not None:
        for p in primes:
            a, b = _polynomial({1: 1, p**k: -1}, s)
            lo, hi = _down(lo / b), _up(hi / a)
        z_lo, z_hi = _zeta_at(k, s)
        lo, hi = _down(lo / z_hi), _up(hi / z_lo)
    return lo, hi


def series_ratios(view: CountView, s_grid) -> list[Bracket]:
    """Certified brackets for zeta_X(s)/zeta(s) at every s of the grid, X
    the set of a count view without a cong factor, in closed form: no
    stream and no cutoff. The local part V is _local_ratio (its
    complement 1 minus it), and with primes
    zeta_X = mix[0] zeta_V + mix[1] P + mix[2] (P - sum over the exceptions
    of p^-s), P the prime zeta function. At s = 1 the bracket is the limit
    s -> 1+, the Dirichlet density: V's closed form is continuous there, as
    ks >= 2 and its sums are finite, and P(s)/zeta(s) and p^-s/zeta(s) tend
    to 0."""
    ss = [float(s) for s in s_grid]
    for s in ss:
        if not 1 <= s < math.inf:
            raise DslValueError(f"series ratio needs finite s >= 1, got {s}")
    if view.cls is not None:
        raise DslValueError("the closed form covers count views without a cong factor")
    k = view.k
    primes = sorted({p for a in view.moduli for p in _primes.factorize(a)}) if k is not None else []
    groups = list(_ie_groups(view.moduli + tuple(p**k for p in primes)).values())
    mix_v, mix_pi, mix_vp = view.mix
    out = []
    for s in ss:
        parts = []  # (integer coefficient, enclosure) of each summand
        if mix_v:
            lo, hi = _local_ratio(groups, primes, k, s)
            parts.append((mix_v, (_down(1.0 - hi), _up(1.0 - lo)) if view.complement else (lo, hi)))
        if (mix_pi or mix_vp) and s > 1:
            z_lo, z_hi = _zeta_at(1, s)
            if mix_pi + mix_vp:  # a union cancels P
                p = prime_zeta(s)
                parts.append((mix_pi + mix_vp, (_down(max(0.0, p.lo) / z_hi), _up(p.hi / z_lo))))
            if mix_vp and view.exceptions:
                e_lo, e_hi = _polynomial(dict.fromkeys(view.exceptions, 1), s)
                parts.append((-mix_vp, (_down(max(0.0, e_lo) / z_hi), _up(e_hi / z_lo))))
        if not parts:
            lo = hi = 0.0
        elif len(parts) == 1 and parts[0][0] == 1:
            lo, hi = parts[0][1]
        else:
            lo = _down(math.fsum(c * ends[c < 0] for c, ends in parts))
            hi = _up(math.fsum(c * ends[c > 0] for c, ends in parts))
        out.append(Bracket(max(0.0, lo), min(1.0, hi), True, None))
    return out


def series_ratio(view: CountView, s: float) -> Bracket:
    """series_ratios at the single point s."""
    return series_ratios(view, [s])[0]
