"""Shared sieve and factorization utilities, the named integer
sequences, the exception classes and verdicts of the set language, the
one JSON form of a result and the one report of a verification harness.

A single module-level cache, the sorted primes up to a bound, is grown on
demand and read-only afterwards, so every consumer shares one array; sums
over all primes up to a bound read the prime stream, one sieve segment at
a time, instead. Only the sieve needs numpy and imports it: primality,
factorization and the first primes run on a pure-Python table of the
primes below 2^10, so the bottom of the import graph loads no numpy.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from fractions import Fraction
from itertools import accumulate, count, takewhile
from typing import TYPE_CHECKING, Callable, Iterator

if TYPE_CHECKING:
    import numpy as np


class DslError(Exception):
    pass


class DslSyntaxError(DslError):
    def __init__(self, message: str, pos: int, expected: tuple[str, ...] = ()):
        detail = f"syntax error at position {pos}: {message}"
        if expected:
            detail += f" (expected {', '.join(expected)})"
        super().__init__(detail)
        self.pos = pos
        self.expected = expected


class DslValueError(DslError, ValueError):
    pass


class DimensionMismatch(DslValueError):
    pass


class BudgetExceeded(DslError):
    pass


# the three verdicts of a verification report
PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"


def jsonable(x):
    """The one JSON form of a result: a Fraction is {num, den, float}, a
    record is its to_json(), dict keys become strings, tuples lists, sets
    sorted lists, and numbers plain ints and floats. numpy's scalar types
    register with the numbers ABCs, so they convert without importing
    numpy."""
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator, "float": float(x)}
    if hasattr(x, "to_json"):
        return x.to_json()
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, (frozenset, set)):
        return sorted(jsonable(v) for v in x)
    if isinstance(x, bool):
        return x
    if isinstance(x, numbers.Integral):
        return int(x)
    if isinstance(x, numbers.Real):
        return float(x)
    return x


class VerificationReport:
    """A harness's inputs, the quantities it computed, its verdict and the
    narrative of its checks. A plain class, not a dataclass: the commands
    that load no numpy would otherwise load dataclasses and inspect."""

    def __init__(self, theorem: str, inputs: dict, quantities: dict, verdict: str,
                 narrative: tuple[str, ...]):
        self.theorem = theorem
        self.inputs = inputs
        self.quantities = quantities
        self.verdict = verdict
        self.narrative = narrative

    def __eq__(self, other) -> bool:
        return isinstance(other, VerificationReport) and vars(self) == vars(other)

    def to_json(self) -> dict:
        return jsonable(vars(self))


# most cells one box table may hold, and the largest bound the shared sieve
# grows to
BOX_BUDGET = 2 * 10**8
# most classes m^dim one residue image may enumerate; verify reads it here,
# so verify counterexample loads no set layer
RESIDUE_BUDGET = 10**8


# primes below this divide out by trial; a cofactor without such a factor
# that is below its square is prime
_TRIAL_BOUND = 1 << 10


def _eratosthenes(n: int) -> list[int]:
    """The primes below n >= 2, sieved in a bytearray."""
    table = bytearray(b"\0\0") + bytearray(b"\1") * (n - 2)
    for p in range(2, math.isqrt(n - 1) + 1):
        if table[p]:
            table[p * p::p] = bytes(len(range(p * p, n, p)))
    return [p for p in range(n) if table[p]]


_SIEVE_BOUND = 0
_PRIMES = None  # the sorted primes up to _SIEVE_BOUND, an int64 array once sieved
_SMALL_PRIMES = _eratosthenes(_TRIAL_BOUND)

# cells per sieve segment and per membership block: 256 KiB of booleans
# stay in cache while every base prime marks them
_SEGMENT = 1 << 18


def _segments(lo: int, hi: int, cells: int = 1) -> Iterator[tuple[int, int]]:
    """[start, end] pieces of _SEGMENT // cells integers, at least one,
    covering [lo, hi] from lo on, the last one shorter: the one block layout
    of sieve segments and box slabs of cells cells per first-axis integer."""
    step = max(1, _SEGMENT // cells)
    return ((a, min(a + step - 1, hi)) for a in range(lo, hi + 1, step))


def _mark_classes(out: np.ndarray, lows, classes, value: bool) -> np.ndarray:
    """The one class-marking kernel: set to value every cell of the box
    table out (cell i_k of axis k holds lows[k] + i_k) whose coordinates
    are all = r mod a for some (r, a) in classes: a strided slice along
    every axis, for each class that meets the first."""
    others = lows[1:]
    for r, a in classes:
        first = slice((r - lows[0]) % a, None, a)
        if first.start < len(out):  # a lone slice indexes a sieve segment fastest
            out[(first, *[slice((r - lo) % a, None, a) for lo in others]) if others else first] = value
    return out


# the primes up to 13 clear their classes in every segment at once, as a
# copy out of one pattern of period 2*3*5*7*11*13 tiled past a segment's
# length (the wheel), instead of six strided passes
_WHEEL_PRIMES = (2, 3, 5, 7, 11, 13)
_WHEEL_PERIOD = 30030


@functools.cache
def _wheel() -> np.ndarray:
    import numpy as np

    wheel = _mark_classes(np.ones(_WHEEL_PERIOD + _SEGMENT, dtype=bool), (0,),
                          [(0, p) for p in _WHEEL_PRIMES], False)
    wheel.flags.writeable = False
    return wheel


def _sieve_segment(lo: int, hi: int, base: np.ndarray) -> np.ndarray:
    """Primality table over [lo, hi], 0 <= lo <= hi + 1, by the segmented
    sieve of Bays and Hudson (BIT 17, 1977). Each _SEGMENT-cell segment
    starts from the wheel and clears 0 mod p for the other base primes p
    up to the square root of its top; then the base primes inside [lo, hi]
    are restored and 1 is cleared. base lists the primes up to sqrt(hi),
    ascending."""
    import numpy as np

    out = np.empty(hi - lo + 1, dtype=bool)
    first = int(np.searchsorted(base, _WHEEL_PRIMES[-1], side="right"))
    for start, end in _segments(lo, hi):
        seg = out[start - lo:end - lo + 1]
        phase = start % _WHEEL_PERIOD
        seg[:] = _wheel()[phase:phase + seg.size]
        top = int(np.searchsorted(base, math.isqrt(end), side="right"))
        _mark_classes(seg, (start,), [(0, p) for p in base[first:top].tolist()], False)
    small = np.concatenate([_WHEEL_PRIMES, base])
    out[small[(small >= lo) & (small <= hi)] - lo] = True
    out[:max(0, 2 - lo)] = False
    return out


def _prime_segment(lo: int, hi: int) -> np.ndarray:
    """Primality table over [lo, hi] for 0 <= lo <= hi + 1 (or the empty
    table for lo = hi + 1 < 0). The base primes up to sqrt(hi) come from
    the shared sieve, which grows to that size only."""
    return _sieve_segment(lo, hi, primes_upto(math.isqrt(max(hi, 0))))


def _prime_stream(lo: int, hi: int) -> Iterator[np.ndarray]:
    """The primes of [lo, hi], 1 <= lo, ascending, as one int64 array per
    sieve segment of _segments(lo, hi), each sieved by _prime_segment
    when the stream reaches it. hi past the box budget raises
    BudgetExceeded here, before anything is sieved."""
    import numpy as np

    if hi > BOX_BUDGET:
        raise BudgetExceeded(f"sieve up to {hi} exceeds box budget {BOX_BUDGET}")
    return (np.flatnonzero(_prime_segment(a, b)) + a for a, b in _segments(lo, hi))


def _ensure_sieve(n: int) -> None:
    """Grow _PRIMES to every prime up to max(n, 2 * _SIEVE_BOUND), the
    doubling capped at the box budget, from the prime stream past the old
    bound; n past the box budget raises BudgetExceeded unsieved."""
    global _SIEVE_BOUND, _PRIMES
    if n <= _SIEVE_BOUND:
        return
    import numpy as np

    n = max(n, min(2 * _SIEVE_BOUND, BOX_BUDGET))
    # the stream's base primes may grow the cache while it runs; the old
    # head and the stream past it still cover [2, n] once
    _PRIMES = np.concatenate([primes_upto(_SIEVE_BOUND), *_prime_stream(_SIEVE_BOUND + 1, n)])
    _SIEVE_BOUND = n


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n as an int64 array (shared cache, do not mutate)."""
    import numpy as np

    if n < 2:
        return np.zeros(0, dtype=np.int64)
    _ensure_sieve(n)
    return _PRIMES[: int(np.searchsorted(_PRIMES, n, side="right"))]


# Sorenson and Webster (2015): no composite below 3317044064679887385961981
# (3.317 * 10^24) passes the strong test to all of these bases
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# most Pollard-Brent iterations one factorization may spend (2-2.5 s
# on a 2-vCPU Xeon); rho takes about sqrt(p) iterations to split off the
# prime p, so this reaches prime factors up to about 2^40
RHO_BUDGET = 1 << 22


def _strong_probable_prime(n: int) -> bool:
    """Strong (Miller-Rabin) test of the odd n > 41 to every base in
    _MR_BASES."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Primality of n: a binary search of the shared sorted primes up to
    the sieve bound; past it, trial division by the primes below 2^10 up
    to the square root of n, then the strong test to the bases 2..41,
    which is a proof below 3.317 * 10^24 (Sorenson-Webster). Above that
    bound True means n is a strong probable prime to those bases."""
    if n < 2:
        return False
    if n <= _SIEVE_BOUND:
        import numpy as np

        i = int(np.searchsorted(_PRIMES, n))
        return i < _PRIMES.size and int(_PRIMES[i]) == n
    for p in _SMALL_PRIMES:
        if p * p > n:
            return True
        if n % p == 0:
            return False
    return n < _TRIAL_BOUND**2 or _strong_probable_prime(n)


def _iroot(x: int, k: int) -> int:
    """floor(x ** (1/k)) for nonnegative integers. Even parts of k peel off
    as integer square roots (iterated floor-sqrt is the floor of the
    iterated root); any odd remainder falls back to Newton iteration."""
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return 0
    while k % 2 == 0:
        x = math.isqrt(x)
        k //= 2
    if k == 1:
        return x
    r = 1 << ((x.bit_length() + k - 1) // k)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            return r
        r = nr


def _perfect_power(k: int) -> tuple[int, int] | None:
    """(b, j) with k = b^j for a prime j, when k is such a power; k has no
    prime factor below _TRIAL_BOUND, so b >= _TRIAL_BOUND and only
    exponents j <= log2(k) / 10 need a look. Pollard's rho would find b
    only after about sqrt(b) steps."""
    for j in _SMALL_PRIMES:
        if 10 * j > k.bit_length():
            return None
        b = _iroot(k, j)
        if b**j == k:
            return b, j
    return None


def _brent(n: int, c: int, steps: int) -> tuple[int, int]:
    """Brent's cycle search (1980) for Pollard's rho on x -> x^2 + c mod
    the odd composite n: a divisor of n (n itself when this c fails) and
    the iteration count so far. Differences are multiplied up in batches
    so that one gcd serves many steps; an overshooting batch is replayed
    one step at a time."""
    y, r, q, g = 2, 1, 1, 1
    batch = 128
    while g == 1:
        # a round costs 2r iterations: r to move x, r to compare
        if steps + 2 * r > RHO_BUDGET:
            raise BudgetExceeded(
                f"factorization of a {n.bit_length()}-bit cofactor needs more than "
                f"{RHO_BUDGET} Pollard-Brent iterations"
            )
        steps += 2 * r
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(batch, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += batch
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    return g, steps


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; n must be nonzero.
    Trial division by the primes below 2^10, then Pollard-Brent on what
    is left, with the strong test of is_prime deciding when a part is
    prime; more than RHO_BUDGET iterations raise BudgetExceeded."""
    if n == 0:
        raise ValueError("cannot factorize 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
    parts, steps = ([n] if n > 1 else []), 0
    while parts:
        k = parts.pop()
        if k < _TRIAL_BOUND**2 or _strong_probable_prime(k):
            out[k] = out.get(k, 0) + 1
            continue
        power = _perfect_power(k)
        if power is not None:
            b, j = power
            parts += [b] * j
            continue
        c, d = 0, k
        while d == k:
            c += 1
            d, steps = _brent(k, c, steps)
        parts += [d, k // d]
    return dict(sorted(out.items()))


def valuation(n: int, p: int) -> int:
    """v_p(|n|): the exponent of p in n. n must be nonzero. Divides by p,
    p^2, p^4, ... while they divide, then by the same powers stepping back
    down, so it takes O(log v) big-integer divisions instead of v."""
    if n == 0:
        raise ValueError("v_p(0) is infinite")
    n = abs(n)
    powers = []  # p^(2^i) for the i so far, each divided out once
    q = p
    while True:
        d, r = divmod(n, q)
        if r:
            break
        n = d
        powers.append(q)
        q *= q
    # what is left of v is below 2^len(powers): its binary digits, high first
    v = (1 << len(powers)) - 1
    for i in reversed(range(len(powers))):
        d, r = divmod(n, powers[i])
        if not r:
            n = d
            v += 1 << i
    return v


def prime_powers_of(m: int) -> list[tuple[int, int, int]]:
    """[(p, j, p**j)] over the prime powers exactly dividing m >= 1."""
    return [(p, j, p**j) for p, j in factorize(m).items()] if m > 1 else []


def iter_primes() -> Iterator[int]:
    """Unbounded prime iterator: the primes below 2^10 from the pure-Python
    table, which needs no sieve, then the shared sieve, grown as needed."""
    yield from _SMALL_PRIMES
    bound = 1 << 12
    idx = len(_SMALL_PRIMES)
    while True:
        _ensure_sieve(bound)
        while idx < len(_PRIMES):
            yield int(_PRIMES[idx])
            idx += 1
        bound *= 2


# ------------------------------------------------------------- sequences

def sequence_terms(name: str) -> Iterator[int]:
    """The terms of a named sequence, ascending."""
    return _SEQUENCES[name]()


def _sequence_upto(name: str, n: int) -> list[int]:
    return list(takewhile(lambda v: v <= n, _SEQUENCES[name]()))


def _factorials() -> Iterator[int]:
    return accumulate(count(1), operator.mul)


def _factorial_shift() -> Iterator[int]:
    return (f + k for k, f in enumerate(_factorials(), 1))


def _primorials() -> Iterator[int]:
    return accumulate(iter_primes(), operator.mul)


# each callable returns a fresh iterator over the terms in ascending order
_SEQUENCES: dict[str, Callable[[], Iterator[int]]] = {
    "factorial_shift": _factorial_shift,
    "factorials": _factorials,
    "primorials": _primorials,
}
