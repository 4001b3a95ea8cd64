"""Shared sieve and factorization utilities.

A single module-level sieve cache is grown on demand and read-only
afterwards, so every consumer shares one table.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

_SIEVE_BOUND = 0
_IS_PRIME: np.ndarray = np.zeros(1, dtype=bool)
_PRIMES: np.ndarray = np.zeros(0, dtype=np.int64)


def _ensure_sieve(n: int) -> None:
    global _SIEVE_BOUND, _IS_PRIME, _PRIMES
    if n <= _SIEVE_BOUND:
        return
    n = max(n, 2 * _SIEVE_BOUND, 1 << 10)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    _IS_PRIME = mask
    _PRIMES = np.nonzero(mask)[0].astype(np.int64)
    _SIEVE_BOUND = n


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n as an int64 array (shared cache, do not mutate)."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    _ensure_sieve(n)
    return _PRIMES[: int(np.searchsorted(_PRIMES, n, side="right"))]


def prime_mask_upto(n: int) -> np.ndarray:
    """Boolean primality table for 0..n (a copy, safe to mutate)."""
    _ensure_sieve(max(n, 2))
    return _IS_PRIME[: n + 1].copy()


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n <= _SIEVE_BOUND:
        return bool(_IS_PRIME[n])
    r = math.isqrt(n)
    _ensure_sieve(min(max(r, 2), 1 << 22))
    for p in _PRIMES:
        p = int(p)
        if p > r:
            return True
        if n % p == 0:
            return False
    # sieve capped out; finish by trial division
    q = int(_PRIMES[-1]) + 2
    while q <= r:
        if n % q == 0:
            return False
        q += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; n must be nonzero."""
    if n == 0:
        raise ValueError("cannot factorize 0")
    n = abs(n)
    out: dict[int, int] = {}
    if n == 1:
        return out
    _ensure_sieve(min(max(math.isqrt(n), 2), 1 << 22))
    for p in _PRIMES:
        p = int(p)
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
    if n > 1:
        if p * p <= n:  # sieve exhausted before sqrt; rare, finish by hand
            q = int(_PRIMES[-1]) + 2
            while q * q <= n:
                if n % q == 0:
                    e = 0
                    while n % q == 0:
                        n //= q
                        e += 1
                    out[q] = e
                q += 2
        if n > 1:
            out[n] = out.get(n, 0) + 1
    return dict(sorted(out.items()))


def valuation(n: int, p: int) -> int:
    """v_p(|n|): the exponent of p in n. n must be nonzero."""
    if n == 0:
        raise ValueError("v_p(0) is infinite")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def prime_powers_of(m: int) -> list[tuple[int, int, int]]:
    """[(p, j, p**j)] over the prime powers exactly dividing m >= 1."""
    return [(p, j, p**j) for p, j in factorize(m).items()] if m > 1 else []


def smallest_factor_table(n: int) -> np.ndarray:
    """spf[2..n] = smallest prime factor (spf[0]=spf[1]=0)."""
    spf = np.zeros(n + 1, dtype=np.int64)
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == 0:
            multiples = spf[p * p:: p]
            multiples[multiples == 0] = p
    # what is still unmarked from 2 on has no factor up to sqrt(n): a prime
    rest = np.flatnonzero(spf == 0)
    rest = rest[rest >= 2]
    spf[rest] = rest
    return spf


def iter_primes() -> Iterator[int]:
    """Unbounded prime iterator (grows the shared sieve as needed)."""
    bound = 1 << 12
    idx = 0
    while True:
        _ensure_sieve(bound)
        while idx < len(_PRIMES):
            yield int(_PRIMES[idx])
            idx += 1
        bound *= 2
