"""Independent reference values for the benchmark's correctness checks.

Everything here is plain Python (no numpy, no zhat): closed forms, small
brute-force enumerations and classical constants computed from scratch.
The driver imports this module, so it must stay light on memory: a child's
peak RSS reported by wait4 includes whatever the parent held when it
spawned the child.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

SQFREE = 6.0 / math.pi**2
_EULER_GAMMA = 0.57721566490153286061


# ------------------------------------------------------------- primes


def primes_upto(n: int) -> list[int]:
    """Eratosthenes on a bytearray; slice assignment keeps it fast."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [i for i in range(n + 1) if sieve[i]]


def is_prime(n: int) -> bool:
    """Trial division; used only on a handful of literals below ~10^10."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    return all(n % d for d in range(3, math.isqrt(n) + 1, 2))


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def primorials_upto(n: int) -> list[int]:
    out, acc = [], 1
    for p in primes_upto(64):
        acc *= p
        if acc > n:
            break
        out.append(acc)
    return out


def prime_pi(n: int) -> dict[int, int]:
    """pi(v) for every v of the form n // k (Lucy Hedgehog's method)."""
    r = math.isqrt(n)
    vals = [n // i for i in range(1, r + 1)]
    vals += list(range(vals[-1] - 1, 0, -1))
    s = {v: v - 1 for v in vals}
    for p in range(2, r + 1):
        if s[p] > s[p - 1]:
            sp, p2 = s[p - 1], p * p
            for v in vals:
                if v < p2:
                    break
                s[v] -= s[v // p] - sp
    return s


def mobius_upto(n: int) -> list[int]:
    mu = [1] * (n + 1)
    mu[0] = 0
    for p in primes_upto(n):
        for k in range(p, n + 1, p):
            mu[k] = -mu[k]
        for k in range(p * p, n + 1, p * p):
            mu[k] = 0
    return mu


def squarefree_count(x: int) -> int:
    """#{1 <= n <= x : n squarefree} = sum_d mu(d) floor(x / d^2)."""
    r = math.isqrt(x)
    mu = mobius_upto(r)
    return sum(mu[d] * (x // (d * d)) for d in range(1, r + 1))


# ------------------------------------------------------------- series


def harmonic(n: int) -> float:
    if n <= 200:
        return math.fsum(1.0 / k for k in range(1, n + 1))
    inv2 = 1.0 / (n * n)
    return (math.log(n) + _EULER_GAMMA + 0.5 / n
            - inv2 * (1 / 12 - inv2 * (1 / 120 - inv2 / 252)))


def squarefree_harmonic(x: int) -> float:
    """sum of 1/n over squarefree n <= x, via sum_d mu(d)/d^2 H(x // d^2)."""
    r = math.isqrt(x)
    mu = mobius_upto(r)
    return math.fsum(mu[d] * harmonic(x // (d * d)) / (d * d) for d in range(1, r + 1) if mu[d])


def digamma(x: float) -> float:
    acc = 0.0
    while x < 20.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    return acc + math.log(x) - 0.5 / x - inv2 * (1 / 12 - inv2 * (1 / 120 - inv2 / 252))


_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


def zeta(s: float, n_terms: int = 20) -> float:
    """Riemann zeta for real s > 1 by Euler-Maclaurin summation."""
    n = n_terms
    total = math.fsum(k ** -s for k in range(1, n))
    total += n ** (1 - s) / (s - 1) + 0.5 * n ** -s
    rising, fact = s, 2.0
    for j, b in enumerate(_BERNOULLI, start=1):
        total += b / fact * rising * n ** (-s - 2 * j + 1)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        fact *= (2 * j + 1) * (2 * j + 2)
    return total


def prime_zeta(s: float) -> float:
    """sum over primes of p^-s = sum_k mu(k)/k log zeta(ks)."""
    mu = mobius_upto(80)
    total, k = 0.0, 1
    while 2.0 ** (-k * s) > 1e-18:
        if mu[k]:
            total += mu[k] / k * math.log(zeta(k * s))
        k += 1
    return total


def log_zeta_derivative(s: float) -> float:
    """-zeta'(s)/zeta(s) by a central difference of the zeta above."""
    h = 1e-5
    return -(zeta(s + h) - zeta(s - h)) / (2 * h) / zeta(s)


# ------------------------------------------------------------- residue images


def sum_of_two_squares_measure(m: int) -> Fraction:
    """Measure of pi_m(image(x^2+y^2)): by CRT, the product over the prime
    powers q || m of the share of classes mod q that are x^2+y^2 mod q."""
    out = Fraction(1)
    for p, e in factorize(m).items():
        q = p**e
        out *= Fraction(len({(x * x + y * y) % q for x in range(q) for y in range(q)}), q)
    return out


def kfree2_measure(m: int) -> Fraction:
    """Level measure of the squarefree numbers: a class mod m avoids p^2
    for every p^2 | m, so the measure is prod (1 - 1/p^2) over p^2 | m."""
    out = Fraction(1)
    for p, e in factorize(m).items():
        if e >= 2:
            out *= 1 - Fraction(1, p * p)
    return out


def truncated_squarefree_1mod4(bound: int, levels) -> dict[int, Fraction]:
    """Level measures of {n <= bound squarefree, n = 1 mod 4} mod each level."""
    sq = bytearray([1]) * (bound + 1)
    for p in primes_upto(math.isqrt(bound)):
        sq[p * p :: p * p] = bytes(len(range(p * p, bound + 1, p * p)))
    members = [n for n in range(1, bound + 1, 4) if sq[n]]
    return {m: Fraction(len({n % m for n in members}), m) for m in levels}


def poly_image_size(coeffs, m: int) -> int:
    """|{f(x) mod m}| with coeffs lowest degree first."""
    out = set()
    for x in range(m):
        v = 0
        for c in reversed(coeffs):
            v = (v * x + c) % m
        out.add(v)
    return len(out)


def coprime_pairs_size(m: int) -> int:
    return sum(1 for a in range(m) for b in range(m) if math.gcd(math.gcd(a, b), m) == 1)


def is_crt_product(size_of, m: int) -> bool:
    """Whether the image at m has the size of the product of its images at
    the prime-power components of m."""
    return size_of(m) == math.prod(size_of(p**e) for p, e in factorize(m).items())


# ------------------------------------------------------------- sets of multiples


def nonmultiples_density(moduli) -> Fraction:
    """Haar density of the integers divisible by none of the moduli, i.e.
    the non-multiples in one lcm period divided by the period.

    Conditions on the p-adic valuation of n one prime at a time: given
    v_p(n) = v, a modulus p^a d' (p not dividing d') divides n iff a <= v
    and d' divides the p-free part, which is again Haar distributed. This
    is a different algorithm from inclusion-exclusion over subsets."""

    @lru_cache(maxsize=None)
    def dens(mods: frozenset) -> Fraction:
        if not mods:
            return Fraction(1)
        if 1 in mods:
            return Fraction(0)
        p = max(max(factorize(d)) for d in mods)
        split = []
        for d in mods:
            a = 0
            while d % p == 0:
                d //= p
                a += 1
            split.append((a, d))
        top = max(a for a, _ in split)
        total = Fraction(0)
        for v in range(top + 1):
            weight = Fraction(1, p**v) if v == top else Fraction(p - 1, p ** (v + 1))
            total += weight * dens(_minimal(frozenset(d for a, d in split if a <= v)))
        return total

    return dens(_minimal(frozenset(moduli)))


def _minimal(mods: frozenset) -> frozenset:
    """Drop moduli that are multiples of another modulus in the family."""
    return frozenset(d for d in mods if not any(e != d and d % e == 0 for e in mods))


# ------------------------------------------------------------- harness facts


def at_most_k_prime_factors(primes, k: int) -> Fraction:
    """Share of residues mod prod(primes) divisible by at most k of them."""
    total = Fraction(0)
    for j in range(k + 1):
        for chosen in combinations(primes, j):
            term = Fraction(1)
            for p in primes:
                term *= Fraction(1, p) if p in chosen else Fraction(p - 1, p)
            total += term
    return total


def dirichlet_missing(m_max: int, prime_bound: int) -> int:
    """Classes mod m (2 <= m <= m_max) coprime to m, or equal to a prime
    dividing m, that no prime up to the bound hits."""
    ps = primes_upto(prime_bound)
    missing = 0
    for m in range(2, m_max + 1):
        want = {a for a in range(m) if math.gcd(a, m) == 1}
        want |= {p % m for p in factorize(m)}
        for p in ps:
            want.discard(p % m)
            if not want:
                break
        missing += len(want)
    return missing


def spiral(n: int) -> int:
    """1 -> 0, 2 -> 1, 3 -> -1, 4 -> 2, ..."""
    return n // 2 if n % 2 == 0 else -(n // 2)


def spiral_cover_size(a: int, terms: int) -> int:
    """Classes mod a^terms covered by the cosets spiral(n) + a^n Z. Two such
    cosets meet only when the finer one lies inside the coarser one, so the
    union is the disjoint union of the cosets not inside an earlier one."""
    covered = 0
    for n in range(1, terms + 1):
        if all((spiral(n) - spiral(j)) % a**j for j in range(1, n)):
            covered += a ** (terms - n)
    return covered


def min_hitting_set_size(supports) -> int:
    universe = sorted(set().union(*map(set, supports)))
    for size in range(1, len(universe) + 1):
        for combo in combinations(universe, size):
            if all(set(s) & set(combo) for s in supports):
                return size
    return len(universe)


def legendre(n: int, p: int) -> int:
    """v_p(n!)."""
    v, q = 0, p
    while q <= n:
        v += n // q
        q *= p
    return v
