"""Polynomial images mod a prime power by Hensel descent: image_mask(f, n,
p, k) is the mask over Z/p^k of f's values on (Z/p^k)^n, one 0/1 byte per
class in a bytearray, found from the grid (Z/p)^n and the classes where
the gradient of f vanishes, not from all p^(kn) points. A piece of at most
_INT_BATCH points is evaluated with Python ints, which needs no numpy; a
larger one in numpy chunks of _CHUNK points that write into the same
bytearray. The exact engine (_counts) imports this module when a level
first needs the image of an image atom.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING

from ._primes import RESIDUE_BUDGET, BudgetExceeded

if TYPE_CHECKING:
    import numpy as np

    from .setdsl import Polynomial

# loading numpy takes 60-90 ms on a 2-vCPU Xeon, more than a piece of 2^12
# points costs in Python ints; past that numpy wins (x^3 + x at 10^4
# points: 4.2 ms in Python ints, 0.5 ms in numpy)
_INT_BATCH = 1 << 12
# points per numpy chunk and per piece of classes waiting to split: about
# this many classes wait per depth, at 8 bytes per coordinate each
_CHUNK = 1 << 16


def image_mask(poly: Polynomial, n: int, p: int, k: int) -> bytearray:
    """Mask over Z/q, q = p^k, of poly's values on (Z/q)^n, one 0/1 byte per
    class, by Hensel descent from the grid (Z/p)^n. For a class a mod p^j
    let t = min_i v_p(d_i poly(a)). If t < j, poly maps a + p^j Z_p^n onto
    poly(a) + p^(j+t) Z_p (the strong Hensel lemma along a coordinate line
    where t is attained), marked by one slice; else a splits into its p^n
    classes mod p^(j+1). At j = k a class gives its one value. Only the
    classes where the gradient vanishes mod p^j are refined, so the local
    work is the p^n grid plus p^n per refined class, charged to
    RESIDUE_BUDGET as the class is found. The classes to split wait in
    pieces of at most _CHUNK points, taken last in first out, so that about
    _CHUNK classes per depth wait at once. Where the descent would cost
    more than the whole grid (Z/q)^n, that grid is evaluated instead, so
    the work never exceeds twice q^n. The descent stops once every class
    is hit."""
    q, grid = p**k, p**n
    mask = bytearray(q)
    terms = [(e[:n], c) for e, c in poly.terms]
    partials = [[(e[:i] + (e[i] - 1,) + e[i + 1:], c * e[i]) for e, c in terms if e[i]] for i in range(n)]
    # poly and its partials as [(((i, e), ...), c)] over the powers e >= 1
    polys = [[(tuple((i, e) for i, e in enumerate(exps) if e), c) for exps, c in f] for f in [terms, *partials]]
    if not any(partials):  # a constant
        mask[sum(c for _, c in polys[0]) % q] = 1
        return mask
    limit = min(q**n, RESIDUE_BUDGET)
    todo, work, zero = [(1, [(0,) * n])], grid, 0  # (j, classes mod p^(j-1) to split)
    while todo and work <= limit:
        j, classes = todo.pop()
        split = _descend(mask, polys, classes, p, j, k, (limit - work) // grid)
        zero = mask.find(0, zero)  # the first miss only moves up
        if zero < 0:
            return mask
        work += len(split) * grid
        piece = max(1, _CHUNK // grid)
        todo += [(j + 1, split[i:i + piece]) for i in range(0, len(split), piece)]
    if work <= limit:
        return mask
    if q**n > RESIDUE_BUDGET:
        raise BudgetExceeded(f"local work {work} of image({poly}) mod {q} exceeds budget {RESIDUE_BUDGET}")
    _descend(mask, polys, [(0,) * n], q, 1, 1, 0)  # the grid (Z/q)^n as one depth
    return mask


def _descend(mask: bytearray, polys: list, classes, p: int, j: int, k: int, room: int):
    """One depth of image_mask: the classes mod p^j that split the given
    classes mod p^(j-1) are marked, or returned to split in their turn, in
    Python ints up to _INT_BATCH points and in numpy above. Past room
    classes to split the numpy chunks stop, as the descent is then over."""
    if len(classes) * p ** (len(polys) - 1) <= _INT_BATCH:
        return _descend_ints(mask, polys, classes, p, j, k)
    return _descend_numpy(mask, polys, classes, p, j, k, room)


def _descend_ints(mask: bytearray, polys: list, classes, p: int, j: int, k: int) -> list:
    """_descend in Python ints, the classes to split a list of tuples."""
    q, pj, step = p**k, p**j, p ** (j - 1)
    n = len(polys) - 1
    points = [tuple(a + step * y for a, y in zip(base, ys))
              for base in (classes.tolist() if hasattr(classes, "tolist") else classes)
              for ys in itertools.product(range(p), repeat=n)]
    values = [[sum(c * math.prod(pow(x[i], e, q) for i, e in mono) for mono, c in terms) % q for x in points]
              for terms in (polys if j < k else polys[:1])]
    cosets: dict = {}
    split = []
    for x, v, *grad in zip(points, *values):
        d = pj if j == k else math.gcd(pj, *grad)  # p^t, t capped at j
        if d == pj and j < k:
            split.append(x)
        else:
            s = min(pj * d, q)
            cosets.setdefault(s, set()).add(v % s)
    for s, residues in cosets.items():
        ones = b"\x01" * (q // s)
        for r in residues:
            mask[r::s] = ones
    return split


def _descend_numpy(mask: bytearray, polys: list, classes, p: int, j: int, k: int,
                   room: int) -> np.ndarray:
    """_descend in numpy chunks of _CHUNK points in row-major order, writing
    into the same bytearray; the classes to split an int64 array with one
    row per class."""
    import numpy as np

    q, pj, step, n = p**k, p**j, p ** (j - 1), len(polys) - 1
    view = np.frombuffer(mask, dtype=bool)
    bases = np.asarray(classes, dtype=np.int64).reshape(-1, n)
    size, split = len(bases) * p**n, [bases[:0]]
    for lo in range(0, size, _CHUNK):
        hi = min(size, lo + _CHUNK)
        if j == 1:  # the grid (Z/p)^n
            points = list(np.unravel_index(np.arange(lo, hi), (p,) * n))
        else:
            which, rest = np.divmod(np.arange(lo, hi), p**n)
            points = [bases[which, i] + step * y for i, y in enumerate(np.unravel_index(rest, (p,) * n))]
            del which, rest
        values = _values(polys if j < k else polys[:1], points, q)
        if j == k:
            view[values[0]] = True
            continue
        d = pj
        for g in values[1:]:
            d = np.gcd(d, g)  # p^t, t capped at j
        lifts = d < pj
        s = np.minimum(d[lifts] * pj, q)
        v = values[0][lifts] % s
        for stride in np.unique(s).tolist():
            view.reshape(-1, stride)[:, np.unique(v[s == stride])] = True
        rows = np.flatnonzero(~lifts)
        split.append(np.stack([x[rows] for x in points], axis=1))
        room -= len(rows)
        if room < 0:
            break
    return np.concatenate(split)


def _values(polys: list, points: list, q: int) -> list:
    """Each polynomial of polys mod q at the points, given as one array per
    coordinate, each power of a coordinate taken once and a coefficient 1
    not multiplied in. Callers check the local work first, so q <= the
    residue budget and every product, reduced mod q, fits in int64."""
    import numpy as np

    powers: dict = {}
    out = []
    for terms in polys:
        val = np.zeros(len(points[0]), dtype=np.int64)
        for mono, c in terms:
            for i, e in mono:
                if (i, e) not in powers:
                    powers[i, e] = _powmod(points[i], e, q)
            term, rest = (powers[mono[0]], mono[1:]) if mono and c % q == 1 else (c % q, mono)
            for key in rest:
                term = term * powers[key]
                term %= q
            val += term
        val %= q
        out.append(val)
    return out


def _powmod(base: np.ndarray, e: int, q: int) -> np.ndarray:
    """base^e mod q elementwise, for 0 <= base < q and e >= 1: the bits of e
    after the leading one, from the top, each square and maybe multiply."""
    out = base
    for bit in bin(e)[3:]:
        out = out * out
        out %= q
        if bit == "1":
            out *= base
            out %= q
    return out
