"""The exact engine: level counts |pi_m(X)| and residue masks pi_m(X) of
exact-mode sets, both from one expansion of the level into CRT terms.

A set is exact exactly when setdsl._plan, built once at compile time,
expands it: the leaves of its top union, its points and its width. The
image mod m is the union of the images of the leaves, each a CRT product:

- a local atom (cong, one class a of multiples as cong(0, a), kfree,
  coprime(n >= 2), the units of primes, image) is one local condition at
  each prime power q || m, (dz, r, d, imgs) with dz and d powers of p:
  x mod dz is not all zero (no condition when dz is 0), every coordinate
  of x is r mod d, and x (dimension 1) lies in the image mod q of each
  image atom in imgs;
- a clopen subtree is a tuple of pieces (node, period L) on coprime
  periods (a complement of multiples one per coprime group of its moduli),
  each the condition that x mod g = gcd(m, L) lies in the piece's image
  mod g; the pieces' period boxes hold at most RESIDUE_BUDGET cells in all.

A term, the intersection of some leaves' images, is (conditions by prime,
pieces), reduced mod m, so equal terms merge. The finitely many classes of
finite, coprime(1) and of the primes dividing m are points. A count is
inclusion-exclusion over the leaves' terms, each a product of local counts
and of one masked count per set of pieces that share primes, plus the
points outside every leaf; a mask over (Z/m)^dim, built only for
residue_image, is the union of the leaves' CRT products of their local
tiles, and the points. Only the tiles, a clopen period box and an image's
values mod q are numpy tables; setdsl imports this module when it first
counts a level or builds an exact image.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from . import _primes
from ._ie import IE_TERM_BUDGET, _ie_fold
from ._primes import RESIDUE_BUDGET, BudgetExceeded
from .setdsl import Cong, PolyImage, Primes, SetExpr, _box_mask, _coprime_groups, _local_exponent, _project

if TYPE_CHECKING:
    import numpy as np

    from .setdsl import Polynomial, _Plan

_FULL = ((), frozenset())  # the term of no condition: all of (Z/m)^dim
_NO_IMAGE = frozenset()


def _level_terms(plan: _Plan, dim: int, m: int, tables: dict):
    """The level m of an exact-mode set's plan as (leaves, points, qs, gs,
    images): the distinct nonempty leaf terms ({_FULL: None} when a leaf is
    all of (Z/m)^dim), the points' classes, {p: q} over q || m, the
    g = gcd(m, L) of each piece and the image masks mod q. tables keeps
    what it reads for later levels. BudgetExceeded when the local work,
    the sum of q^w over q || m (plan.width), is over RESIDUE_BUDGET."""
    pps = _primes.prime_powers_of(m)
    work = sum(q**plan.width for _, _, q in pps)
    if work > RESIDUE_BUDGET:
        raise BudgetExceeded(f"local work {work} at level m={m}, dim={dim} exceeds budget {RESIDUE_BUDGET}")
    qs = {p: q for p, _, q in pps}
    gs: dict = {}  # the g = gcd(m, L) of each piece
    images = tables.setdefault("images", {})
    leaves = {}
    for atom in plan.leaves:
        term = _leaf_term(atom, m, pps, dim, gs, images, tables)
        if term == _FULL:
            leaves = {_FULL: None}
            break
        if term is not None:
            leaves[term] = None
    points = set()
    for atom in plan.points:
        points |= {p % m for p in qs} if isinstance(atom, Primes) else {v % m for v in atom.values}
    return leaves, points, qs, gs, images


def level_count(plan: _Plan, dim: int, m: int, tables: dict) -> int:
    """|pi_m(X)| for an exact-mode set's plan and m >= 1 (_level_terms):
    m^dim less the complement of the union of the leaves' images, which is
    one inclusion-exclusion per group of leaves sharing primes times q^dim
    at each prime no leaf constrains, plus the points outside every leaf's
    image."""
    leaves, points, qs, gs, images = _level_terms(plan, dim, m, tables)
    if _FULL in leaves:
        return m**dim
    groups = _coprime_groups(leaves, lambda t: math.lcm(*(p for p, _ in t[0]), *(gs[pc] for pc in t[1])))
    complement = math.prod(q**dim for p, q in qs.items() if all(top % p for top, _ in groups))
    for top, members in groups:
        complement *= sum(c * _term_count(term, top, qs, gs, dim, images, tables)
                          for term, c in _ie_terms(members).items())
    outside = sum(not any(_term_contains(t, x, qs, gs, images, tables) for t in leaves) for x in points)
    return m**dim - complement + outside


def level_mask(plan: _Plan, dim: int, m: int, tables: dict) -> np.ndarray:
    """pi_m(X) as a flat row-major mask over (Z/m)^dim, for an exact-mode
    set's plan and m^dim within the residue budget: the union over the leaves'
    terms (_level_terms) of the CRT product of their local tiles and piece
    tiles, and the points."""
    import numpy as np

    leaves, points, qs, gs, images = _level_terms(plan, dim, m, tables)
    out = np.zeros(m**dim, dtype=bool)
    for conds, pieces in leaves:
        out |= _crt_and(m, dim, [_cond_tile(qs[p], cond, dim, images) for p, cond in conds]
                        + [(gs[pc], _piece_image(pc, gs[pc], dim, tables)[0]) for pc in pieces])
    out[list(points)] = True
    return out


def _leaf_term(atom, m: int, pps, dim: int, gs: dict, images: dict, tables: dict):
    """A leaf's image mod m as a term; None when it is empty."""
    if isinstance(atom, tuple):
        active = []
        for piece in atom:
            g = gs[piece] = math.gcd(m, piece[1])
            if not _piece_image(piece, g, dim, tables)[1]:
                return None
            if g > 1:
                active.append(piece)
        return (), frozenset(active)
    conds = ((p, _local_cond(atom, p, j, q, images)) for p, j, q in sorted(pps))
    return tuple((p, c) for p, c in conds if c is not None), frozenset()


def _local_cond(atom: SetExpr, p: int, j: int, q: int, images: dict):
    """A local atom's image mod q = p^j as a condition; None when it is all
    of (Z/q)^dim."""
    if isinstance(atom, Cong):
        d = math.gcd(q, atom.m0)
        return (0, atom.r % d, d, _NO_IMAGE) if d > 1 else None
    if isinstance(atom, PolyImage):
        # f commutes with Z/m = prod Z/q: its image is the product of the
        # local images, q^arity evaluations each
        return None if _image_mod(atom, q, images)[1] == q else (0, 0, 1, frozenset([atom]))
    # kfree, coprime and the units of primes: outside 0 + p^k Z^dim, which
    # every class mod q meets when j < k
    k = _local_exponent(atom)
    return (p**k, 0, 1, _NO_IMAGE) if j >= k else None


def _image_mod(atom: PolyImage, q: int, images: dict):
    """(mask over Z/q, count) of an image atom's values mod q, the mask None
    when every class is hit. images keeps the masks of later levels'
    prime powers while their moduli sum to at most the residue budget."""
    if (atom, q) not in images:
        if sum(k[1] for k in images) + q > RESIDUE_BUDGET:
            images.clear()
        hit = _poly_values_mod(atom.poly, q, atom.arity)
        n = int(hit.sum())
        images[atom, q] = (hit if n < q else None), n
    return images[atom, q]


def _ie_terms(leaves: list) -> dict:
    """{term: c}: the sum over subsets J of the leaves of (-1)^|J| times the
    intersection of J's images, collected per distinct term, empty
    intersections dropped: the leaves fold in one at a time by _ie_fold."""
    over_budget = BudgetExceeded(f"inclusion-exclusion over {len(leaves)} leaves needs more than "
                                 f"{IE_TERM_BUDGET} distinct terms")
    coeffs = {_FULL: 1}
    for leaf in leaves:
        coeffs = _ie_fold(coeffs, leaf, _meet, over_budget)
    return coeffs


def _meet(a: tuple, b: tuple):
    """The intersection of two terms; None when it is empty at a prime."""
    conds = dict(a[0])
    for p, c in b[0]:
        if p in conds:
            c = _meet_local(conds[p], c)
            if c is None:
                return None
        conds[p] = c
    return tuple(sorted(conds.items())), a[1] | b[1]


def _meet_local(a: tuple, b: tuple):
    """The intersection of two conditions at one prime: the class of the
    larger d, the nonzero condition of the smaller power, dropped when the
    class decides it, and both sets of images; None when the classes or
    the class and the nonzero condition disagree."""
    (dz1, r1, d1, imgs1), (dz2, r2, d2, imgs2) = sorted((a, b), key=lambda c: -c[2])
    if (r1 - r2) % d2:
        return None
    dz = min(dz1 or dz2, dz2 or dz1)
    if dz and dz <= d1:  # x = r1 mod d1 fixes x mod dz
        if r1 % dz == 0:
            return None
        dz = 0
    return dz, r1, d1, imgs1 | imgs2


def _local_count(cond: tuple, q: int, dim: int, images: dict) -> int:
    """The classes mod q meeting a condition: those r mod d, less those 0
    mod dz > d (only r = 0 has any), within every image."""
    dz, r, d, imgs = cond
    if not imgs:
        return (q // d) ** dim - ((q // dz) ** dim if dz and r == 0 else 0)
    if len(imgs) == 1 and d == 1 and not dz:
        return _image_mod(next(iter(imgs)), q, images)[1]
    hit = None  # dimension 1
    for atom in imgs:
        mask = _image_mod(atom, q, images)[0]
        hit = mask if hit is None else hit & mask
    return int(hit[r::d].sum()) - (int(hit[::dz].sum()) if dz and r == 0 else 0)


def _term_count(term: tuple, top: int, qs: dict, gs: dict, dim: int, images: dict,
                tables: dict) -> int:
    """A term's count over the primes of its group, those dividing top."""
    conds = dict(term[0])
    groups = _coprime_groups(term[1], gs.get)
    total = 1
    for span, pieces in groups:
        total *= _clopen_count(span, pieces, conds, qs, gs, dim, images, tables)
    for p, q in qs.items():
        if top % p == 0 and all(span % p for span, _ in groups):
            total *= _local_count(conds[p], q, dim, images) if p in conds else q**dim
    return total


def _clopen_count(top: int, pieces: list, conds: dict, qs: dict, gs: dict, dim: int,
                  images: dict, tables: dict) -> int:
    """The count over the primes of pieces that share primes, those
    dividing top: the classes mod M, the product of their q, in every
    piece's image and meeting the local conditions at those primes. One
    piece alone is its own count; else a mask over (Z/D)^dim, D the lcm of
    the moduli involved, which divides m."""
    big = math.prod(q for p, q in qs.items() if top % p == 0)
    local = [(p, c) for p, c in conds.items() if top % p == 0]
    if len(pieces) == 1 and not local:
        g = gs[pieces[0]]
        return _piece_image(pieces[0], g, dim, tables)[1] * (big // g) ** dim
    import numpy as np

    tiles = ([_cond_tile(qs[p], cond, dim, images) for p, cond in local]
             + [(gs[pc], _piece_image(pc, gs[pc], dim, tables)[0]) for pc in pieces])
    span = math.lcm(*(t for t, _ in tiles))
    if span**dim > RESIDUE_BUDGET:
        raise BudgetExceeded(f"clopen component mod {span}, dim={dim} exceeds budget {RESIDUE_BUDGET}")
    return int(np.count_nonzero(_crt_and(span, dim, tiles))) * (big // span) ** dim


def _cond_tile(q: int, cond: tuple, dim: int, images: dict) -> tuple[int, np.ndarray]:
    """A local condition at q as a tile (e, flat mask over (Z/e)^dim): e is
    the larger of dz and d, which the condition reads x mod, or q when it
    has images (dimension 1)."""
    import numpy as np

    dz, r, d, imgs = cond
    e = q if imgs else max(dz, d)
    cell = np.zeros((e,) * dim, dtype=bool)
    cell[(slice(r, None, d),) * dim] = True
    if dz:
        cell[(slice(None, None, dz),) * dim] = False
    for atom in imgs:  # dimension 1
        cell &= _image_mod(atom, q, images)[0]
    return e, cell.ravel()


def _term_contains(term: tuple, x: int, qs: dict, gs: dict, images: dict, tables: dict) -> bool:
    """Whether the class x of a point (dimension 1) lies in the term."""
    return (all(x % d == r and not (dz and x % dz == 0)
                and all(_image_mod(atom, qs[p], images)[0][x % qs[p]] for atom in imgs)
                for p, (dz, r, d, imgs) in term[0])
            and all(_piece_image(pc, gs[pc], 1, tables)[0][x % gs[pc]] for pc in term[1]))


def _piece_image(piece: tuple[SetExpr, int], g: int, dim: int, tables: dict) -> tuple[np.ndarray, int]:
    """The flat mask over (Z/g)^dim, g | L, of a clopen piece (node, L) mod
    g, and its count. Membership in the piece depends only on x mod L in
    every coordinate, and by CRT x + mZ covers exactly the classes x + gZ
    mod L, g = gcd(m, L): so the image mod g is the projection of one
    period box [0, L)^dim. tables keeps the box and the last projection,
    so a trace builds each box once and every level reads it."""
    if piece not in tables:
        node, level = piece
        tables[piece] = _box_mask(node, 0, level - 1, dim).ravel()
    last = tables.get((piece, "mod"))
    if last is None or last[0] != g:
        box, level = tables[piece], piece[1]
        image = box if g == level else _project(box, level, g, dim)
        last = tables[piece, "mod"] = g, image, int(image.sum())
    return last[1:]


def _crt_and(m: int, dim: int, tiles: list[tuple[int, np.ndarray]]) -> np.ndarray:
    """The CRT combiner: the flat mask of tuples in (Z/m)^dim whose reduction
    mod each e lies in that tile's mask over (Z/e)^dim. As e | m, the tile
    read at r mod e for every r < m is the tile repeated m//e times along
    each axis, so the image is the AND of the repeated tiles."""
    import numpy as np

    out = np.ones((m,) * dim, dtype=bool)
    for e, tile in tiles:
        out &= np.tile(tile.reshape((e,) * dim), (m // e,) * dim)
    return out.ravel()


def _poly_values_mod(poly: Polynomial, q: int, arity: int) -> np.ndarray:
    """Mask over Z/q of poly's values on (Z/q)^arity, evaluated in chunks of
    2^20 grid points, each in its own call so that its tables are freed
    before the next: only the mask scales with q."""
    import numpy as np

    hit = np.zeros(q, dtype=bool)
    cells = q**arity
    for start in range(0, cells, 1 << 20):
        hit[_chunk_values(poly, q, arity, start, min(cells, start + (1 << 20)))] = True
    return hit


def _chunk_values(poly: Polynomial, q: int, arity: int, lo: int, hi: int) -> np.ndarray:
    """poly mod q at the points lo..hi-1 of (Z/q)^arity in row-major order,
    each power of a coordinate taken once. Callers check the local work
    first, so q <= the residue budget and every product, reduced mod q,
    fits in int64."""
    import numpy as np

    coords = np.unravel_index(np.arange(lo, hi), (q,) * arity)
    powers: dict = {}
    val = np.zeros(hi - lo, dtype=np.int64)
    for e, c in poly.terms:
        term = c % q
        for i in range(arity):
            if e[i]:
                if (i, e[i]) not in powers:
                    powers[i, e[i]] = _powmod(coords[i], e[i], q)
                term = term * powers[i, e[i]]
                term %= q
        val += term
    val %= q
    return val


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
