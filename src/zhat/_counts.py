"""Level counts |pi_m(X)| of exact-mode sets without a mask over
(Z/m)^dim: the one CRT combiner, in pure Python.

A count is inclusion-exclusion over the leaves of the set's top union,
whose images mod m are CRT products:

- a local atom (cong, one class a of multiples as cong(0, a), kfree,
  coprime(n >= 2), the units of primes, image) is one local condition at
  each prime power q || m, (dz, r, d, imgs) with dz and d powers of p:
  x mod dz is not all zero (no condition when dz is 0), every coordinate
  of x is r mod d, and x (dimension 1) lies in the image mod q of each
  image atom in imgs;
- a clopen subtree is a tuple of pieces (node, period L), each the
  condition that x mod g = gcd(m, L) lies in the piece's image mod g.

A term, the intersection of some leaves' images, is (conditions by prime,
pieces), reduced mod m, so equal terms merge. Its count is a product of
local counts and of one masked count per set of pieces that share primes.
The finitely many classes of finite, coprime(1) and of the primes dividing
m are points, each checked against every leaf. Only a clopen period box,
an image's values mod q and the counts that read them are numpy tables;
setdsl imports this module when it first counts a level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _primes
from ._ie import IE_TERM_BUDGET
from ._primes import RESIDUE_BUDGET, BudgetExceeded
from .setdsl import (
    Cong,
    Coprime,
    FiniteSet,
    KFree,
    Multiples,
    PolyImage,
    Primes,
    SetExpr,
    Union,
    _clopen_pieces,
    _crt_and,
    _finite_coprime,
    _local_exponent,
    _piece_image,
    _poly_values_mod,
    _prime_groups,
)

_FULL = ((), frozenset())  # the term of no condition: all of (Z/m)^dim
_NO_IMAGE = frozenset()


@dataclass(frozen=True)
class _CountPlan:
    leaves: tuple  # local atoms, and clopen leaves as tuples of pieces
    points: tuple  # the finite and primes atoms
    width: int  # the local work at q is q^width


def _count_plan(expr: SetExpr, dim: int) -> _CountPlan:
    leaves, points, todo = [], [], [expr]
    while todo:
        node = _finite_coprime(todo.pop())
        if isinstance(node, Union):
            todo += [node.b, node.a]
        elif isinstance(node, Multiples):
            leaves += [Cong(0, a) for a in node.moduli]
        elif isinstance(node, FiniteSet):
            points.append(node)
        elif isinstance(node, (Cong, KFree, Coprime, PolyImage, Primes)):
            leaves.append(node)  # for primes, its units
            if isinstance(node, Primes):
                points.append(node)
        else:
            leaves.append(_clopen_pieces(node))
    width = max([dim] + [n.arity for n in leaves if isinstance(n, PolyImage)])
    return _CountPlan(tuple(leaves), tuple(points), width)


def level_count(expr: SetExpr, dim: int, m: int, tables: dict) -> int:
    """|pi_m(X)| for an exact-mode tree and m >= 1: m^dim less the
    complement of the union of the leaves' images, which is one
    inclusion-exclusion per group of leaves sharing primes times q^dim at
    each prime no leaf constrains, plus the points outside every leaf's
    image. tables keeps the plan and the tables it reads for later
    levels. BudgetExceeded when the local work, the sum of q^w over the
    prime powers q || m (w the dimension, or an image's arity if larger),
    is over RESIDUE_BUDGET."""
    plan = tables.get("plan")
    if plan is None:
        plan = tables["plan"] = _count_plan(expr, dim)
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
            return m**dim
        if term is not None:
            leaves[term] = None

    def primes_of(term):
        return {p for p, _ in term[0]} | {p for pc in term[1] for p in qs if gs[pc] % p == 0}

    groups = _prime_groups(leaves, primes_of)
    complement = math.prod(q**dim for p, q in qs.items() if not any(p in gp for gp, _ in groups))
    for primes, members in groups:
        complement *= sum(c * _term_count(term, primes, qs, gs, dim, images, tables)
                          for term, c in _ie_terms(members).items())
    points = set()
    for atom in plan.points:
        points |= {p % m for p in qs} if isinstance(atom, Primes) else {v % m for v in atom.values}
    outside = sum(not any(_term_contains(t, x, qs, gs, images, tables) for t in leaves) for x in points)
    return m**dim - complement + outside


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
    intersections dropped. Leaves fold in one at a time, as in _ie_fold."""
    coeffs = {_FULL: 1}
    for leaf in leaves:
        nxt = dict(coeffs)
        for term, c in coeffs.items():
            meet = _meet(term, leaf)
            if meet is None:
                continue
            v = nxt.get(meet, 0) - c
            if v:
                nxt[meet] = v
            else:
                del nxt[meet]
        if len(nxt) > IE_TERM_BUDGET:
            raise BudgetExceeded(f"inclusion-exclusion over {len(leaves)} leaves needs more than "
                                 f"{IE_TERM_BUDGET} distinct terms")
        coeffs = nxt
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


def _term_count(term: tuple, primes: set, qs: dict, gs: dict, dim: int, images: dict,
                tables: dict) -> int:
    """A term's count over the primes of its group."""
    conds = dict(term[0])
    total, rest = 1, set(primes)
    for comp, pieces in _prime_groups(term[1], lambda pc: {p for p in qs if gs[pc] % p == 0}):
        total *= _clopen_count(comp, pieces, conds, qs, gs, dim, images, tables)
        rest -= comp
    for p in rest:
        total *= _local_count(conds[p], qs[p], dim, images) if p in conds else qs[p] ** dim
    return total


def _clopen_count(primes: set, pieces: list, conds: dict, qs: dict, gs: dict, dim: int,
                  images: dict, tables: dict) -> int:
    """The count over the primes of pieces that share primes: the classes
    mod M, the product of their q, in every piece's image and meeting the
    local conditions at those primes. One piece alone is its own count;
    else a mask over (Z/D)^dim, D the lcm of the moduli involved, which
    divides m."""
    big = math.prod(qs[p] for p in primes)
    local = [(qs[p], conds[p]) for p in primes if p in conds]
    if len(pieces) == 1 and not local:
        g = gs[pieces[0]]
        return _piece_image(pieces[0], g, dim, tables)[1] * (big // g) ** dim
    import numpy as np

    tiles = [(gs[pc], _piece_image(pc, gs[pc], dim, tables)[0]) for pc in pieces]
    for q, (dz, r, d, imgs) in local:
        e = q if imgs else max(dz, d)
        cell = np.zeros((e,) * dim, dtype=bool)
        cell[(slice(r, None, d),) * dim] = True
        if dz:
            cell[(slice(None, None, dz),) * dim] = False
        for atom in imgs:  # dimension 1
            cell &= _image_mod(atom, q, images)[0]
        tiles.append((e, cell.ravel()))
    span = math.lcm(*(t for t, _ in tiles))
    if span**dim > RESIDUE_BUDGET:
        raise BudgetExceeded(f"clopen component mod {span}, dim={dim} exceeds budget {RESIDUE_BUDGET}")
    return int(np.count_nonzero(_crt_and(span, dim, tiles))) * (big // span) ** dim


def _term_contains(term: tuple, x: int, qs: dict, gs: dict, images: dict, tables: dict) -> bool:
    """Whether the class x of a point (dimension 1) lies in the term."""
    return (all(x % d == r and not (dz and x % dz == 0)
                and all(_image_mod(atom, qs[p], images)[0][x % qs[p]] for atom in imgs)
                for p, (dz, r, d, imgs) in term[0])
            and all(_piece_image(pc, gs[pc], 1, tables)[0][x % gs[pc]] for pc in term[1]))
