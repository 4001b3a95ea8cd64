"""Set-definition language: parser, compiler, membership and box streams.

An expression denotes a subset of Z^n. Compilation yields a total
membership oracle plus the ability to compute finite-level residue images
pi_m(X) in (Z/m)^n: exactly when compilation builds the exact engine's
plan of the set (_plan), by truncated enumeration otherwise. Every box is
one stream of first-axis slabs (CompiledSet.blocks); a truncated image, a
certified subset of the true one, is the OR of its slabs' classes mod m.
Exact images and level counts |pi_m(X)| come from one expansion of the
level into CRT terms (_counts), imported when first needed; only the
functions that build a table import numpy, so importing this loads none.

Grammar (operators left-associative, equal precedence, '!' binds tightest)::

    set  := term (('|' | '&' | '\\') term)*
    term := '!' term | atom
    atom := 'cong(' int ',' posint ')' | 'kfree(' int ')' | 'primes'
          | 'coprime(' int ')' | 'image(' poly ')'
          | 'multiples(' posint {',' posint} ')'
          | 'leadingdigit(' digit ',' base ')' | 'seq(' ident ')'
          | 'finite(' int {',' int} ')' | '(' set ')'

Polynomials use variables x, y, z with integer coefficients and '^' for
powers.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, NamedTuple, NoReturn, Optional

from . import _primes
# the exception classes and the residue budget live at the numpy-free
# bottom of the import graph
from ._primes import (
    RESIDUE_BUDGET,
    BudgetExceeded,
    DimensionMismatch,
    DslError,
    DslSyntaxError,
    DslValueError,
    Record,
    _mark_classes,
    _segments,
)

if TYPE_CHECKING:
    import numpy as np

EXACT = "exact"
TRUNCATED = "truncated"

ASSUMES_DIRICHLET = "assumes-dirichlet"

# the most classes m^dim one residue image may enumerate is RESIDUE_BUDGET,
# which also bounds a level count's local work (CompiledSet.residue_count)
# and the cells of an exact set's clopen period boxes (_plan); the most
# cells one box table may hold is _primes.BOX_BUDGET, the sieve's budget too


class ModeError(DslError):
    pass


# ------------------------------------------------------------- polynomials

_VAR_NAMES = ("x", "y", "z")


class Polynomial(Record):
    """Sparse integer polynomial in x, y, z: terms maps exponent triples to
    nonzero coefficients."""

    _fields = ("terms",)

    @classmethod
    def from_dict(cls, d: dict[tuple[int, int, int], int]) -> "Polynomial":
        clean = {e: c for e, c in d.items() if c != 0}
        order = sorted(clean, key=lambda e: (-sum(e), tuple(-v for v in e)))
        return cls(tuple((e, clean[e]) for e in order))

    @property
    def arity(self) -> int:
        a = 0
        for e, _ in self.terms:
            for i in range(3):
                if e[i] > 0:
                    a = max(a, i + 1)
        return a

    @property
    def degree(self) -> int:
        return max((sum(e) for e, _ in self.terms), default=0)

    def evaluate(self, args: tuple[int, ...], mod: int | None = None) -> int:
        full = tuple(args) + (0, 0, 0)
        total = 0
        for e, c in self.terms:
            t = c
            for i in range(3):
                if e[i]:
                    t *= pow(full[i], e[i], mod) if mod else full[i] ** e[i]
            total += t
        return total % mod if mod else total

    def univariate_coeffs(self) -> list[int]:
        """Coefficients c_0..c_d when arity <= 1."""
        if self.arity > 1:
            raise ValueError("not univariate")
        coeffs = [0] * (self.degree + 1)
        for e, c in self.terms:
            coeffs[e[0]] += c
        return coeffs

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        out = []
        for i, (e, c) in enumerate(self.terms):
            body = []
            for v, name in zip(e, _VAR_NAMES):
                if v == 1:
                    body.append(name)
                elif v > 1:
                    body.append(f"{name}^{v}")
            mag = abs(c)
            if not body or mag != 1:
                body.insert(0, str(mag))
            txt = "*".join(body)
            if i == 0:
                out.append(f"-{txt}" if c < 0 else txt)
            else:
                out.append(f"- {txt}" if c < 0 else f"+ {txt}")
        return " ".join(out)


# ------------------------------------------------------------- expression AST


class SetExpr(Record):
    """Base class for expression nodes. `dim_spec` is the fixed dimension of
    the node, or None when the node is valid in any dimension."""

    def dim_spec(self) -> Optional[int]:
        return 1

    def children(self) -> tuple["SetExpr", ...]:
        return ()


class Cong(SetExpr):
    _fields = ("r", "m0")

    def _check(self):
        if self.m0 < 1:
            raise DslValueError(f"cong modulus must be >= 1, got {self.m0}")


class KFree(SetExpr):
    _fields = ("k",)

    def _check(self):
        if self.k < 2:
            raise DslValueError(f"kfree exponent must be >= 2, got {self.k}")


class Primes(SetExpr):
    pass


class Coprime(SetExpr):
    _fields = ("n",)

    def _check(self):
        if not 1 <= self.n <= 3:
            raise DslValueError(f"coprime dimension must be 1..3, got {self.n}")

    def dim_spec(self) -> Optional[int]:
        return self.n


class PolyImage(SetExpr):
    _fields = ("poly",)

    @property
    def arity(self) -> int:
        return max(self.poly.arity, 1)


class Multiples(SetExpr):
    _fields = ("moduli",)

    def _check(self):
        if not self.moduli or any(a < 1 for a in self.moduli):
            raise DslValueError("multiples needs positive moduli")

    def dim_spec(self) -> Optional[int]:
        return None  # a*Z^n makes sense in every dimension


class LeadingDigit(SetExpr):
    _fields = ("d", "base")

    def _check(self):
        if self.base < 2 or not 1 <= self.d < self.base:
            raise DslValueError(f"leadingdigit needs 1 <= d < base, got d={self.d} base={self.base}")


class Seq(SetExpr):
    _fields = ("name",)


class FiniteSet(SetExpr):
    _fields = ("values",)


class _Binary(SetExpr):
    """The body the three binary operators share; each subclass names its
    operator symbol op, the one the parser reads and to_text writes."""

    _fields = ("a", "b")

    def children(self):
        return (self.a, self.b)

    def dim_spec(self):
        return _unify_dims(self.a, self.b)


class Union(_Binary):
    op = "|"


class Intersection(_Binary):
    op = "&"


class Difference(_Binary):
    op = "\\"


_BINARY = {cls.op: cls for cls in (Union, Intersection, Difference)}


class Complement(SetExpr):
    _fields = ("a",)

    def children(self):
        return (self.a,)

    def dim_spec(self):
        return self.a.dim_spec()


def _unify_dims(a: SetExpr, b: SetExpr) -> Optional[int]:
    da, db = a.dim_spec(), b.dim_spec()
    if da is None:
        return db
    if db is None or da == db:
        return da
    raise DimensionMismatch(f"dimension mismatch: {da} vs {db} in {to_text(a)!r} / {to_text(b)!r}")


def expr_dim(expr: SetExpr) -> int:
    """Resolved dimension (flexible nodes default to 1)."""
    d = expr.dim_spec()
    return 1 if d is None else d


# ------------------------------------------------------------- tokenizer

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<int>\d+)|(?P<sym>[|&\\!(),^*+\-])"
)


class _Token(Record):
    # kind: ident | int | sym | end
    _fields = ("kind", "text", "pos")


def _tokenize(text: str) -> list[_Token]:
    toks, i = [], 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise DslSyntaxError(f"unexpected character {text[i]!r}", i)
        i = m.end()
        if m.lastgroup != "ws":
            toks.append(_Token(m.lastgroup, m.group(), m.start()))
    toks.append(_Token("end", "", len(text)))
    return toks


# every atom written keyword(args), with the shape of its arguments: n
# integers, "ints" for one or more (one tuple argument), "name" for an
# identifier, "poly" for a polynomial. The parser and to_text read it; the
# bare keyword primes is the one atom outside it
_ATOMS: dict[str, tuple[type, int | str]] = {
    "cong": (Cong, 2),
    "kfree": (KFree, 1),
    "coprime": (Coprime, 1),
    "image": (PolyImage, "poly"),
    "multiples": (Multiples, "ints"),
    "leadingdigit": (LeadingDigit, 2),
    "seq": (Seq, "name"),
    "finite": (FiniteSet, "ints"),
}
_KEYWORDS = {cls: kw for kw, (cls, _) in _ATOMS.items()}


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def advance(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def accept(self, sym: str) -> bool:
        """Consume the symbol if it comes next."""
        t = self.peek()
        if t.kind == "sym" and t.text == sym:
            self.i += 1
            return True
        return False

    def fail(self, *expected: str) -> NoReturn:
        t = self.peek()
        raise DslSyntaxError(f"found {t.text or 'end of input'!r}", t.pos, expected)

    def expect(self, kind: str, *expected: str) -> str:
        """The text of the next token, which must be of the kind."""
        if self.peek().kind != kind:
            self.fail(*expected)
        return self.advance().text

    def expect_sym(self, sym: str) -> None:
        if not self.accept(sym):
            self.fail(repr(sym))

    def parse_int(self) -> int:
        neg = self.accept("-")
        v = int(self.expect("int", "integer"))
        return -v if neg else v

    # set := term (op term)*
    def parse_set(self) -> SetExpr:
        node = self.parse_term()
        while True:
            t = self.peek()
            if t.kind == "sym" and t.text in _BINARY:
                self.advance()
                node = _BINARY[t.text](node, self.parse_term())
            else:
                return node

    def parse_term(self) -> SetExpr:
        if self.accept("!"):
            return Complement(self.parse_term())
        return self.parse_atom()

    def parse_atom(self) -> SetExpr:
        if self.accept("("):
            node = self.parse_set()
            self.expect_sym(")")
            return node
        pos = self.peek().pos
        name = self.expect("ident", "atom", "'('", "'!'")
        if name == "primes":
            return Primes()
        if name not in _ATOMS:
            raise DslSyntaxError(f"unknown atom {name!r}", pos, (*sorted(_ATOMS), "primes"))
        cls, shape = _ATOMS[name]
        self.expect_sym("(")
        if shape == "poly":
            node = cls(self._parse_poly())
        elif shape == "name":
            node = cls(self.expect("ident", "sequence name"))
        elif shape == "ints":
            node = cls(tuple(self._parse_ints()))
        else:
            node = cls(*self._parse_ints(shape))
        self.expect_sym(")")
        return node

    def _parse_ints(self, count: int | None = None) -> list[int]:
        """count integers separated by commas, or one or more when count is
        None."""
        vals = [self.parse_int()]
        while len(vals) < count if count else self.peek().text == ",":
            self.expect_sym(",")
            vals.append(self.parse_int())
        return vals

    # poly := pterm (('+'|'-') pterm)* ; pterm := pfac ('*' pfac)* ;
    # pfac := int | var ('^' int)? | '(' poly ')' | '-' pfac
    def _parse_poly(self) -> Polynomial:
        acc: dict[tuple[int, int, int], int] = {}

        def add(d: dict, sign: int):
            for e, c in d.items():
                acc[e] = acc.get(e, 0) + sign * c

        add(self._parse_pterm(), 1)
        while True:
            t = self.peek()
            if t.kind == "sym" and t.text in "+-":
                self.advance()
                add(self._parse_pterm(), 1 if t.text == "+" else -1)
            else:
                return Polynomial.from_dict(acc)

    def _parse_pterm(self) -> dict:
        d = self._parse_pfactor()
        while self.accept("*"):
            d = _poly_mul(d, self._parse_pfactor())
        return d

    def _parse_pfactor(self) -> dict:
        if self.accept("-"):
            return {e: -c for e, c in self._parse_pfactor().items()}
        if self.accept("("):
            inner = self._parse_poly()
            self.expect_sym(")")
            return {e: c for e, c in inner.terms}
        t = self.peek()
        if t.kind == "int":
            self.advance()
            return {(0, 0, 0): int(t.text)}
        if t.kind == "ident" and t.text in _VAR_NAMES:
            self.advance()
            idx = _VAR_NAMES.index(t.text)
            e = [0, 0, 0]
            if self.accept("^"):
                e[idx] = int(self.expect("int", "exponent"))
            else:
                e[idx] = 1
            return {tuple(e): 1}
        self.fail("integer", "variable x/y/z", "'('")


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict[tuple[int, int, int], int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[e] = out.get(e, 0) + ca * cb
    return out


def parse(text: str) -> SetExpr:
    """Parse an expression; raises DslSyntaxError with a position on bad
    input and DimensionMismatch on incompatible combinator dimensions."""
    p = _Parser(text)
    node = p.parse_set()
    t = p.peek()
    if t.kind != "end":
        raise DslSyntaxError(f"trailing input {t.text!r}", t.pos)
    expr_dim(node)  # force dimension resolution errors now
    return node


def to_text(expr: SetExpr) -> str:
    """Canonical form; parse(to_text(e)) reproduces e."""
    kw = _KEYWORDS.get(type(expr))
    if kw is not None:
        args = expr._values()
        if _ATOMS[kw][1] == "ints":
            (args,) = args
        return f"{kw}({','.join(map(str, args))})"
    if isinstance(expr, Primes):
        return "primes"
    if isinstance(expr, Complement):
        inner = to_text(expr.a)
        return f"!({inner})" if isinstance(expr.a, _Binary) else f"!{inner}"
    if isinstance(expr, _Binary):
        lhs, rhs = to_text(expr.a), to_text(expr.b)
        if isinstance(expr.b, _Binary):
            rhs = f"({rhs})"
        return f"{lhs} {expr.op} {rhs}"
    raise TypeError(f"unknown node {expr!r}")


# ------------------------------------------------------------- residue image


class ResidueImage(Record):
    """pi_m(X) at level m: exact, or the image of the box truncation.

    The image is a flat boolean mask over (Z/m)^dim in row-major order: the
    residue tuple (r_1, ..., r_n) sits at index r_1*m^(n-1) + ... + r_n, so
    in dimension 1 the index is the residue itself. `residues` and
    `sorted_residues` are views derived from the mask."""

    _fields = ("m", "dim", "mask", "mode", "truncation", "assumptions")
    _defaults = (None, frozenset())

    # equal only to itself: the mask is an array
    __eq__, __hash__ = object.__eq__, object.__hash__

    def _check(self):
        if self.mask.dtype != bool or self.mask.shape != (self.m**self.dim,):
            raise ValueError("mask must be a flat boolean array with one cell per class")

    @property
    def count(self) -> int:
        import numpy as np

        return int(np.count_nonzero(self.mask))

    @property
    def residues(self) -> frozenset:
        return frozenset(self.sorted_residues())

    def level_measure(self) -> Fraction:
        """|pi_m(X)| / m^n, the Haar measure of the level set X_m."""
        return Fraction(self.count, self.m**self.dim)

    def sorted_residues(self) -> list:
        import numpy as np

        coords = np.unravel_index(np.flatnonzero(self.mask), (self.m,) * self.dim)
        return coords[0].tolist() if self.dim == 1 else list(zip(*(c.tolist() for c in coords)))


class CrtSplit(Record):
    _fields = ("parts", "is_product")


# ------------------------------------------------------------- compiled set


class _Plan(Record):
    """The exact engine's expansion of a set (_counts): the leaves of its
    top union (local atoms, and clopen leaves as tuples of pieces (node,
    period L) on coprime periods), the points (the finite and primes atoms)
    and the width w: the local work at q is q^w."""

    _fields = ("leaves", "points", "width")


def _plan(expr: SetExpr, dim: int) -> _Plan | None:
    """The plan of a set; None when a leaf has no rule (leadingdigit, seq,
    or a non-clopen &, \\ or !) or when its pieces' period boxes hold more
    than RESIDUE_BUDGET cells in all. A complement of multiples is one
    piece per coprime group of its moduli, any other clopen leaf one
    piece."""
    leaves, points, todo = [], [], [expr]
    while todo:
        node = _finite_coprime(todo.pop())
        if isinstance(node, Union):
            todo += [node.b, node.a]
        elif isinstance(node, Complement) and isinstance(node.a, Complement):
            todo.append(node.a.a)  # !!x is x
        elif isinstance(node, Multiples):
            leaves += [Cong(0, a) for a in node.moduli]
        elif isinstance(node, FiniteSet):
            points.append(node)
        elif isinstance(node, (Cong, KFree, Coprime, PolyImage, Primes)):
            leaves.append(node)  # for primes, its units
            if isinstance(node, Primes):
                points.append(node)
        elif isinstance(node, Complement) and isinstance(node.a, Multiples):
            leaves.append(tuple((Complement(Multiples(tuple(mods))), top)
                                for top, mods in _coprime_groups(node.a.moduli, int)))
        elif (period := clopen_modulus(node)) is None:
            return None
        else:
            leaves.append(((node, period),))
    if sum(top**dim for leaf in leaves if isinstance(leaf, tuple) for _, top in leaf) > RESIDUE_BUDGET:
        return None
    width = max([dim] + [n.arity for n in leaves if isinstance(n, PolyImage)])
    return _Plan(tuple(leaves), tuple(points), width)


def _coprime_groups(items, support) -> list[tuple[int, list]]:
    """The items in groups whose supports, positive integers, share no
    prime across groups, each group with the lcm of its supports: an item
    merges every group whose lcm it shares a prime with, as _ie._ie_join
    joins moduli."""
    groups: list[tuple[int, list]] = []
    for item in items:
        top, members, rest = support(item), [item], []
        for lcm, gm in groups:
            if math.gcd(lcm, top) > 1:
                top, members = math.lcm(top, lcm), members + gm
            else:
                rest.append((lcm, gm))
        groups = rest + [(top, members)]
    return groups


def _classes(expr: SetExpr) -> list[tuple[int, int]] | None:
    """The class view of cong and multiples: the classes r + aZ^dim, as
    pairs (r, a), whose union the atom is. None for any other node."""
    if isinstance(expr, Cong):
        return [(expr.r, expr.m0)]
    if isinstance(expr, Multiples):
        return [(0, a) for a in expr.moduli]
    return None


def clopen_modulus(expr: SetExpr) -> Optional[int]:
    """When membership in expr is determined by the residue mod L, return the
    smallest such L derivable from the structure; else None. A union of
    classes r + aZ is determined mod the lcm of its a, and the property is
    closed under all four combinators."""
    classes = _classes(expr)
    if classes is not None:
        return math.lcm(*(a for _, a in classes))
    if isinstance(expr, Complement):
        return clopen_modulus(expr.a)
    if isinstance(expr, _Binary):
        la, lb = clopen_modulus(expr.a), clopen_modulus(expr.b)
        if la is None or lb is None:
            return None
        return math.lcm(la, lb)
    return None


class CountView(NamedTuple):
    """A dimension-1 set whose counts are floor sums sum_d c_d F(r // d).
    Its local part V is the intersection of kfree(k) (k None: no such
    factor), !multiples(moduli) and cong(a, m) (cls None: none), or the
    complement of that intersection. [kfree(k)](n) = sum over d^k | n of
    mu(d), so V counts as sum_{d, l} mu(d) c_l N(r, lcm(d^k, l)), with c_l
    the inclusion-exclusion coefficients of the moduli and N(r, L) the
    members n <= r of L Z ∩ cong(a, m), one CRT class. Then with primes:
    |X| = mix[0] |V| + mix[1] pi(r) + mix[2] |V ∩ primes|, where every prime
    but the exceptions lies in V, so |V ∩ primes| = pi(r) minus the
    exceptions up to r."""

    k: int | None = None
    moduli: tuple[int, ...] = ()
    cls: tuple[int, int] | None = None
    complement: bool = False
    mix: tuple[int, int, int] = (1, 0, 0)
    exceptions: tuple[int, ...] = ()


# |X| as (|V|, pi, |V ∩ primes|) coefficients for X = V op primes (and
# primes op V, but for primes \ V, which is (0, 1, -1))
_PRIME_MIX = {Intersection: (0, 0, 1), Union: (1, 1, -1), Difference: (1, 0, -1)}


def _count_view(expr: SetExpr) -> CountView | None:
    """The CountView of expr: primes, V, or V combined with primes by &, |
    or \\ (either side), when every prime outside a finite set lies in V:
    V without complement, no modulus 1, and cong(a, m) only for m = 1 or
    odd a mod 2, whose one exception is 2. A cong factor comes with a
    kfree factor; cong alone, a clopen set, keeps the stream."""
    if isinstance(expr, Primes):
        return CountView(mix=(0, 0, 1))
    if not (isinstance(expr, _Binary) and (isinstance(expr.a, Primes) or isinstance(expr.b, Primes))):
        view = _local_view(expr)
        return view if view is None or view.cls is None or view.k else None
    view = _local_view(expr.a if isinstance(expr.b, Primes) else expr.b)
    if view is None or view.complement or 1 in view.moduli or view.cls and not view.k:
        return None
    exceptions = {a for a in view.moduli if _primes.is_prime(a)}
    if view.cls is not None:
        a, m = view.cls
        if m == 2 and a % 2:
            exceptions.add(2)
        elif m != 1:
            return None
    mix = (0, 1, -1) if isinstance(expr, Difference) and isinstance(expr.a, Primes) else _PRIME_MIX[type(expr)]
    return CountView(view.k, view.moduli, view.cls, mix=mix, exceptions=tuple(sorted(exceptions)))


def _local_view(expr: SetExpr) -> CountView | None:
    """The local part of a CountView: an intersection of at most one
    kfree, at most one cong and any !multiples (a \\ b is a & !b), or the
    complement of one (multiples is the complement of !multiples)."""
    if isinstance(expr, Multiples):
        return CountView(moduli=expr.moduli, complement=True)
    if isinstance(expr, KFree):
        return CountView(k=expr.k)
    if isinstance(expr, Cong):
        return CountView(cls=(expr.r, expr.m0))
    if isinstance(expr, Complement):
        view = _local_view(expr.a)
        return None if view is None else CountView(view.k, view.moduli, view.cls, not view.complement)
    if not isinstance(expr, (Intersection, Difference)):
        return None
    a, b = _local_view(expr.a), _local_view(expr.b)
    if a is None or b is None or a.complement or b.complement is isinstance(expr, Intersection):
        return None
    if a.k is not None and b.k is not None or a.cls is not None and b.cls is not None:
        return None
    return CountView(a.k if b.k is None else b.k, a.moduli + b.moduli, a.cls or b.cls)


class CompiledSet(Record):
    _fields = ("expr", "dim", "assumptions")
    _defaults = (frozenset(),)
    _frozen = False
    __hash__ = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # not fields, as they follow from the fields: the exact engine's
        # expansion (_plan), None for a truncated set, and the tables it keeps
        # for later levels (_counts): the images mod q, each clopen piece's
        # period box and its last projection
        self.plan: Optional[_Plan] = _plan(self.expr, self.dim)
        self._tables = {}

    @property
    def mode(self) -> str:
        """EXACT exactly when the exact engine has a plan for the set."""
        return TRUNCATED if self.plan is None else EXACT

    # -- membership -------------------------------------------------------
    def contains(self, x) -> bool:
        if self.dim == 1:
            if not isinstance(x, int):
                (x,) = x
            return _contains(self.expr, (x,))
        t = tuple(x)
        if len(t) != self.dim:
            raise DslValueError(f"point arity {len(t)} != dimension {self.dim}")
        return _contains(self.expr, t)

    __contains__ = contains

    # -- enumeration ------------------------------------------------------
    def _box_lo(self, n: int) -> int:
        """lo of the box [lo, n]^dim of radius n, once its cells fit the box
        budget: 1 in dimension 1, where the box is [1, n], and -n above,
        where it is the max-norm ball [-n, n]^dim."""
        lo = 1 if self.dim == 1 else -n
        cells = (n - lo + 1) ** self.dim
        if cells > _primes.BOX_BUDGET:
            raise BudgetExceeded(
                f"box [{lo},{n}]^{self.dim} has {cells} cells, "
                f"over the box budget {_primes.BOX_BUDGET}"
            )
        return lo

    def blocks(self, n: int) -> Iterator[tuple[int, np.ndarray]]:
        """The box of radius n as a stream of (lo, table) slabs along its
        first axis, laid out by _primes._segments: about 2^18 cells and at
        least one row each, blocks of 2^18 cells from 1 on in dimension 1.
        table[i_1, i_2, ..., i_dim] holds (lo + i_1, i_2 - n, ..., i_dim - n);
        laid end to end the tables are the box, at the memory of one slab.
        Sparse atoms are evaluated once for the whole stream."""
        lo = self._box_lo(n)
        expr, rest = _stream_expr(self.expr, lo, n), ((lo, n),) * (self.dim - 1)
        return ((a, _box_mask(expr, ((a, b),) + rest))
                for a, b in _segments(lo, n, (n - lo + 1) ** (self.dim - 1)))

    def mask_upto(self, n: int) -> np.ndarray:
        """Dimension-1 membership table for 1..n (index 0 is always False)."""
        if self.dim != 1:
            raise DslValueError("mask_upto is dimension-1 only")
        self._box_lo(n)  # the box [1, n]; index 0 is padding
        m = _box_mask(self.expr, ((0, n),))
        m[0] = False
        return m

    def members_in_box(self, n: int) -> list:
        """The members in the box of radius n, sorted: X ∩ [1, n] in
        dimension 1, X ∩ [-n, n]^dim above."""
        out = []
        for lo, table in self.blocks(n):
            coords = [(c + a).tolist() for c, a in zip(table.nonzero(), [lo] + [-n] * (self.dim - 1))]
            out += coords[0] if self.dim == 1 else zip(*coords)
        return out

    # -- residue images ---------------------------------------------------
    def _check_level(self, m: int) -> None:
        if m < 1:
            raise DslValueError("modulus must be >= 1")
        if m**self.dim > RESIDUE_BUDGET:
            raise BudgetExceeded(
                f"residue enumeration at level m={m}, dim={self.dim} exceeds budget {RESIDUE_BUDGET}"
            )

    def residue_image(self, m: int, truncation: int | None = None) -> ResidueImage:
        self._check_level(m)
        if self.mode == EXACT:
            from ._counts import level_mask

            mask = level_mask(self.plan, self.dim, m, self._tables)
            return ResidueImage(m, self.dim, mask, EXACT, None, self.assumptions)
        # by default the largest box of at most 10^6 cells: [1, 10^6], or
        # [-n, n]^dim above
        n = truncation if truncation is not None else max(
            m, 10**6 if self.dim == 1 else (_primes._iroot(10**6, self.dim) - 1) // 2)
        if n < m:
            raise DslValueError(f"truncation bound {n} < modulus {m}")
        return ResidueImage(m, self.dim, _box_image(self, n, m), TRUNCATED, n, self.assumptions)

    def clopen_image_exact(self, m: int) -> ResidueImage | None:
        """Exact pi_m(X) of a Cong/Multiples tree under any combinators, read
        from residue_image. None when the structure is not clopen;
        BudgetExceeded when the set is truncated: its pieces' period boxes
        hold more cells than the residue budget."""
        if clopen_modulus(self.expr) is None:
            return None
        if self.mode != EXACT:
            raise BudgetExceeded(f"clopen period boxes exceed the residue budget {RESIDUE_BUDGET}")
        return self.residue_image(m)

    def residue_count(self, m: int) -> int:
        """|pi_m(X)| as a signed sum of CRT products of local counts
        (_counts.level_count), without a mask over (Z/m)^dim. The residue
        budget bounds the local work: the sum of q^w over the prime powers
        q || m, w the dimension or the largest arity of an image atom."""
        if self.mode != EXACT:
            raise ModeError("residue_count needs an exact-mode set")
        if m < 1:
            raise DslValueError("modulus must be >= 1")
        from ._counts import level_count

        return level_count(self.plan, self.dim, m, self._tables)

    # -- structure views for estimator fast paths ------------------------
    def interval_view(self, r: int) -> list[tuple[int, int]] | None:
        """X ∩ [1,r] as a short list of disjoint intervals, when the
        structure supports it (LeadingDigit, FiniteSet, unions of those)."""
        return _interval_view(self.expr, r)

    def count_view(self) -> CountView | None:
        """X ∩ [1, r] as a floor sum (CountView), when the set is dimension-1
        and of the shapes it describes; None otherwise."""
        return _count_view(self.expr) if self.dim == 1 else None

    # perfbench/trace_runner.py wraps the view under its former name
    ie_view = count_view


def compile_set(expr: SetExpr | str) -> CompiledSet:
    """Compile an expression (or source text) to a CompiledSet."""
    if isinstance(expr, str):
        expr = parse(expr)
    # one walk, left to right: every sequence name is known, and whether
    # primes, which assumes Dirichlet's theorem, appears
    assumptions, todo = frozenset(), [expr]
    while todo:
        node = todo.pop()
        if isinstance(node, Seq) and node.name not in _primes._SEQUENCES:
            raise DslValueError(
                f"unknown sequence {node.name!r}; registered: {', '.join(sorted(_primes._SEQUENCES))}"
            )
        if isinstance(node, Primes):
            assumptions = frozenset([ASSUMES_DIRICHLET])
        todo.extend(reversed(node.children()))
    dim = expr_dim(expr)
    return CompiledSet(expr, dim, assumptions)


# ------------------------------------------------------------- membership


def _contains(expr: SetExpr, x: tuple[int, ...]) -> bool:
    if isinstance(expr, Cong):
        return all(c % expr.m0 == expr.r % expr.m0 for c in x)
    if isinstance(expr, KFree):
        v = x[0]
        if v == 0:
            return False
        v = abs(v)
        if v == 1:
            return True
        return all(e < expr.k for e in _primes.factorize(v).values())
    if isinstance(expr, Primes):
        return x[0] > 0 and _primes.is_prime(x[0])
    if isinstance(expr, Coprime):
        return math.gcd(*(abs(c) for c in x)) == 1 if len(x) > 1 else abs(x[0]) == 1
    if isinstance(expr, PolyImage):
        return _poly_image_contains(expr.poly, x[0])
    if isinstance(expr, Multiples):
        return any(all(c % a == 0 for c in x) for a in expr.moduli)
    if isinstance(expr, LeadingDigit):
        v = abs(x[0])
        if v == 0:
            return False
        while v >= expr.base:
            v //= expr.base
        return v == expr.d
    if isinstance(expr, Seq):
        v = x[0]
        return v > 0 and v in _primes._sequence_upto(expr.name, v)
    if isinstance(expr, FiniteSet):
        return x[0] in expr.values
    if isinstance(expr, Union):
        return _contains(expr.a, x) or _contains(expr.b, x)
    if isinstance(expr, Intersection):
        return _contains(expr.a, x) and _contains(expr.b, x)
    if isinstance(expr, Difference):
        return _contains(expr.a, x) and not _contains(expr.b, x)
    if isinstance(expr, Complement):
        return not _contains(expr.a, x)
    raise TypeError(f"unknown node {expr!r}")


def _univariate_preimage_bound(coeffs: list[int], n: int) -> int:
    """T such that |f(t)| > n for every |t| > T (degree >= 1)."""
    d = len(coeffs) - 1
    lead = abs(coeffs[-1])
    lower = sum(abs(c) for c in coeffs[:-1])
    r = max(1, (2 * lower + lead - 1) // lead)
    t = max(r, math.ceil((2 * n / lead) ** (1.0 / d)) + 1)
    return t + 1


def _poly_image_contains(poly: Polynomial, v: int) -> bool:
    arity = max(poly.arity, 1)
    if arity == 1:
        coeffs = poly.univariate_coeffs()
        if len(coeffs) == 1:
            return v == coeffs[0]
        t = _univariate_preimage_bound(coeffs, abs(v))
        return any(poly.evaluate((s,)) == v for s in range(-t, t + 1))
    raise DslValueError(
        "membership for multivariate polynomial images is not decidable by bounded search; "
        "use residue images"
    )


# ------------------------------------------------------------- box masks


def _box_mask(expr: SetExpr, ranges) -> np.ndarray:
    """Membership over the box of one range [lo, hi] per axis as a dense
    boolean table: cell (i_1, ..., i_dim) holds the point (lo_1 + i_1, ...,
    lo_dim + i_dim). Every table is freshly allocated, so callers may
    change it in place. The dimension-1 atoms read the one range (lo, hi);
    primes and leadingdigit need lo >= 0, as every dimension-1 box has."""
    import numpy as np

    (lo, hi), lows, shape = ranges[0], [a for a, _ in ranges], [b - a + 1 for a, b in ranges]
    classes = _classes(expr)
    if classes is not None:
        return _mark_classes(np.zeros(shape, dtype=bool), lows, classes, True)
    if isinstance(expr, (Seq, FiniteSet, PolyImage, _Members)) or isinstance(expr, Coprime) and len(ranges) == 1:
        values, out = _sparse_values(expr, lo, hi), np.zeros(hi - lo + 1, dtype=bool)
        out[values[np.searchsorted(values, lo):np.searchsorted(values, hi, side="right")] - lo] = True
        return out
    if isinstance(expr, (Coprime, KFree)):
        # outside 0 + p^kZ^dim for every prime p (_local_exponent); primes
        # p <= |x|^(1/k) suffice, and p = 2, always listed, keeps 0 out
        k = _local_exponent(expr)
        top = int(round(max(max(-a, b) for a, b in ranges) ** (1.0 / k))) + 2
        classes = [(0, p**k) for p in _primes.primes_upto(top).tolist()]
        return _mark_classes(np.ones(shape, dtype=bool), lows, classes, False)
    if isinstance(expr, LeadingDigit):  # the member intervals [a, b] that meet [lo, hi]
        out = np.zeros(hi - lo + 1, dtype=bool)
        for a, b in _interval_view(expr, hi):
            if b >= lo:
                out[max(a, lo) - lo:b - lo + 1] = True
        return out
    if isinstance(expr, Primes):
        return _primes._prime_segment(lo, hi)
    if isinstance(expr, Complement):
        out = _box_mask(expr.a, ranges)
        return np.logical_not(out, out=out)
    if isinstance(expr, _Binary):
        out, other = _box_mask(expr.a, ranges), _box_mask(expr.b, ranges)
        if isinstance(expr, Union):
            return np.logical_or(out, other, out=out)
        if isinstance(expr, Difference):
            np.logical_not(other, out=other)
        return np.logical_and(out, other, out=out)
    raise TypeError(f"unknown node {expr!r}")


def _local_exponent(expr: SetExpr) -> int:
    """The k of the local condition at p that kfree(k), coprime(n) and
    primes share: not every coordinate divisible by p^k (k = 1 but for
    kfree)."""
    return expr.k if isinstance(expr, KFree) else 1


def _finite_coprime(expr: SetExpr) -> SetExpr:
    """coprime(1) as the finite set it is, {-1, 1} (gcd(x) = |x|); any
    other node as it is."""
    return FiniteSet((-1, 1)) if isinstance(expr, Coprime) and expr.n == 1 else expr


class _Members(SetExpr):
    """A stream's stand-in for a sparse atom: the atom's members inside the
    stream's range, as a sorted int64 array computed once (_stream_expr)."""

    _fields = ("values",)
    __eq__, __hash__ = object.__eq__, object.__hash__


def _stream_expr(expr: SetExpr, lo: int, hi: int) -> SetExpr:
    """expr with every sparse atom (image, seq, finite, coprime(1))
    replaced by its members in [lo, hi], so that a stream of blocks over
    [lo, hi] evaluates each atom once and every block slices its values."""
    if isinstance(expr, (Seq, FiniteSet, PolyImage)) or isinstance(expr, Coprime) and expr.n == 1:
        return _Members(_sparse_values(expr, lo, hi))
    if isinstance(expr, Complement):
        return Complement(_stream_expr(expr.a, lo, hi))
    if isinstance(expr, _Binary):
        return type(expr)(_stream_expr(expr.a, lo, hi), _stream_expr(expr.b, lo, hi))
    return expr


def _sparse_values(expr: SetExpr, lo: int, hi: int) -> np.ndarray:
    """The members in [lo, hi] of an atom given by a short list of values,
    as a sorted int64 array (a _Members node returns all of its own)."""
    import numpy as np

    if isinstance(expr, _Members):
        return expr.values
    expr = _finite_coprime(expr)
    if isinstance(expr, Seq):
        values = _primes._sequence_upto(expr.name, hi)
    elif isinstance(expr, FiniteSet):
        values = expr.values
    else:
        poly = expr.poly
        if max(poly.arity, 1) != 1:
            raise DslValueError("multivariate polynomial images have no box enumeration")
        values = poly.univariate_coeffs()
        if len(values) > 1:
            t = _univariate_preimage_bound(values, max(-lo, hi))
            values = [poly.evaluate((s,)) for s in range(-t, t + 1)]
    return np.array(sorted({v for v in values if lo <= v <= hi}), dtype=np.int64)


def _interval_view(expr: SetExpr, r: int) -> list[tuple[int, int]] | None:
    if isinstance(expr, LeadingDigit):
        out = []
        lo = expr.d
        while lo <= r:
            out.append((lo, min(lo + lo // expr.d - 1, r)))
            lo *= expr.base
        return out
    if isinstance(expr, FiniteSet):
        return [(v, v) for v in sorted(set(expr.values)) if 1 <= v <= r]
    if isinstance(expr, Union):
        a = _interval_view(expr.a, r)
        b = _interval_view(expr.b, r)
        if a is None or b is None:
            return None
        merged: list[tuple[int, int]] = []
        for lo, hi in sorted(a + b):
            if merged and lo <= merged[-1][1] + 1:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        return merged
    return None


# ------------------------------------------------------------- projections


def _project(table: np.ndarray, lows, q: int) -> np.ndarray:
    """The classes mod q of a table's cells along its last len(lows) axes,
    the i-th starting at lows[i], the axes before them kept: padding such an
    axis in front by its low end mod q and at the back to whole periods puts
    cell j at class j mod q, and j = a*q + b keeps every b found for some a."""
    import numpy as np

    lead = table.ndim - len(lows)
    pads = [(0, 0)] * lead + [(lo % q, -(lo + side) % q) for lo, side in zip(lows, table.shape[lead:])]
    if any(map(any, pads)):
        table = np.pad(table, pads)
    shape = table.shape[:lead] + tuple(d for side in table.shape[lead:] for d in (side // q, q))
    return table.reshape(shape).any(axis=tuple(range(lead, len(shape), 2)))


def _box_image(cset: CompiledSet, n: int, m: int) -> np.ndarray:
    """Flat mask over (Z/m)^dim of the classes of the members of the box of
    radius n, the OR of the slabs of cset.blocks(n) mod m, in O(slab + m^dim)
    memory: the other axes fold by _project, the first too in a slab of at
    least m rows; a shorter one meets two runs of classes at most."""
    import numpy as np

    seen, rest = np.zeros((m,) * cset.dim, dtype=bool), [-n] * (cset.dim - 1)
    for lo, table in cset.blocks(n):
        if table.shape[0] >= m:
            seen |= _project(table, [lo] + rest, m)
        else:  # two slices of rows, never padded to m rows
            rows = _project(table, rest, m)
            head = rows[:m - lo % m]
            seen[lo % m:lo % m + head.shape[0]] |= head
            seen[:rows.shape[0] - head.shape[0]] |= rows[head.shape[0]:]
    return seen.ravel()


def crt_split(img: ResidueImage) -> CrtSplit:
    """Project an exact image to its prime-power components and report
    whether the image equals the full product of the projections."""
    if img.mode != EXACT:
        raise ModeError("crt_split needs an EXACT residue image")
    parts = {
        q: ResidueImage(q, img.dim, _project(img.mask.reshape((img.m,) * img.dim), [0] * img.dim, q).ravel(),
                        EXACT, None, img.assumptions)
        for _, _, q in _primes.prime_powers_of(img.m)
    }
    return CrtSplit(parts, math.prod(p.count for p in parts.values()) == img.count)
