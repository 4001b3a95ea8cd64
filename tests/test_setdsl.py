import math
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zhat import _counts, _hensel, _primes, setdsl
from zhat.measure import ModulusChain, closure_measure_trace, multiples_measure_ie
from zhat.setdsl import (
    EXACT,
    TRUNCATED,
    BudgetExceeded,
    Complement,
    Cong,
    CountView,
    DimensionMismatch,
    DslSyntaxError,
    DslValueError,
    KFree,
    ModeError,
    Multiples,
    Polynomial,
    PolyImage,
    Union,
    _box_mask,
    _contains,
    compile_set,
    crt_split,
    expr_dim,
    parse,
    to_text,
)


# ---------------------------------------------------------------- oracles


def brute_members(pred, n):
    return [x for x in range(1, n + 1) if pred(x)]


def is_squarefree(x):
    return all(x % (p * p) for p in range(2, int(x**0.5) + 1))


def is_prime(x):
    return x >= 2 and all(x % d for d in range(2, int(x**0.5) + 1))


def brute_residues(pred, m, n):
    return frozenset(x % m for x in range(1, n + 1) if pred(x))


def squarefree_table(n):
    """sf[x] for 0 <= x <= n: strike the multiples of every square d^2."""
    sf = [True] * (n + 1)
    sf[0] = False
    for d in range(2, math.isqrt(n) + 1):
        sf[d * d:: d * d] = [False] * len(range(d * d, n + 1, d * d))
    return sf


SQUAREFREE = squarefree_table(60000)


def prime_power_parts(m):
    out, p = [], 2
    while m > 1:
        q = 1
        while m % p == 0:
            m //= p
            q *= p
        if q > 1:
            out.append(q)
        p += 1
    return out


def brute_poly_image(poly, m):
    arity = max(poly.arity, 1)
    return frozenset(poly.evaluate(args, mod=m) for args in product(range(m), repeat=arity))


def brute_coprime_image(n, m):
    # a tuple class lifts to a coprime tuple exactly when it is coprime to m
    return frozenset(t for t in product(range(m), repeat=n) if math.gcd(*t, m) == 1)


# ---------------------------------------------------------------- parsing


def test_parse_round_trip_atoms():
    for text in (
        "cong(2,6)", "kfree(2)", "primes", "coprime(2)", "image(x^2 - 1)",
        "multiples(4,6)", "leadingdigit(1,10)", "seq(factorials)",
        "finite(3,5)",
    ):
        assert to_text(parse(text)) == text


def test_parse_combinators_and_precedence():
    e = parse("kfree(2) & !multiples(4,6) | cong(1,3)")
    assert to_text(parse(to_text(e))) == to_text(e)
    # left associative binary chain
    f = parse("primes \\ cong(1,4) & kfree(3)")
    assert to_text(f) == to_text(parse(to_text(f)))


def test_parse_errors_carry_position():
    with pytest.raises(DslSyntaxError) as ei:
        parse("cong(2,")
    assert ei.value.pos >= 5
    for bad in ("", "kfree(1)", "cong(1,0)", "leadingdigit(0,10)", "unknownatom", "cong(1,3))"):
        with pytest.raises((DslSyntaxError, DslValueError)):
            parse(bad)


@pytest.mark.parametrize("text, exc, message, pos", [
    ("cong(1)", DslSyntaxError, "syntax error at position 6: found ')' (expected ',')", 6),
    ("cong(1 2)", DslSyntaxError, "syntax error at position 7: found '2' (expected ',')", 7),
    ("cong(1,2,3)", DslSyntaxError, "syntax error at position 8: found ',' (expected ')')", 8),
    ("cong(2,", DslSyntaxError, "syntax error at position 7: found 'end of input' (expected integer)", 7),
    ("cong", DslSyntaxError, "syntax error at position 4: found 'end of input' (expected '(')", 4),
    ("cong(1,-2)", DslValueError, "cong modulus must be >= 1, got -2", None),
    ("kfree()", DslSyntaxError, "syntax error at position 6: found ')' (expected integer)", 6),
    ("kfree(1)", DslValueError, "kfree exponent must be >= 2, got 1", None),
    ("coprime(4)", DslValueError, "coprime dimension must be 1..3, got 4", None),
    ("multiples()", DslSyntaxError, "syntax error at position 10: found ')' (expected integer)", 10),
    ("multiples(2,)", DslSyntaxError, "syntax error at position 12: found ')' (expected integer)", 12),
    ("multiples(0)", DslValueError, "multiples needs positive moduli", None),
    ("finite(1,)", DslSyntaxError, "syntax error at position 9: found ')' (expected integer)", 9),
    ("finite(1 2)", DslSyntaxError, "syntax error at position 9: found '2' (expected ')')", 9),
    ("seq(3)", DslSyntaxError, "syntax error at position 4: found '3' (expected sequence name)", 4),
    ("seq(a b)", DslSyntaxError, "syntax error at position 6: found 'b' (expected ')')", 6),
    ("image()", DslSyntaxError,
     "syntax error at position 6: found ')' (expected integer, variable x/y/z, '(')", 6),
    ("image(x^)", DslSyntaxError, "syntax error at position 8: found ')' (expected exponent)", 8),
    ("leadingdigit(0,10)", DslValueError, "leadingdigit needs 1 <= d < base, got d=0 base=10", None),
    ("leadingdigit(1)", DslSyntaxError, "syntax error at position 14: found ')' (expected ',')", 14),
    ("foo(1)", DslSyntaxError,
     "syntax error at position 0: unknown atom 'foo' (expected cong, coprime, finite, image, "
     "kfree, leadingdigit, multiples, seq, primes)", 0),
    ("primes(1)", DslSyntaxError, "syntax error at position 6: trailing input '('", 6),
])
def test_parse_error_messages(text, exc, message, pos):
    """The exact message and position of each malformed atom."""
    with pytest.raises(exc) as ei:
        parse(text)
    assert type(ei.value) is exc
    assert str(ei.value) == message
    assert getattr(ei.value, "pos", None) == pos


def test_dimension_unification():
    with pytest.raises(DimensionMismatch):
        parse("coprime(2) & kfree(2)")
    e = parse("coprime(2) & multiples(3)")  # multiples is dimension-flexible
    assert compile_set(e).dim == 2


def test_polynomial_canonical_form():
    p = Polynomial.from_dict({(2, 0, 0): 1, (0, 0, 0): -1})
    assert str(p) == "x^2 - 1"
    assert p.evaluate((6,)) == 35
    assert p.evaluate((6,), mod=12) == 35 % 12


# ---------------------------------------------------------------- membership


def test_membership_matches_oracles():
    checks = [
        ("kfree(2)", is_squarefree),
        ("primes", is_prime),
        ("cong(2,6)", lambda x: x % 6 == 2),
        ("multiples(4,6)", lambda x: x % 4 == 0 or x % 6 == 0),
        ("!multiples(4,6)", lambda x: x % 4 and x % 6),
        ("kfree(2) & cong(1,4)", lambda x: is_squarefree(x) and x % 4 == 1),
        ("primes \\ cong(1,4)", lambda x: is_prime(x) and x % 4 != 1),
        ("leadingdigit(1,10)", lambda x: str(x)[0] == "1"),
    ]
    for text, pred in checks:
        cs = compile_set(text)
        got = cs.members_in_box(200)
        assert got == brute_members(pred, 200), text
        mask = cs.mask_upto(200)
        assert not mask[0]
        assert list(np.nonzero(mask)[0]) == got, text


def test_polynomial_image_membership():
    cs = compile_set("image(x^2 - 1)")
    assert 35 in cs and 34 not in cs
    assert 0 in compile_set("image(x^2)")
    got = set(cs.members_in_box(100))
    oracle = {k * k - 1 for k in range(2, 12) if 1 <= k * k - 1 <= 100}
    assert got == oracle


def test_sequence_atom_members():
    assert compile_set("seq(factorial_shift)").members_in_box(30) == [2, 4, 9, 28]
    facts = compile_set("seq(factorials)").members_in_box(1000)
    assert facts == [1, 2, 6, 24, 120, 720]
    with pytest.raises(DslValueError):
        compile_set("seq(no_such_seq)")


def test_symmetric_boxes():
    # above dimension 1 the box of radius n is [-n, n]^dim
    cs = compile_set("coprime(2)")
    assert cs.members_in_box(1) == [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
    got = set(cs.members_in_box(6))
    oracle = {(a, b) for a in range(-6, 7) for b in range(-6, 7) if math.gcd(a, b) == 1}
    assert got == oracle


def test_dim2_box_example():
    # dim-2/3 boxes [-n, n]^dim under combinators
    cases = [
        ("coprime(2) | multiples(4,6)", 2,
         lambda p: math.gcd(*p) == 1 or all(c % 4 == 0 for c in p) or all(c % 6 == 0 for c in p)),
        ("!multiples(2) & !coprime(3)", 3,
         lambda p: math.gcd(*p) != 1 and any(c % 2 for c in p)),
        ("coprime(3) \\ multiples(5)", 3, lambda p: math.gcd(*p) == 1),
    ]
    for text, dim, pred in cases:
        for n in (4, 5):
            cs = compile_set(text)
            oracle = [p for p in product(range(-n, n + 1), repeat=dim) if pred(p)]
            assert cs.dim == dim and cs.members_in_box(n) == oracle, (text, n)


@pytest.mark.parametrize("text", [
    "coprime(1)", "coprime(2)", "coprime(3)", "cong(-3,4)", "cong(2,1)",
    "multiples(1)", "multiples(4,6)", "kfree(2)", "kfree(3)", "!multiples(2) | coprime(2)",
])
def test_box_tables_match_contains(text):
    # every box [lo, hi]^dim with lo in -4..1 and hi in 0..6, the empty
    # [1, 0] included; cong and multiples also as classes in dims 2 and 3,
    # as the exact engine reads them
    expr = parse(text)
    for dim in (1, 2, 3) if isinstance(expr, (Cong, Multiples)) else (expr_dim(expr),):
        for lo, hi in product(range(-4, 2), range(0, 7)):
            table = _box_mask(expr, ((lo, hi),) * dim)
            assert table.shape == (hi - lo + 1,) * dim and table.dtype == bool
            for idx in product(range(hi - lo + 1), repeat=dim):
                point = tuple(lo + i for i in idx)
                assert bool(table[idx]) == _contains(expr, point), (text, lo, hi, point)


def test_symmetric_box_budget_counts_every_cell(monkeypatch):
    # [-6, 6]^2 allocates 169 cells, over a budget of 150
    monkeypatch.setattr(_primes, "BOX_BUDGET", 150)
    cs = compile_set("coprime(2)")
    with pytest.raises(BudgetExceeded):
        cs.members_in_box(6)
    assert sum(t.size for _, t in cs.blocks(5)) == 121
    monkeypatch.setattr(_primes, "BOX_BUDGET", 80)
    with pytest.raises(BudgetExceeded):
        compile_set("coprime(3)").members_in_box(2)  # 5^3 cells


# ---------------------------------------------------------------- images


def test_residue_image_pinned_examples():
    img = compile_set("cong(2,6)").residue_image(4)
    assert img.sorted_residues() == [0, 2] and img.mode == EXACT

    img = compile_set("kfree(2)").residue_image(44100)
    assert img.count == 27648
    assert img.level_measure() == Fraction(768, 1225)

    img = compile_set("primes").residue_image(12)
    assert img.sorted_residues() == [1, 2, 3, 5, 7, 11]
    assert "assumes-dirichlet" in img.assumptions


@pytest.mark.parametrize("text, radius", [
    ("seq(factorials)", 10**6), ("!coprime(2)", 499), ("!coprime(3)", 49),
])
def test_default_truncation_box_has_at_most_a_million_cells(text, radius):
    # [1, 10^6] in dimension 1; above, the largest [-n, n]^dim of at most
    # 10^6 cells (999^2, 99^3), where [-10^6, 10^6]^dim would be over the
    # box budget
    assert compile_set(text).residue_image(6).truncation == radius


def test_residue_image_matches_enumeration():
    for text, pred in [
        ("kfree(2)", is_squarefree),
        ("kfree(3)", lambda x: all(x % (p**3) for p in range(2, 10))),
        ("multiples(4,6)", lambda x: x % 4 == 0 or x % 6 == 0),
        ("cong(2,6)", lambda x: x % 6 == 2),
        ("finite(3,5)", lambda x: x in (3, 5)),
    ]:
        cs = compile_set(text)
        for m in (8, 12, 30):
            img = cs.residue_image(m)
            assert img.residues == brute_residues(pred, m, 40000), (text, m)


def test_residue_count_matches_image():
    # the closed forms against the cells of the image mask, at prime-power
    # levels too; levels with over 10^6 classes are left out
    for text in ("kfree(2)", "kfree(3)", "multiples(4,6)", "cong(2,6)", "primes", "finite(3,5)",
                 "coprime(1)", "coprime(2)", "coprime(3)"):
        cs = compile_set(text)
        for m in (1, 8, 12, 27, 90, 200, 44100):
            if m**cs.dim <= 10**6:
                assert cs.residue_count(m) == cs.residue_image(m).count, (text, m)


def test_coprime_1_image_matches_brute_force():
    # in dimension 1 gcd(x) = |x|, so the set is {-1, 1}, not the units
    cs = compile_set("coprime(1)")
    members = [x for x in range(-5000, 5001) if math.gcd(x) == 1]
    for m in (1, 2, 3, 8, 12, 30, 2310):
        brute = frozenset(x % m for x in members)
        assert cs.residue_image(m).residues == brute, m
        assert cs.residue_count(m) == len(brute), m


def test_residue_count_many_moduli_matches_mask():
    # more moduli than subset enumeration ever served (2^21 and 2^25 subsets)
    for mods in (list(range(2, 23)), [6 * k + 1 for k in range(1, 26)]):
        cs = compile_set("multiples(" + ",".join(map(str, mods)) + ")")
        for m in (1, 30, 720, 27720, 360360):
            count = cs.residue_count(m)
            assert count == int(np.count_nonzero(cs.residue_image(m).mask)), (mods, m)
            if m <= 27720:  # a multiple of a is a multiple of gcd(m, a) mod m
                gs = [math.gcd(m, a) for a in mods]
                assert count == sum(1 for x in range(m) if any(x % g == 0 for g in gs))


def test_truncated_image_modes():
    cs = compile_set("kfree(2) & cong(1,4)")
    img = cs.residue_image(12, truncation=10**5)
    assert img.mode == TRUNCATED and img.truncation == 10**5
    oracle = brute_residues(lambda x: is_squarefree(x) and x % 4 == 1, 12, 10**5)
    assert img.residues == oracle
    with pytest.raises(DslValueError):
        cs.residue_image(100, truncation=50)  # N below the level


def test_truncated_image_memory_per_box_cell():
    # the image is the OR of the box's slabs mod m: a few slab-sized tables
    # at once (a slab, its atoms' tables, a padded copy), under 1.5 bytes per
    # box cell with the sieve's one-time wheel pattern (0.3 MB) built here,
    # where a whole box table and its padded copy took two
    cs = compile_set("coprime(2) & coprime(2)")
    assert cs.mode == TRUNCATED
    cells = 1001**2  # the box [-500, 500]^2
    tracemalloc.start()
    try:
        img = cs.residue_image(30, truncation=500)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * cells, peak / cells
    assert img.residues == brute_coprime_image(2, 30)


@pytest.mark.parametrize("text, radii, m", [
    ("kfree(2) & cong(1,4)", (2**20, 2**21), 30),
    ("kfree(2) & cong(1,4)", (2**20, 2**21), 300007),
    ("coprime(2) & coprime(2)", (500, 1000), 30),
    ("coprime(2) & coprime(2)", (600, 1200), 600),
])
def test_truncated_image_memory_stays_flat_as_the_radius_doubles(text, radii, m):
    # one slab and the mask over (Z/m)^dim at a time, in dimension 1 and 2,
    # with m below and above the rows of one slab
    cs = compile_set(text)
    peaks = []
    for n in radii:
        cs.residue_image(m, truncation=n)  # the sieve cache grows once, unmeasured
        tracemalloc.start()
        try:
            cs.residue_image(m, truncation=n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_budget_guard():
    cs = compile_set("image(x^2)")
    # the local work is the sum of q^arity over q || m: 479^3 ~ 1.1e8 points
    with pytest.raises(BudgetExceeded, match="local work 109902239 at level m=479"):
        compile_set("image(x*y*z)").residue_image(479)
    # 8^3 + 125^3 ~ 2e6 points at m = 1000, and x*1*1 hits every class
    assert compile_set("image(x*y*z)").residue_image(1000).count == 1000
    assert cs.residue_image(1000).mode == EXACT


def brute_local_image_count(poly, m):
    """|image of poly mod m| as the product over q || m of the number of
    values of poly on (Z/q)^2, each found by brute force."""
    count, p = 1, 2
    while m > 1:
        q = 1
        while m % p == 0:
            m, q = m // p, q * p
        count *= len({poly(x, y) % q for x in range(q) for y in range(q)})
        p += 1
    return count


@pytest.mark.parametrize("m", [44100, 5336100])
def test_sum_of_two_squares_past_the_old_budget(m):
    # m^2 is over the residue budget, the local work 4^2 + ... + 121^2 is not
    cs = compile_set("image(x^2+y^2)")
    assert cs.residue_count(m) == brute_local_image_count(lambda x, y: x * x + y * y, m)


def test_clopen_engine_exact_and_declines_gracefully():
    cs = compile_set("!multiples(4,6)")
    img = cs.clopen_image_exact(12)
    oracle = frozenset(r for r in range(12) if r % 4 and r % 6)
    assert img.residues == oracle and img.mode == EXACT
    assert cs.mode == EXACT
    # non-clopen structure: no exact shortcut exists
    assert compile_set("kfree(2)").clopen_image_exact(12) is None
    # one piece whose period box is past the residue budget (L ~ 9e8)
    # keeps the truncated engine
    big = compile_set("cong(1,4) & !multiples(9,25,49,121,169)")
    assert big.mode == TRUNCATED
    with pytest.raises(BudgetExceeded):
        big.clopen_image_exact(12)


P2_13 = (4, 9, 25, 49, 121, 169)


def test_a_complement_of_multiples_is_exact_by_its_pieces():
    # the period L = 901800900 is past the residue budget, but the pieces,
    # one per coprime group of moduli, have periods summing to 377
    cs = compile_set("!multiples(4,9,25,49,121,169)")
    assert cs.mode == EXACT
    assert Fraction(cs.residue_count(901800900), 901800900) == multiples_measure_ie(P2_13)
    for m, classes in ((36, 24), (900, 576), (2310, 2310), (44100, 27648)):
        # search 64 members of each class r mod m: x = r + k m, 0 <= k < 64
        x = np.arange(64 * m)
        members = np.logical_and.reduce([x % a != 0 for a in P2_13])
        want = frozenset(np.unique(x[members] % m).tolist())
        img = cs.residue_image(m)
        assert len(want) == img.count == classes and img.residues == want, m
    trace = closure_measure_trace(cs, ModulusChain.primorial_power(2), 10**30)
    assert trace.mode == EXACT
    # the closure measure from level 6, 901800900 = L, on
    assert trace.records[5].modulus == 901800900 and trace.records[4].measure > Fraction(442368, 715715)
    assert {r.measure for r in trace.records[5:]} == {Fraction(442368, 715715)}


def test_a_double_complement_is_read_as_its_operand():
    # !!x is x, so its plan is x's: the double complement of an exact set
    # is exact with the same counts
    for text in ("multiples(4,9,25,49,121,169)", "kfree(2)", "kfree(2) | cong(1,4)"):
        once, twice = compile_set(text), compile_set(f"!!({text})")
        assert once.mode == twice.mode == EXACT, text
        for m in (36, 900, 2310):
            assert twice.residue_count(m) == once.residue_count(m)
            assert twice.residue_image(m).residues == once.residue_image(m).residues
    assert compile_set("!!!!kfree(2)").mode == EXACT
    assert compile_set("!!(kfree(2) & cong(1,4))").mode == TRUNCATED


def test_exactness_bounds_the_cells_of_all_piece_boxes(monkeypatch):
    # 2^26 + 3^16 = 110155585 cells are past the residue budget,
    # 2^26 + 3^15 = 81457771 are not; compiling builds no box to decide
    def no_box(*args):
        raise AssertionError("compiling built a box")

    monkeypatch.setattr(setdsl, "_box_mask", no_box)
    assert compile_set(f"!multiples({2**26},{3**16})").mode == TRUNCATED
    assert compile_set(f"!multiples({2**26},{3**15})").mode == EXACT


def test_compiling_factors_no_modulus(monkeypatch):
    # coprime groups are found by gcd and lcm: the moduli are not factored
    def no_factorize(n):
        raise AssertionError(f"compiling factored {n}")

    monkeypatch.setattr(_primes, "factorize", no_factorize)
    assert compile_set("!multiples(1125896954054519)").mode == TRUNCATED
    assert compile_set("!multiples(4,9,25,49,121,169,6)").mode == EXACT


def test_crt_split_examples():
    sq = crt_split(compile_set("image(x^2)").residue_image(12))
    assert sq.is_product
    assert {q: p.sorted_residues() for q, p in sq.parts.items()} == {4: [0, 1], 3: [0, 1]}
    pr = crt_split(compile_set("primes").residue_image(12))
    assert not pr.is_product  # 6 classes, components multiply to 9
    with pytest.raises(ModeError):
        crt_split(compile_set("kfree(2) & cong(1,4)").residue_image(12, truncation=10**4))


def test_views_for_fast_paths():
    assert compile_set("leadingdigit(1,10)").interval_view(25) == [(1, 1), (10, 19)]
    assert compile_set("!multiples(4,6)").count_view() == CountView(moduli=(4, 6))
    assert compile_set("multiples(4,6)").count_view() == CountView(moduli=(4, 6), complement=True)
    assert compile_set("kfree(2)").count_view() == CountView(k=2)
    assert compile_set("kfree(2) & image(x^2+1)").count_view() is None


@pytest.mark.parametrize("text, view", [
    ("primes", CountView(mix=(0, 0, 1))),
    ("kfree(2) \\ primes", CountView(k=2, mix=(1, 0, -1))),
    ("primes \\ kfree(3)", CountView(k=3, mix=(0, 1, -1))),
    ("primes | !multiples(3,4)", CountView(moduli=(3, 4), mix=(1, 1, -1), exceptions=(3,))),
    ("(kfree(2) & cong(1,2)) & primes", CountView(k=2, cls=(1, 2), mix=(0, 0, 1), exceptions=(2,))),
    ("cong(1,4) & kfree(2) \\ multiples(9)", CountView(k=2, moduli=(9,), cls=(1, 4))),
    ("!(kfree(2) & !multiples(3))", CountView(k=2, moduli=(3,), complement=True)),
    ("!!kfree(3)", CountView(k=3)),
    # outside the view: a lone cong, two cong or kfree factors, a cong that
    # misses infinitely many primes, a complement or an empty set beside
    # primes, a primes-free difference, dimension 2
    ("cong(1,4)", None),
    ("kfree(2) & cong(1,4) & cong(1,3)", None),
    ("kfree(2) & kfree(3)", None),
    ("(kfree(2) & cong(1,4)) \\ primes", None),
    ("multiples(4) | primes", None),
    ("!multiples(1) & primes", None),
    ("kfree(2) \\ cong(1,4)", None),
    ("multiples(2) & coprime(2)", None),
])
def test_count_view_shapes(text, view):
    assert compile_set(text).count_view() == view


# ---------------------------------------------------------------- properties


_ATOMS = st.sampled_from(
    ["cong(1,3)", "cong(2,6)", "kfree(2)", "multiples(4,6)", "multiples(3)",
     "finite(3,5)", "primes", "leadingdigit(1,10)"]
)


@st.composite
def _expr_text(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        return draw(_ATOMS)
    op = draw(st.sampled_from(["|", "&", "\\", "!"]))
    if op == "!":
        inner = draw(_expr_text(depth=depth - 1))
        return f"!({inner})"
    a = draw(_expr_text(depth=depth - 1))
    b = draw(_expr_text(depth=depth - 1))
    return f"({a}) {op} ({b})"


@settings(max_examples=80, deadline=None)
@given(_expr_text())
def test_print_parse_round_trip(text):
    e = parse(text)
    assert parse(to_text(e)) == e


@settings(max_examples=40, deadline=None)
@given(_expr_text(), st.integers(min_value=5, max_value=400))
def test_mask_agrees_with_contains(text, n):
    cs = compile_set(text)
    mask = cs.mask_upto(n)
    for x in range(1, n + 1):
        assert bool(mask[x]) == (x in cs), (text, x)
    # the box [1, n] is the same table without the padding cell 0
    starts, parts = zip(*cs.blocks(n))
    assert starts[0] == 1 and np.array_equal(np.concatenate(parts), mask[1:])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.sampled_from(["kfree(2)", "cong(1,3)"]),
       st.integers(min_value=2, max_value=24))
def test_residue_count_scaling_law(a, text, m):
    # scaling the set by a turns classes mod m into classes mod a*m bijectively
    cs = compile_set(text)
    base = cs.residue_image(m, truncation=10**5)
    n = 10**5
    mask = cs.mask_upto(n)
    scaled = frozenset((a * x) % (a * m) for x in np.nonzero(mask)[0])
    assert len(scaled) == base.count
    assert scaled == frozenset((a * r) % (a * m) for r in base.residues)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=60), st.integers(min_value=2, max_value=60))
def test_union_of_exact_atoms_stays_exact(r, m):
    e = Union(Cong(r % m, m), KFree(2))
    img = compile_set(e).residue_image(12)
    assert img.mode == EXACT
    oracle = brute_residues(lambda x: x % m == r % m or SQUAREFREE[x], 12, 60000)
    assert img.residues == oracle


# ---------------------------------------------------------------- differential

_BOX = 5000  # every class these atoms reach mod m <= 60 has a member in [-_BOX, _BOX]


@st.composite
def _union_of_atoms(draw):
    """DSL text of a union of 1-3 exact atoms, with an independent membership
    predicate over Z."""
    texts, preds = [], []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["cong", "kfree", "multiples", "finite"]))
        if kind == "cong":
            r, m0 = draw(st.integers(-20, 20)), draw(st.integers(1, 12))
            texts.append(f"cong({r},{m0})")
            preds.append(lambda x, r=r, m0=m0: (x - r) % m0 == 0)
        elif kind == "kfree":
            texts.append("kfree(2)")
            preds.append(lambda x: SQUAREFREE[abs(x)])
        elif kind == "multiples":
            mods = tuple(draw(st.lists(st.integers(1, 15), min_size=1, max_size=3)))
            texts.append(f"multiples({','.join(map(str, mods))})")
            preds.append(lambda x, mods=mods: any(x % a == 0 for a in mods))
        else:
            vals = tuple(draw(st.lists(st.integers(-50, 50), min_size=1, max_size=4)))
            texts.append(f"finite({','.join(map(str, vals))})")
            preds.append(lambda x, vals=vals: x in vals)
    return " | ".join(texts), lambda x: any(p(x) for p in preds)


def _brute_union_image(pred, m):
    return frozenset(x % m for x in range(-_BOX, _BOX + 1) if pred(x))


@st.composite
def _polynomial(draw, arity):
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        e = (draw(st.integers(0, 5)), draw(st.integers(0, 3)) if arity == 2 else 0, 0)
        terms[e] = draw(st.integers(-9, 9))
    return Polynomial.from_dict(terms)


@settings(max_examples=60, deadline=None)
@given(_union_of_atoms(), st.integers(min_value=1, max_value=60))
def test_exact_union_image_matches_brute_force(case, m):
    text, pred = case
    cs = compile_set(text)
    img = cs.residue_image(m)
    oracle = _brute_union_image(pred, m)
    assert img.mode == EXACT
    assert img.residues == oracle, (text, m)
    assert cs.residue_count(m) == len(oracle), (text, m)


@st.composite
def _clopen_tree(draw, depth=3, dim=1, top=12):
    """DSL text of a tree of cong/multiples atoms (multiples alone above
    dimension 1) with moduli up to top under | & \\ !, a numpy membership
    predicate on the tuple of coordinate arrays, and a period of the tree."""
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        if dim == 1 and draw(st.booleans()):
            r, m0 = draw(st.integers(-20, 20)), draw(st.integers(1, top))
            return f"cong({r},{m0})", lambda xs: (xs[0] - r) % m0 == 0, m0
        mods = tuple(draw(st.lists(st.integers(1, top), min_size=1, max_size=3)))
        return (f"multiples({','.join(map(str, mods))})",
                lambda xs: np.logical_or.reduce([np.logical_and.reduce([x % a == 0 for x in xs])
                                                 for a in mods]),
                math.lcm(*mods))
    op = draw(st.sampled_from(["|", "&", "\\", "!"]))
    ta, pa, la = draw(_clopen_tree(depth - 1, dim, top))
    if op == "!":
        return f"!({ta})", lambda xs: ~pa(xs), la
    tb, pb, lb = draw(_clopen_tree(depth - 1, dim, top))
    combine = {"|": np.logical_or, "&": np.logical_and, "\\": lambda u, v: u & ~v}[op]
    return f"({ta}) {op} ({tb})", lambda xs: combine(pa(xs), pb(xs)), math.lcm(la, lb)


def _periodic_image(pred, period, m, dim=1):
    """The image mod m of a set of the given period: the classes of its
    members in one common period [0, lcm(m, period))^dim."""
    xs = np.indices((math.lcm(m, period),) * dim).reshape(dim, -1)
    members = (xs[:, pred(tuple(xs))] % m).tolist()
    return frozenset(members[0]) if dim == 1 else frozenset(zip(*members))


@settings(max_examples=80, deadline=None)
@given(_clopen_tree(), st.integers(min_value=1, max_value=210))
def test_clopen_tree_image_matches_brute_force(case, m):
    text, pred, period = case
    cs = compile_set(text)
    oracle = _periodic_image(pred, period, m)
    assert cs.mode == EXACT
    assert cs.residue_image(m).residues == oracle, (text, m)
    assert cs.residue_count(m) == len(oracle), (text, m)
    assert cs.clopen_image_exact(m).residues == oracle, (text, m)


@pytest.mark.parametrize("arity,m_max", [(1, 80), (2, 30)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_poly_image_matches_evaluation(arity, m_max, data):
    poly = data.draw(_polynomial(arity))
    m = data.draw(st.integers(min_value=1, max_value=m_max))
    img = compile_set(PolyImage(poly)).residue_image(m)
    assert img.residues == brute_poly_image(poly, m), (str(poly), m)


@pytest.mark.parametrize("n,levels", [(2, (1, 2, 4, 12, 18, 30)), (3, (1, 4, 6, 12))])
def test_coprime_image_matches_gcd(n, levels):
    cs = compile_set(f"coprime({n})")
    # a dimension-n union with a clopen subtree: tuples not all even
    union = compile_set(f"!multiples(2) | coprime({n})")
    assert union.mode == EXACT
    for m in levels:
        img = cs.residue_image(m)
        assert img.residues == brute_coprime_image(n, m), (n, m)
        assert img.count == cs.residue_count(m)
        period = product(range(math.lcm(m, 2)), repeat=n)
        odd = {tuple(c % m for c in x) for x in period if any(c % 2 for c in x)}
        assert union.residue_image(m).residues == img.residues | odd, (n, m)
        assert union.residue_count(m) == len(img.residues | odd)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([1, 6, 12, 20, 36, 60, 90]))
def test_crt_split_matches_projection(data, m):
    kind = data.draw(st.sampled_from(["union", "poly", "coprime"]))
    if kind == "union":
        expr, pred = data.draw(_union_of_atoms())
        oracle = _brute_union_image(pred, m)
    elif kind == "poly":
        poly = data.draw(_polynomial(1))
        expr, oracle = PolyImage(poly), brute_poly_image(poly, m)
    else:
        expr, oracle = "coprime(2)", brute_coprime_image(2, m)

    def reduce(r, q):
        return tuple(c % q for c in r) if isinstance(r, tuple) else r % q

    want = {q: frozenset(reduce(r, q) for r in oracle) for q in prime_power_parts(m)}
    split = crt_split(compile_set(expr).residue_image(m))
    assert {q: part.residues for q, part in split.parts.items()} == want
    assert split.is_product == (math.prod(len(v) for v in want.values()) == len(oracle))


# ---------------------------------------------------------------- level counts

_SQUAREFREE_BOX = np.array(SQUAREFREE[:_BOX + 1])
_PRIME_BOX = np.array([is_prime(x) for x in range(_BOX + 1)])


def _box_image(pred, m):
    """The classes mod m of the members in [-_BOX, _BOX] of a dimension-1
    set given by a numpy predicate."""
    x = np.arange(-_BOX, _BOX + 1)
    return frozenset((x[pred(x)] % m).tolist())


@st.composite
def _count_union(draw, dim):
    """DSL text of a union of leaves of every kind level counts split (a
    clopen tree or a bare cong/multiples, coprime, and in dimension 1
    kfree, primes, finite and image), and an oracle m -> the union's image
    mod m: the union of the leaves' brute-force images. Above dimension 1
    coprime(dim) is always a leaf: it is the atom that fixes the dimension."""
    kinds = ["clopen", "coprime"] + (["kfree", "primes", "finite", "image"] if dim == 1 else [])
    texts, oracles = ([f"coprime({dim})"], [lambda m: brute_coprime_image(dim, m)]) if dim > 1 else ([], [])
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(kinds))
        if kind == "clopen":
            text, pred, period = draw(_clopen_tree(2 if dim > 1 else 3, dim, 6 if dim > 1 else 12))
            oracle = lambda m, pred=pred, period=period: _periodic_image(pred, period, m, dim)
        elif kind == "coprime":  # coprime(1) is {-1, 1}
            text = f"coprime({dim})"
            oracle = ((lambda m: _box_image(lambda x: abs(x) == 1, m)) if dim == 1
                      else lambda m: brute_coprime_image(dim, m))
        elif kind == "kfree":
            text, oracle = "kfree(2)", lambda m: _box_image(lambda x: _SQUAREFREE_BOX[abs(x)], m)
        elif kind == "primes":
            text, oracle = "primes", lambda m: _box_image(lambda x: _PRIME_BOX[abs(x)] & (x > 0), m)
        elif kind == "finite":
            vals = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=4))
            text = f"finite({','.join(map(str, vals))})"
            oracle = lambda m, vals=vals: frozenset(v % m for v in vals)
        else:
            poly = draw(_polynomial(1))
            text, oracle = to_text(PolyImage(poly)), lambda m, poly=poly: brute_poly_image(poly, m)
        texts.append(text)
        oracles.append(oracle)
    return " | ".join(f"({t})" for t in texts), lambda m: frozenset().union(*(o(m) for o in oracles))


@pytest.mark.parametrize("dim,m_max", [(1, 60), (2, 24)])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_level_count_matches_the_mask_and_brute_force(dim, m_max, data):
    text, oracle = data.draw(_count_union(dim))
    m = data.draw(st.integers(min_value=1, max_value=m_max))
    cs = compile_set(text)
    assert cs.mode == EXACT and cs.dim == dim
    want = oracle(m)
    assert cs.residue_count(m) == len(want), (text, m)
    # the mask reads the same terms as the count, so it is checked on its own
    assert cs.residue_image(m).residues == want, (text, m)


def test_level_count_budget_bounds_the_local_work(monkeypatch):
    # sum q^dim over q || m, not m^dim: 2 + 3 + ... + 13 = 41 fits a budget
    # of 50, the next primorial's 58 does not
    monkeypatch.setattr(_counts, "RESIDUE_BUDGET", 50)
    trace = closure_measure_trace(compile_set("kfree(2) | cong(1,4)"), ModulusChain.primorial(), 10**6)
    assert [r.modulus for r in trace.records] == [2, 6, 30, 210, 2310, 30030]
    assert trace.notes == ("stopped before level 7 (m=510510): local work 58 at level m=510510, "
                           "dim=1 exceeds budget 50",)
    # an image's local work at q = p^j || m is q or its descent's grid
    # p^arity, whichever is more: 8 + 9 fits at m = 72, 8 + 9 + 7^2 does
    # not at m = 504
    image = compile_set("image(x^2 + y^2)")
    assert image.residue_count(72) == brute_local_image_count(lambda x, y: x * x + y * y, 72)
    with pytest.raises(BudgetExceeded, match="local work 66 at level m=504"):
        image.residue_count(504)


def test_clopen_pieces_are_built_once_per_set(monkeypatch):
    # a complement of multiples splits into its coprime groups, one small
    # period box each, built at the first level and read at every later one,
    # by level counts and residue images alike; at q = p^j || m a group p^e
    # leaves p^j - p^(j-e) classes when e <= j
    calls = []
    monkeypatch.setattr(_counts, "_box_mask", lambda *a: calls.append(a) or _box_mask(*a))
    mods = {2: 2, 3: 2, 5: 2, 7: 2, 11: 2, 13: 1}
    cs = compile_set("!multiples(4,9,25,49,121,13)")
    for m in (2, 6, 30, 210, 2310, 30030, 30030**2):
        want = math.prod(q - (q // p ** mods[p] if mods[p] <= j else 0)
                         for p, j, q in _primes.prime_powers_of(m))
        assert cs.residue_count(m) == want, m
        if m < 10**4:
            assert cs.residue_image(m).count == want, m
    assert all(isinstance(node, Complement) for node, *_ in calls)
    assert all(len(set(ranges)) == 1 and ranges[0][0] == 0 for _, ranges in calls)
    assert sorted(ranges[0][1] + 1 for _, ranges in calls) == [4, 9, 13, 25, 49, 121]


def test_image_count_keeps_a_mask_not_a_set_of_values(monkeypatch):
    # at a prime q near the (lowered) budget the image's values mod q stay
    # the descent's mask of q bytes: counting peaks at the descent's own
    # peak, with no Python object per value, and a full image keeps no mask
    # at all
    q = 131071
    monkeypatch.setattr(_counts, "RESIDUE_BUDGET", q + 1)
    square, identity = compile_set("image(x^2)"), compile_set("image(x)")
    tracemalloc.start()
    try:
        _hensel.image_mask(square.expr.poly, 1, q, 1)
        _, evaluation = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        assert square.residue_count(q) == (q + 1) // 2
        assert identity.residue_count(q) == q
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= evaluation + 2 * q, (peak, evaluation)
    assert [mask is None for mask, _ in identity._tables["images"].values()] == [True]


def test_image_values_hold_the_mask_and_one_chunk():
    # the powers are taken per chunk of 2^16 points, so past the chunks'
    # own tables only the q-byte mask grows with q
    q = 4194319  # the least prime above 2^22
    tracemalloc.start()
    try:
        hit = _hensel.image_mask(Polynomial.from_dict({(3, 0, 0): 1, (1, 0, 0): 1}), 1, q, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= q + 48 * 2**20, peak
    assert all(hit[(x**3 + x) % q] for x in range(0, q, 9973))


# (arity, p, k) with q^arity <= 10^5, q = p^k: the brute-force grid stays small
DESCENT_CASES = [(n, p, k) for n in (1, 2, 3) for p in (2, 3, 5, 7, 11) for k in range(1, 17)
                 if p ** (k * n) <= 10**5]


@settings(max_examples=80, deadline=None)
@given(case=st.sampled_from(DESCENT_CASES),
       terms=st.lists(st.tuples(st.tuples(*[st.integers(0, 7)] * 3), st.integers(-30, 30),
                                st.integers(0, 2)), min_size=1, max_size=4))
def test_hensel_descent_matches_the_brute_force_grid(case, terms):
    # coefficients divisible by p and powers x^p (whose derivative vanishes
    # mod p) come up often, so do classes the descent must refine, and
    # grids it evaluates whole instead; the Python-int pieces and the numpy
    # chunks (_INT_BATCH 0) must agree
    n, p, k = case
    q = p**k
    coeffs: dict = {}
    for e, c, s in terms:
        e = tuple(x if i < n else 0 for i, x in enumerate(e))
        coeffs[e] = coeffs.get(e, 0) + c * p**s
    poly = Polynomial.from_dict(coeffs)
    want = bytearray(q)
    for x in product(range(q), repeat=n):
        want[poly.evaluate(x, q)] = 1
    for batch in (_hensel._INT_BATCH, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_hensel, "_INT_BATCH", batch)
            assert _hensel.image_mask(poly, n, p, k) == want, (str(poly), case, batch)


def test_hensel_descent_charges_each_refinement_before_evaluating_it(monkeypatch):
    # 1024 x^2 mod 2^12: the gradient vanishes mod 2^10 on every class, so
    # splitting them would cost more than the 2^12 points of the grid, which
    # is evaluated instead; its values are 0 and 1024
    hit = _hensel.image_mask(Polynomial.from_dict({(2, 0, 0): 1024}), 1, 2, 12)
    assert [r for r, v in enumerate(hit) if v] == [0, 1024]
    # 211 x y z mod 211^2: every class of the 211^3 grid splits, and the
    # first chunk of them is already past the budget: refused at once
    with pytest.raises(BudgetExceeded, match="of image\\(211\\*x\\*y\\*z\\) mod 44521 exceeds"):
        _hensel.image_mask(Polynomial.from_dict({(1, 1, 1): 211}), 3, 211, 2)
    # x^2 + y^2 mod 32: the grid's 4 classes all refine (16 more), then the
    # 4 even classes mod 4 (16), then the 4 classes 0 mod 4 of those mod 8
    # (16): 52 classes are over a budget of 50 before the fourth depth runs
    monkeypatch.setattr(_hensel, "RESIDUE_BUDGET", 50)
    squares = Polynomial.from_dict({(2, 0, 0): 1, (0, 2, 0): 1})
    assert _hensel.image_mask(squares, 2, 2, 3).count(1) == 5  # 0, 1, 2, 4, 5 mod 8
    with pytest.raises(BudgetExceeded, match=r"local work 52 of image\(x\^2 \+ y\^2\) mod 32 exceeds"):
        _hensel.image_mask(squares, 2, 2, 5)
    # x^3 + y^3 + z^3 mod 97^2: the 97^3 grid's nonsingular classes hit every
    # class mod 97, so the descent stops there instead of splitting (0, 0, 0)
    monkeypatch.setattr(_hensel, "RESIDUE_BUDGET", 97**3)
    cubes = Polynomial.from_dict({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    assert _hensel.image_mask(cubes, 3, 97, 2).count(1) == 97**2
