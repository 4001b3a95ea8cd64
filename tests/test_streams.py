"""Streamed membership: CompiledSet.blocks against the box table in
dimensions 1 to 3; sieve
segments, the shared cache and is_prime against a brute-force sieve; the
power-sum kernel over a block stream against the array call; prefix
weights at cut points against per-radius sums, and one stream per
estimator call; and the memory the streamed estimators and prime sums
keep as the radius grows."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zhat import _primes, measure, setdsl
from zhat.analytic import dlog_zeta_check, vm_identity_scan
from zhat.density import (
    _prefix_weights,
    density_alpha,
    density_analytic,
    density_uniform,
    density_weighted,
    log_density_window,
)
from zhat.measure import _BLOCK, euler_product, masked_power_sums
from zhat.setdsl import compile_set

SEGMENT = _primes._SEGMENT

ATOMS = ["cong(1,4)", "cong(-2,7)", "kfree(2)", "kfree(3)", "primes", "coprime(1)",
         "image(x^2+1)", "image(-x^3+5)", "image(7)", "multiples(6,10)",
         "leadingdigit(1,10)", "leadingdigit(2,3)", "seq(factorials)",
         "seq(factorial_shift)", "finite(-3,0,5,262144,262145,10^30)"]


def _expressions():
    atom = st.sampled_from([a.replace("10^30", str(10**30)) for a in ATOMS])
    return st.recursive(
        atom,
        lambda inner: st.one_of(
            inner.map(lambda a: f"!({a})"),
            st.tuples(inner, st.sampled_from("|&\\"), inner).map(lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
        ),
        max_leaves=4,
    )


# box sizes 1, at the block edges +-1 and in between
EDGES = [1, SEGMENT - 1, SEGMENT, SEGMENT + 1, 2 * SEGMENT + 1,
         SEGMENT // 2 - 1, SEGMENT // 2, SEGMENT // 2 + 1]


@settings(max_examples=60, deadline=None)
@given(text=_expressions(), n=st.one_of(st.sampled_from(EDGES), st.integers(1, 3 * SEGMENT)))
def test_blocks_concatenate_to_the_box(text, n):
    cs = compile_set(text)
    table = cs.mask_upto(n)[1:]
    starts, parts = zip(*cs.blocks(n))
    assert starts == tuple(range(1, n + 1, SEGMENT))
    assert all(p.size == SEGMENT for p in parts[:-1])
    assert np.array_equal(np.concatenate(parts), table)
    # mask_upto and blocks share _box_mask: check the cells at every block edge
    # against the membership oracle too
    for a, part in zip(starts, parts):
        for x in {a, a + 1, a + part.size - 2, a + part.size - 1} & set(range(a, a + part.size)):
            assert part[x - a] == cs.contains(x), x


# sets of dimensions 1 to 3, under every combinator
BOX_SETS = ["kfree(2) \\ cong(1,4)", "image(x^2+1) | seq(factorials)", "coprime(2)", "!coprime(2)",
            "coprime(2) | multiples(4,6)", "multiples(3) \\ coprime(2)", "coprime(3)",
            "!multiples(2) & !coprime(3)", "coprime(3) \\ multiples(5)"]


@settings(max_examples=100, deadline=None)
@given(text=st.sampled_from(BOX_SETS), n=st.integers(0, 40),
       segment=st.sampled_from([1, 7, 64, 300, SEGMENT]), data=st.data())
def test_blocks_in_every_dimension_concatenate_to_the_box(text, n, segment, data):
    # first-axis slabs of segment // row cells and at least one row, so a
    # lowered segment puts more cells in one row than a slab holds at small
    # radii (a row of [-n, n]^3 passes 2^18 cells only from n = 256 on); the
    # truncated image ORs the slabs' classes, with slabs of fewer and of
    # at least m rows, against the classes of the whole box's members
    cs = compile_set(text)
    n = min(n, 12) if cs.dim == 3 else n
    lo, row = (1, 1) if cs.dim == 1 else (-n, (2 * n + 1) ** (cs.dim - 1))
    m = data.draw(st.integers(1, max(1, n - lo + 4)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_primes, "_SEGMENT", segment)
        blocks = list(cs.blocks(n))
        image = setdsl._box_image(cs, n, m)
    table = setdsl._box_mask(cs.expr, ((lo, n),) * cs.dim)
    rows = max(1, segment // row)
    assert [a for a, _ in blocks] == list(range(lo, n + 1, rows))
    assert all(t.shape == (rows,) + table.shape[1:] for _, t in blocks[:-1])
    if blocks:
        assert np.array_equal(np.concatenate([t for _, t in blocks]), table)
    classes = {tuple(c) for c in (np.argwhere(table) + lo) % m}
    assert {tuple(c) for c in np.argwhere(image.reshape((m,) * cs.dim))} == classes


def test_members_in_box_at_radius_0():
    # the box of radius 0 is empty in dimension 1, the origin above
    assert compile_set("kfree(2)").members_in_box(0) == []
    assert list(compile_set("kfree(2)").blocks(0)) == []
    assert compile_set("coprime(2)").members_in_box(0) == []
    assert compile_set("!coprime(2)").members_in_box(0) == [(0, 0)]
    assert compile_set("!multiples(2) | !coprime(3)").members_in_box(0) == [(0, 0, 0)]


def test_blocks_check_the_box_budget(monkeypatch):
    monkeypatch.setattr(_primes, "BOX_BUDGET", 100)
    assert sum(t.size for _, t in compile_set("primes").blocks(100)) == 100
    with pytest.raises(setdsl.BudgetExceeded):
        compile_set("primes").blocks(101)  # raised before the first block
    # mask_upto pads [1, n] with the cell 0 but checks the same budget
    assert compile_set("primes").mask_upto(100).size == 101
    with pytest.raises(setdsl.BudgetExceeded, match=r"box \[1,101\]\^1 has 101 cells"):
        compile_set("primes").mask_upto(101)


def test_blocks_chunk_like_the_power_sum_kernel():
    # blocks start at 1 + j * SEGMENT, on the kernel's chunk
    # grid 1 + j * _BLOCK, which makes streamed sums the array call's floats
    assert SEGMENT % _BLOCK == 0


REFERENCE_N = 3 * SEGMENT


def _brute_sieve(n):
    """Eratosthenes over 0..n, one Python-level prime at a time."""
    table = [True] * (n + 1)
    table[:2] = [False] * min(2, n + 1)
    for p in range(2, math.isqrt(n) + 1):
        if table[p]:
            table[p * p::p] = [False] * len(range(p * p, n + 1, p))
    return np.array(table)


BRUTE = _brute_sieve(REFERENCE_N)


@settings(max_examples=80, deadline=None)
@given(lo=st.one_of(st.sampled_from([0, 1, 2, 3, 4, 25, 48, 120, 168]), st.integers(0, REFERENCE_N)),
       width=st.one_of(st.integers(-1, 400), st.integers(0, 2 * SEGMENT + 5)))
def test_sieve_segments_match_a_brute_force_sieve(lo, width):
    hi = min(lo + width, REFERENCE_N)
    assert np.array_equal(_primes._prime_segment(lo, hi), BRUTE[lo:hi + 1])


def test_whole_range_sieve_matches_a_brute_force_sieve():
    assert np.array_equal(_primes._prime_segment(0, REFERENCE_N), BRUTE)
    assert np.array_equal(_primes.primes_upto(REFERENCE_N), np.flatnonzero(BRUTE))


@pytest.mark.parametrize("bound", [30011, 30012, 2 * 10**4])  # a prime, its successor, a composite
def test_is_prime_matches_a_brute_force_sieve_across_the_sieve_bound(monkeypatch, bound):
    # a fresh cache sieved to exactly bound: below it is_prime searches the
    # sorted primes (past the last one when bound is not prime), above it
    # trial division decides
    for name in ("_SIEVE_BOUND", "_PRIMES", "_SMALL_PRIMES"):
        monkeypatch.setattr(_primes, name, getattr(_primes, name))
    monkeypatch.setattr(_primes, "_SIEVE_BOUND", 0)
    _primes.primes_upto(bound)
    assert _primes._SIEVE_BOUND == bound
    largest = int(_primes._PRIMES[-1])
    got = [_primes.is_prime(k) for k in range(-3, 2 * bound + 1)]
    assert got == [False] * 3 + BRUTE[:2 * bound + 1].tolist()
    for k in (bound - 1, bound, bound + 1, largest, largest + 1):
        assert _primes.is_prime(k) == BRUTE[k], k
    assert _primes._SIEVE_BOUND == bound


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 5 * _BLOCK),
       chunks=st.integers(1, 4), kind=st.sampled_from(["mask", "weights", "sparse"]))
def test_stream_power_sums_equal_the_array_call(seed, size, chunks, kind):
    # blocks from 1 + j * (a multiple of _BLOCK) chunk exactly like the array
    rng = np.random.default_rng(seed)
    if kind == "weights":
        table = rng.exponential(size=size + 1)
        table[rng.random(size + 1) < 0.3] = 0.0
    else:
        table = rng.random(size + 1) < (0.5 if kind == "mask" else 0.001)
    s_grid = [0.5, 1.0, 1.7, 3.0]
    step = chunks * _BLOCK
    stream = ((lo, table[lo:lo + step]) for lo in range(1, size + 1, step))
    sums, bounds = masked_power_sums(table, s_grid)
    got_sums, got_bounds = masked_power_sums(stream, s_grid)
    assert got_sums.tobytes() == sums.tobytes()
    assert got_bounds.tobytes() == bounds.tobytes()


def test_stream_power_sums_skip_cells_below_one():
    table = np.ones(11, dtype=bool)  # the integers -5..5
    sums, _ = masked_power_sums([(-5, table)], [1.0])
    assert sums[0] == math.fsum(1.0 / k for k in range(1, 6))


# ---------------------------------------------------------------- cut points


def _kernel_prefix(cs, alpha, x, n):
    """The weight up to x by the kernel alone: the blocks of the radius-n
    stream cut at x, and also the radius-x stream."""
    cut = [(a, t[:x - a + 1]) for a, t in cs.blocks(n) if a <= x]
    got = float(masked_power_sums(cut, [-alpha])[0][0])
    assert got == (float(masked_power_sums(cs.blocks(x), [-alpha])[0][0]) if x >= 1 else 0.0)
    return got


@settings(max_examples=40, deadline=None)
@given(text=_expressions(), alpha=st.sampled_from([0.0, -1.0, -0.5, -0.25]),
       n=st.one_of(st.sampled_from(EDGES), st.integers(1, 2 * SEGMENT + 5)), data=st.data())
def test_prefix_weights_equal_per_radius_sums(text, alpha, n, data):
    # cut points below the stream, at chunk and block edges +-1, and random
    cs = compile_set(text)
    lo, table = 1, cs.mask_upto(n)[1:]
    edges = [lo - 3, lo - 1, lo, n] + [e + d for e in range(lo, n + 1, _BLOCK) for d in (-1, 0, 1)]
    picked = data.draw(st.lists(st.sampled_from(edges) | st.integers(lo - 3, n), max_size=12))
    cuts = sorted({x for x in picked if x <= n})
    got = _prefix_weights(cs, alpha, cuts, n)
    if alpha == 0.0:  # exact counts, below the stream too
        assert got == [int(np.count_nonzero(table[:max(0, x - lo + 1)])) for x in cuts]
        assert all(type(w) is int for w in got)
    else:  # the kernel's floats bit for bit
        assert [w.hex() for w in got] == [_kernel_prefix(cs, alpha, x, n).hex() for x in cuts]


@pytest.mark.parametrize("text", ["kfree(2) \\ primes", "seq(factorials)"])
def test_prefix_weights_read_the_chunk_grid_at_call_time(monkeypatch, text):
    # 7-integer chunks do not divide 50-cell blocks, so each block's chunks
    # restart at its first cell, in the kernel and in the cut points alike;
    # the factorials leave chunks empty, and none after 120
    monkeypatch.setattr(measure, "_BLOCK", 7)
    monkeypatch.setattr(_primes, "_SEGMENT", 50)
    cs, n = compile_set(text), 230
    cuts = list(range(-1, n + 1))
    got = _prefix_weights(cs, -0.5, cuts, n)
    assert [w.hex() for w in got] == [_kernel_prefix(cs, -0.5, x, n).hex() for x in cuts]


R = 10**6
ONE_STREAM = {
    "alpha": lambda cs: density_alpha(cs, -1.0, [R // 16, R // 8, R // 4, R // 2, R]),
    "weighted": lambda cs: density_weighted(cs, [((0.0, 0.5), 1.0), ((0.25, 1.0), 2.0)], [R // 4, R // 2, R]),
    "weighted-clipped": lambda cs: density_weighted(
        cs, [((-1.0, -0.5), 1.0), ((-0.1, 0.7), 3.0)], [R // 4, R]),
    "window": lambda cs: log_density_window(cs, R // 10, R),
}


@pytest.mark.parametrize("path", sorted(ONE_STREAM))
def test_estimators_read_one_stream_per_call(monkeypatch, path):
    # every radius, span end and window end is a cut point of one stream
    # over the largest box
    calls = []
    blocks = setdsl.CompiledSet.blocks

    def counted(self, n):
        calls.append(n)
        return blocks(self, n)

    monkeypatch.setattr(setdsl.CompiledSet, "blocks", counted)
    ONE_STREAM[path](compile_set("kfree(2) \\ primes"))
    assert calls == [R]


# ---------------------------------------------------------------- memory

PATHS = {
    # at alpha 0 kfree(2) \\ primes alone counts by floor sums, not a stream
    "asymptotic": lambda r: density_alpha(compile_set("(kfree(2) \\ primes) | image(x^2+1)"), 0.0,
                                          [r // 4, r // 2, r]),
    "logarithmic": lambda r: density_alpha(compile_set("kfree(2) \\ primes"), -1.0, [r // 2, r]),
    "analytic": lambda r: density_analytic(compile_set("primes"), [1.5, 1.1], r),
    "uniform": lambda r: density_uniform(compile_set("kfree(3) | cong(1,4)"), [r // 40, r // 20], r),
    "dlog": lambda r: dlog_zeta_check(2.0, r, 1e-6),
    "vm-scan": lambda r: vm_identity_scan(r, 1e-9),
    "euler": lambda r: euler_product("1-1/p^2", r),
}


def _peak(run, r):
    tracemalloc.start()
    try:
        run(r)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("path", sorted(PATHS))
def test_streamed_paths_keep_memory_flat_in_r(path):
    # memory is O(block): quadrupling r adds under 1 MB, besides the
    # uniform estimator's history of its longest window (r/20 points, one
    # byte each); whole-range tables would add 8-64 MB here
    run = PATHS[path]
    run(10**6)  # the small shared sieve and the sieve wheel, once
    small, large = _peak(run, 10**6), _peak(run, 4 * 10**6)
    allowance = 2**20 + (4 * 10**6 // 20 if path == "uniform" else 0)
    assert large - small <= allowance, (small, large)


@pytest.mark.parametrize("path", ["dlog", "vm-scan"])
def test_prime_sums_hold_a_few_power_sum_chunks(path):
    # tables of 8 bytes per integer are one power-sum chunk wide (512 KiB);
    # as wide as a 2^18-cell sieve segment they would take 5.4 and 8.9 MB
    run = PATHS[path]
    run(10**6)
    assert _peak(run, 10**6) <= 4 * 10**6
