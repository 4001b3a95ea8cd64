"""Density estimators for definable integer sets, plus an exact axiom
harness over periodic sets, each held as the boolean mask of its classes
mod m.

Five estimator families are provided: weighted counting with exponent
alpha in [-1,0] (alpha=0 is plain asymptotic density, alpha=-1 the
logarithmic one), uniform (sliding-window) density, analytic density via
Dirichlet-series ratios, the finite-level (residue-image) density whose
upper values are certified for exact sets, and step-function-weighted
density. Estimators extract liminf/limsup surrogates from the tail of an
evaluation grid; they are estimates, never certificates, except where a
report explicitly says so.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from itertools import compress, repeat
from typing import TYPE_CHECKING

from . import _primes, measure
from ._ie import _ie_coefficients
from ._primes import (FAIL, PASS, BudgetExceeded, Record, VerificationReport, _iroot, mobius_codes,
                      prime_pi_table)
from .measure import ModulusChain, closure_measure_trace, masked_power_sums, zeta_partial
from .setdsl import (
    EXACT,
    CompiledSet,
    Complement,
    Cong,
    CountView,
    DslValueError,
    FiniteSet,
    Union,
    compile_set,
)

# numpy is imported by the functions that build a table, so an estimate
# that reads only closed forms and floor sums loads none
if TYPE_CHECKING:
    import numpy as np

_EULER_GAMMA = 0.5772156649015328606

DEFAULT_TAIL_WINDOW = 5


def harmonic(n: int) -> float:
    """H(n) = sum of 1/k for k <= n (0 for n < 1): Euler-Maclaurin through
    zeta_partial below 2^53, log n + Euler's constant from there on, where
    the next term 1/(2n) is below float resolution."""
    if n < 1:
        return 0.0
    if n < 2**53:
        return zeta_partial(1.0, n)[0]
    return math.log(n) + _EULER_GAMMA


# ------------------------------------------------------------- reports


class DensityReport(Record):
    _fields = ("method", "params", "grid", "values", "lower_est", "upper_est", "certified", "notes")
    _defaults = ((),)

    def _check(self):
        if not self.grid:
            raise DslValueError("empty evaluation grid")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise DslValueError("grid must be strictly increasing")
        if self.lower_est > self.upper_est + 1e-12:
            raise DslValueError("lower estimate exceeds upper estimate")


def _report(method: str, params: dict, grid, values, bounds, tail_window: int,
            notes=()) -> DensityReport:
    """An uncertified estimate: bounds holds a (lower, upper) pair per grid
    point, in the order the estimator approaches its limit, and the report's
    extremes are the least lower and the largest upper value of the last
    tail_window pairs."""
    tail = bounds[-min(tail_window, len(bounds)):]
    return DensityReport(method=method, params=params, grid=tuple(grid), values=tuple(values),
                         lower_est=min(lo for lo, _ in tail), upper_est=max(hi for _, hi in tail),
                         certified=False, notes=tuple(notes))


def _radii(r_grid) -> list[int]:
    grid = [int(r) for r in r_grid]
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])) or grid[0] < 1:
        raise DslValueError("r_grid must be nonempty, positive, strictly increasing")
    return grid


# ------------------------------------------------------------- alpha family


def density_alpha(cset: CompiledSet, alpha: float, r_grid, tail_window: int = DEFAULT_TAIL_WINDOW) -> DensityReport:
    """Ratios of weight sums |k|^alpha over X against the whole box of
    radius r ([1, r] in dimension 1, [-r, r]^dim above), on an increasing
    grid of radii. Closed forms cover interval-structured sets, and at
    alpha in {0,-1} the floor sums of the count view (_member_weights),
    which is what allows the huge radii the slow logarithmic convergence
    needs."""
    if not -1 <= alpha <= 0:
        raise DslValueError(f"alpha must lie in [-1,0], got {alpha}")
    grid = _radii(r_grid)
    if cset.dim == 1:
        nums, note = _member_weights(cset, alpha, grid)
        values = [num / _whole_weight(alpha, r) for num, r in zip(nums, grid)]
        notes = [note] if note else []
    else:
        values, notes = _box_ratios(cset, alpha, grid), []
    return _report("alpha", {"alpha": alpha, "tail_window": tail_window,
                             "mode": "positive" if cset.dim == 1 else "symmetric"},
                   grid, values, [(v, v) for v in values], tail_window, notes)


def _whole_weight(alpha: float, r: int) -> float:
    """Sum of k^alpha over 1 <= k <= r."""
    if alpha == 0.0:
        return float(r)
    return harmonic(r) if alpha == -1.0 else zeta_partial(-alpha, r)[0]


def _box_ratios(cset: CompiledSet, alpha: float, grid: list[int]) -> list[float]:
    """The ratios at every radius r of the grid in dimension >= 2, read from
    the one slab stream of the box [-R, R]^dim, R the largest radius: the
    exact count of each central box [-r, r]^dim, slab by slab, at alpha 0,
    else the power-sum kernel over members against points per shell
    |x| = k <= r, |x| the largest |coordinate|. The origin has no weight."""
    import numpy as np

    big, dim = grid[-1], cset.dim
    if alpha == 0.0:  # the exact count over each central box, origin included
        counts = [0] * len(grid)
        for lo, slab in cset.blocks(big):
            for i, r in enumerate(grid):
                rows = slice(max(0, -r - lo), max(0, r - lo + 1))
                counts[i] += int(np.count_nonzero(slab[(rows,) + (slice(big - r, big + r + 1),) * (dim - 1)]))
        return [float(c) / float((2 * r + 1)**dim) for c, r in zip(counts, grid)]
    # members per shell, one row of a slab at a time: rest is the norm
    # table of the other axes, so no whole-box norm table is built
    ax = np.abs(np.arange(-big, big + 1)).astype(np.min_scalar_type(big))
    rest = functools.reduce(np.maximum, np.ix_(*[ax] * (dim - 1)))
    members = np.zeros(big + 1, dtype=np.int64)
    for lo, slab in cset.blocks(big):
        for a, row in zip(ax[lo + big:], slab):
            members += np.bincount(np.maximum(rest, a)[row], minlength=big + 1)
    k = np.arange(big + 1, dtype=np.int64)
    points = (2 * k + 1)**dim - (2 * k - 1)**dim
    return [float(masked_power_sums(members[:r + 1], [-alpha])[0][0]
                  / masked_power_sums(points[:r + 1], [-alpha])[0][0]) for r in grid]


def _member_weights(cset: CompiledSet, alpha: float, grid: list[int]) -> tuple[list[float], str | None]:
    """Sums of k^alpha over the members k of X in [1, r] for every radius r
    of the increasing grid (dimension 1): closed forms for interval sets
    and the floor sums of the set's count view at alpha in {0, -1} (at
    alpha 0 only, when the view has a cong factor or primes), else the
    prefix weights of one stream. A view past FLOOR_SUM_BUDGET takes the
    stream when the box [1, r] fits the box budget."""
    if alpha in (0.0, -1.0):
        views = [cset.interval_view(r) for r in grid]
        if views[0] is not None:
            if alpha == 0.0:
                nums = [float(sum(b - a + 1 for a, b in iv)) for iv in views]
            else:
                nums = [math.fsum(harmonic(b) - harmonic(a - 1) for a, b in iv) for iv in views]
            return nums, "closed-form interval counts"
        view = cset.count_view()
        if view is not None and (alpha == 0.0 or view.cls is None and view.mix == (1, 0, 0)):
            try:
                return [float(w) for w in _floor_sums(view, alpha, grid)], "closed-form floor sums"
            except BudgetExceeded:
                if grid[-1] > _primes.BOX_BUDGET:
                    raise
    return [float(w) for w in _prefix_weights(cset, alpha, grid, grid[-1])], None


def _prefix_weights(cset: CompiledSet, alpha: float, cuts: list[int], n: int) -> list:
    """Sums of k^alpha over the members k of X in [1, x], for each
    increasing cut point x <= n (0 below 1), from one stream of blocks over
    [1, n]: exact integer counts of every cell at
    alpha 0, else fsums of the power-sum kernel's chunk sums, so the weight
    at x is the float of masked_power_sums(cset.blocks(x)) bit for bit."""
    import numpy as np

    def weigh(k0: int, piece: np.ndarray) -> int | float:
        return (int(np.count_nonzero(piece)) if alpha == 0.0
                else float(masked_power_sums([(k0, piece)], [-alpha])[0][0]))

    pieces = (((lo, table, [weigh(lo, table)]) for lo, table in cset.blocks(n)) if alpha == 0.0
              else measure._chunk_power_sums(cset.blocks(n), [-alpha], measure._Tally()))
    total = sum if alpha == 0.0 else math.fsum
    out, parts, pending = [], [], iter(cuts)
    x = next(pending, None)
    for k0, piece, (whole,) in pieces:
        while x is not None and x < k0 + piece.size:
            out.append(total(parts + [weigh(k0, piece[:max(0, x - k0 + 1)])]))
            x = next(pending, None)
        if x is None:
            return out
        parts.append(whole)
    return out + [total(parts)] * (len(cuts) - len(out))


def _floor_sums(view: CountView, alpha: float, grid: list[int]) -> list[int | float]:
    """Weights of X ∩ [1, r] over the grid from the view's floor sums: exact
    integer counts at alpha 0, fsums at alpha -1 (a view without a cong
    factor or primes). The Moebius terms and the Lucy table updates are
    charged to _primes.FLOOR_SUM_BUDGET, read at call time, before they
    run; past it BudgetExceeded."""
    spent, budget = 0, _primes.FLOOR_SUM_BUDGET

    def spend(n: int) -> None:
        nonlocal spent
        spent += n
        if spent > budget:
            raise BudgetExceeded(f"floor sums up to r = {grid[-1]} need more than {budget} "
                                 "Moebius terms and Lucy table updates")

    mix_v, mix_pi, mix_vp = view.mix
    pis = [0] * len(grid)
    if mix_pi or mix_vp:
        # one Lucy table at the largest radius has pi at every quotient of
        # it, the default grid r // 2^i among them; any other radius gets
        # its own. They go first: a table too large for the budget is
        # refused before it is made
        top = grid[-1]
        pi = prime_pi_table(top, spend)
        pis = [pi(r) if top // (top // r) == r else prime_pi_table(r, spend)(r) for r in grid]
    local = _local_weights(view, alpha, grid, spend) if mix_v else [0] * len(grid)
    return [mix_v * v + mix_pi * p + mix_vp * (p - sum(q <= r for q in view.exceptions))
            for v, p, r in zip(local, pis, grid)]


_PLUS = bytes.maketrans(b"\2", b"\0")  # mobius_codes to a mask of mu = 1
_MINUS = bytes.maketrans(b"\1\2", b"\0\1")  # and of mu = -1


def _local_weights(view: CountView, alpha: float, grid: list[int], spend) -> list[int | float]:
    """Weights of the view's local part V over the grid: at r, the sum over
    d <= r^(1/k) with mu(d) != 0 (d = 1 alone without a kfree factor) and
    over the inclusion-exclusion terms c_l, l <= r, of the moduli, of
    mu(d) c_l F(L), L = lcm(d^k, l): F(L) = r // L (or the one CRT class of
    the cong factor in L Z, _class_counter) at alpha 0, H(r // L) / L at
    alpha -1. A term with L > r is 0. The complement takes it from r or
    H(r)."""
    k = view.k or 1
    ie = _ie_coefficients(view.moduli, bound=grid[-1])
    roots = [_iroot(r, k) if view.k else 1 for r in grid]
    # a term through _class_counter costs about two plain floor terms
    spend((1 if view.cls is None else 2) * sum(root * sum(l <= r for l in ie) for r, root in zip(grid, roots)))
    codes = mobius_codes(roots[-1]) if view.k else b"\0\1"
    signs = [(1, codes.translate(_PLUS)), (-1, codes.translate(_MINUS))]
    del codes
    # runs of consecutive d past r^(1/(k+1)) share r // d^k, so a small
    # cache saves most of the harmonic numbers
    h = functools.lru_cache(maxsize=1 << 12)(harmonic)
    count = None if view.cls is None else _class_counter(*view.cls)
    out = []
    for r, root in zip(grid, roots):
        groups = []  # (coefficient, L values) per sign of mu(d) and term l
        for sign, marks in signs:
            for l, c in ie.items():
                if l <= r:
                    qs = map(pow, compress(range(root + 1), marks), repeat(k))
                    groups.append((sign * c, qs if l == 1 else map(math.lcm, qs, repeat(l))))
        if alpha == -1.0:
            weight = math.fsum(c * h(r // L) / L for c, Ls in groups for L in Ls)
        elif count is None:
            weight = sum(c * sum(map(r.__floordiv__, Ls)) for c, Ls in groups)
        else:
            weight = sum(c * sum(count(r, L) for L in Ls) for c, Ls in groups)
        if view.complement:
            weight = (r if alpha == 0.0 else harmonic(r)) - weight
        out.append(weight)
    return out


def _class_counter(a: int, m: int):
    """count(r, L): the n in [1, r] with L | n and n = a mod m. None unless
    g = gcd(L, m) divides a; else the one class n0 = L t mod lcm(L, m) with
    t = (a/g) (L/g)^-1 mod m/g (the CRT). g and t depend on L mod m only,
    so they are cached by it."""
    a %= m

    @functools.lru_cache(maxsize=1 << 12)
    def solve(x: int) -> tuple[int, int] | None:
        g = math.gcd(x, m)
        if a % g:
            return None
        step = m // g
        return a // g * pow(x // g, -1, step) % step, step

    def count(r: int, L: int) -> int:
        sol = solve(L % m)
        if sol is None:
            return 0
        t, step = sol
        return (r - L * t) // (L * step) + (t > 0)

    return count


def log_density_window(cset: CompiledSet, r_lo: int, r_hi: int) -> float:
    """Logarithmic density over the window (r_lo, r_hi]: the harmonic mass
    of members divided by the harmonic length. The cumulative ratio carries
    an O(1/log r) bias from small integers; differencing two radii cancels
    it, which is what makes tight limits reachable at feasible radii."""
    if not (0 <= r_lo < r_hi):
        raise DslValueError("window needs 0 <= r_lo < r_hi")
    if cset.dim != 1:
        raise DslValueError("window estimate needs a dimension-1 set")
    *low, high = _member_weights(cset, -1.0, [r for r in (r_lo, r_hi) if r > 0])[0]
    return (high - sum(low)) / (harmonic(r_hi) - harmonic(r_lo))


# ------------------------------------------------------------- uniform


def density_uniform(cset: CompiledSet, l_grid, scan_radius: int,
                    tail_window: int = DEFAULT_TAIL_WINDOW) -> DensityReport:
    """Window-extremal densities: per window length L, the sup and inf of
    |X ∩ window| / L over every length-L window inside [1, scan_radius].
    Values are (inf, sup) pairs; the report extremes come from the tail of
    the length grid."""
    if cset.dim != 1:
        raise DslValueError("uniform density implemented for dimension 1")
    lengths = [int(v) for v in l_grid]
    if not lengths or any(b <= a for a, b in zip(lengths, lengths[1:])) or lengths[0] < 1:
        raise DslValueError("window lengths must be positive, strictly increasing")
    if lengths[-1] > scan_radius:
        raise DslValueError(f"window length {lengths[-1]} exceeds the {scan_radius} points of the scan box")
    values = [(float(low) / L, float(high) / L)
              for (low, high), L in zip(_window_extremes(cset.blocks(scan_radius), lengths), lengths)]
    return _report("uniform", {"scan_radius": scan_radius, "tail_window": tail_window, "mode": "positive"},
                   lengths, values, values, tail_window,
                   ("values are (window-inf, window-sup) pairs per length",))


def _window_extremes(blocks, lengths: list[int]) -> list[tuple[int, int]]:
    """(min, max) over every window of L consecutive points of the number
    of members in it, for each L of the increasing lengths, from a stream
    of blocks with at least lengths[-1] points: running window counts
    w(e) = w(e - 1) + x(e) - x(e - L), x(k) the membership of k (0 for
    k < 1), over the blocks' own bool tables of the last lengths[-1] points."""
    import numpy as np

    extremes = [(math.inf, -math.inf)] * len(lengths)
    counts = [0] * len(lengths)  # w(done) per length
    kept, done = [], 0  # (first point, table) of the blocks kept; points read
    for _, table in blocks:
        kept.append((done + 1, table))
        for i, L in enumerate(lengths):
            back, d = done + 1 - L, table.view(np.int8).copy()  # x(e - L) is x(back + (e - done - 1))
            for first, old in kept:
                a, b = max(first, back), min(first + old.size, back + table.size)
                if a < b:
                    d[a - back:b - back] -= old[a - first:b - first].view(np.int8)
            skip = min(max(L - done - 1, 0), table.size)  # the points before the first window end
            counts[i] += int(d[:skip].sum())
            if skip < table.size:  # int32 is exact, as a block is below 2^31 cells
                w, (low, high) = np.cumsum(d[skip:], dtype=np.int32), extremes[i]
                extremes[i] = (min(low, counts[i] + int(w.min())), max(high, counts[i] + int(w.max())))
                counts[i] += int(w[-1])
        done += table.size
        kept = [(first, old) for first, old in kept if first + old.size > done + 1 - lengths[-1]]
    return extremes


# ------------------------------------------------------------- analytic


def density_analytic(cset: CompiledSet, s_grid, cutoff: int,
                     tail_window: int = DEFAULT_TAIL_WINDOW) -> DensityReport:
    """Dirichlet-density estimates: certified per-point brackets for the
    series ratio, with the report hull taken over the grid points closest
    to 1."""
    ss = [float(s) for s in s_grid]
    if not ss or any(b >= a for a, b in zip(ss, ss[1:])) or ss[-1] <= 1:
        raise DslValueError("s_grid must strictly decrease toward 1 and stay > 1")
    # the other estimators do not load analytic
    from .analytic import zeta_sets

    truncations = zeta_sets(cset, ss, cutoff)
    brackets = [[b.lo, b.hi] for b in (t.ratio_bracket() for t in truncations)]
    # point estimates are ratios of the partial sums; the clamped bracket
    # mid degenerates toward 1/2 whenever the tail budget blows up
    values = [t.partial / zeta_partial(t.s, cutoff)[0] for t in truncations]
    # the report grid must increase; s values decrease, so present reversed
    return _report("analytic", {"s_grid": ss, "cutoff": cutoff, "tail_window": tail_window,
                                "brackets": brackets},
                   reversed(ss), reversed(values), brackets, tail_window,
                   ("per-point brackets are certified; the limit extraction is an estimate",))


# ------------------------------------------------------------- finite-level


def density_buck(cset: CompiledSet, chain: ModulusChain, cutoff: int,
                 truncation: int | None = None) -> DensityReport:
    """Finite-level density: the upper value is the least level measure
    along the chain (a certified upper bound for exact sets); the lower
    value is one minus the same quantity for the complement, certified only
    when the complement is exact-mode, else computed from truncated
    complement images and flagged. The report is certified when both sides
    are."""
    trace = closure_measure_trace(cset, chain, cutoff, truncation)
    upper = min(trace.values())
    notes = list(trace.notes)
    comp = compile_set(Complement(cset.expr))
    levels = [r.modulus for r in trace.records]
    lower_certified = comp.mode == EXACT
    notes.append("lower bound from exact complement images" if lower_certified
                 else "UNCERTIFIED lower: complement images are truncated")
    comp_trace = closure_measure_trace(comp, chain, cutoff, truncation)
    notes += [f"complement: {n}" for n in comp_trace.notes if n.startswith("stopped before")]
    lower = 1 - min(comp_trace.values())
    if trace.mode != EXACT:
        notes.append("UNCERTIFIED upper: set images are truncated")
    lower = min(Fraction(lower), Fraction(upper))
    return DensityReport(
        method="buck",
        params={"chain": chain.kind, "cutoff": cutoff,
                "upper_exact": [upper.numerator, upper.denominator],
                "lower_exact": [lower.numerator, lower.denominator],
                "lower_certified": lower_certified},
        grid=tuple(levels),
        values=tuple(float(v) for v in trace.values()),
        lower_est=float(lower),
        upper_est=float(upper),
        certified=trace.mode == EXACT and lower_certified,
        notes=tuple(notes),
    )


# ------------------------------------------------------------- weighted


def density_weighted(cset: CompiledSet, step_fn, r_grid,
                     tail_window: int = DEFAULT_TAIL_WINDOW) -> DensityReport:
    """Density against a nonnegative step weight on [-1,1]: ratios of
    f(k/r) summed over X versus over the whole box [1, r], where steps
    below 1/r carry no weight. Intervals are treated as closed; endpoint
    collisions change sums by O(1/r)."""
    steps = [((float(a), float(b)), float(w)) for (a, b), w in step_fn]
    if not steps:
        raise DslValueError("empty step function")
    for (a, b), w in steps:
        if not (-1 <= a <= b <= 1):
            raise DslValueError(f"step interval [{a},{b}] must sit inside [-1,1]")
        if w < 0:
            raise DslValueError("weights must be nonnegative")
    if all(w == 0 for _, w in steps):
        raise DslValueError("degenerate step function: all weights vanish")
    if cset.dim != 1:
        raise DslValueError("weighted density implemented for dimension 1")
    grid = _radii(r_grid)
    rows = []  # per radius, the (u, v, w) of each weighted step [u, v] inside the box
    for r in grid:
        spans = [(max(math.ceil(a * r), 1), min(math.floor(b * r), r), w) for (a, b), w in steps if w != 0]
        rows.append([(u, v, w) for u, v, w in spans if u <= v])
        if not rows[-1]:
            raise DslValueError("degenerate step function: no weight on the box")
    cuts = sorted({x for row in rows for u, v, _ in row for x in (u - 1, v)})
    count = dict(zip(cuts, _prefix_weights(cset, 0.0, cuts, grid[-1])))
    values = []
    for row in rows:
        num = den = 0.0
        for u, v, w in row:
            num += w * (count[v] - count[u - 1])
            den += w * (v - u + 1)
        values.append(num / den)
    return _report("weighted", {"steps": [[list(iv), w] for iv, w in steps], "tail_window": tail_window},
                   grid, values, [(v, v) for v in values], tail_window)


# ------------------------------------------------------------- axiom harness


def exact_pair(d: Fraction) -> tuple[Fraction, Fraction]:
    """The exact density d of a periodic set as both values."""
    return d, d


def deformed_pair(d: Fraction) -> tuple[Fraction, Fraction]:
    """Conjugate deformation of the exact density: lower d^2, upper 2d-d^2.
    Keeps every axiom except scaling by an ideal, where it gives 3/4
    instead of 1/2 on the even numbers."""
    return d * d, 2 * d - d * d


_PAIRS = {"exact": exact_pair, "deformed": deformed_pair}


# the largest modulus of axiom_suite's random periodic sets, and the
# largest radius of their estimator spot checks
AXIOM_MAX_MODULUS = 40
AXIOM_CHECK_RADIUS = 10**6


def _random_periodic(rng: random.Random) -> np.ndarray:
    """A random periodic set: the mask of its classes mod m, for m drawn
    from 1..AXIOM_MAX_MODULUS and each class kept with one drawn chance."""
    import numpy as np

    m = rng.randint(1, AXIOM_MAX_MODULUS)
    density = rng.random()
    return np.array([rng.random() < density for _ in range(m)], dtype=bool)


def _classes(mask: np.ndarray) -> str:
    return f"classes {mask.nonzero()[0].tolist()} mod {mask.size}"


def axiom_suite(case_count: int, seed: int, pair: str = "exact",
                estimator_cases: int = 0) -> VerificationReport:
    """Exercises the density axioms in exact rational arithmetic over random
    periodic sets, each a boolean mask over Z/m: complements are ~, unions
    are |, translates are np.roll. The checks run against a (lower, upper)
    value pair of the set's density; the default pair is the exact density,
    for which every axiom holds with equality, and the deformed pair keeps
    every axiom except ideal-scaling: the verdict is PASS when exactly the
    expected axioms hold. Optionally re-estimates a few of the sampled sets
    with each estimator and compares against the exact density."""
    import numpy as np

    if pair not in _PAIRS:
        raise DslValueError(f"unknown pair {pair!r}; options: {sorted(_PAIRS)}")
    if case_count < 1 or estimator_cases < 0:
        raise DslValueError("axiom suite needs case_count >= 1 and estimator_cases >= 0")
    pair_of = _PAIRS[pair]

    def fn(mask: np.ndarray) -> tuple[Fraction, Fraction]:
        return pair_of(Fraction(int(np.count_nonzero(mask)), mask.size))

    rng = random.Random(seed)
    sets = [_random_periodic(rng) for _ in range(case_count)]

    fails: dict[str, list[str]] = {k: [] for k in (
        "normalization", "range-and-order", "monotonicity", "complement-duality",
        "disjoint-additivity", "translation-invariance", "ideal-scaling",
    )}

    for ps in sets:
        m = ps.size
        lo, up = fn(ps)
        flo, fup = fn(np.ones(m, dtype=bool))
        elo, eup = fn(np.zeros(m, dtype=bool))
        if not (flo == fup == 1 and elo == eup == 0):
            fails["normalization"].append(f"mod {m}: full -> ({flo},{fup}), empty -> ({elo},{eup})")
        if not (0 <= lo <= up <= 1):
            fails["range-and-order"].append(_classes(ps))
        bigger = ps.copy()
        bigger[rng.randrange(m)] = True
        blo, bup = fn(bigger)
        if not (lo <= blo and up <= bup):
            fails["monotonicity"].append(f"{_classes(ps)} vs {_classes(bigger)}")
        clo, _ = fn(~ps)
        if up + clo != 1:
            fails["complement-duality"].append(f"{_classes(ps)}: {up} + {clo} != 1")
        other = np.zeros(m, dtype=bool)
        outside = np.flatnonzero(~ps).tolist()
        other[rng.sample(outside, k=rng.randint(0, len(outside)))] = True
        ulo, uup = fn(ps | other)
        olo, oup = fn(other)
        if not (lo + olo <= ulo and uup <= up + oup):
            fails["disjoint-additivity"].append(f"{_classes(ps)} + {_classes(other)}")
        tlo, tup = fn(np.roll(ps, rng.randrange(1, m + 1)))
        if (tlo, tup) != (lo, up):
            fails["translation-invariance"].append(_classes(ps))

    for a in (2, 3, 5):
        ilo, iup = fn(np.arange(a) == 0)  # the ideal aZ
        if not (ilo == iup == Fraction(1, a)):
            fails["ideal-scaling"].append(
                f"multiples of {a}: got ({ilo},{iup}), expected {Fraction(1, a)}"
            )

    failing = [k for k, v in fails.items() if v]
    checks = []
    if estimator_cases > 0 and pair == "exact":
        for ps in sets[:estimator_cases]:
            checks.extend(_estimator_convergence(ps))
    quantities = {
        "pair": pair, "seed": seed,
        "axioms": [{"name": k, "cases": case_count, "failures": v, "passed": not v}
                   for k, v in fails.items()],
        "estimators": checks,
        "all_axioms_pass": not failing,
    }
    expect = "all axioms hold" if pair == "exact" else "all axioms except ideal-scaling hold"
    narrative = [f"{case_count} random periodic sets, pair={pair}; expected: {expect}"]
    if failing:
        narrative.append(f"failing axioms: {failing}")
    ok = failing == ([] if pair == "exact" else ["ideal-scaling"])
    return VerificationReport("axioms", {"cases": case_count, "seed": seed, "pair": pair},
                              quantities, PASS if ok else FAIL, tuple(narrative))


def _estimator_convergence(mask: np.ndarray) -> list[dict]:
    """Each estimator on the union of the classes cong(c, m) of the mask
    against its exact density, at radii up to AXIOM_CHECK_RADIUS: one JSON
    record per check."""
    m, classes = mask.size, mask.nonzero()[0].tolist()
    target = len(classes) / m
    cs = compile_set(functools.reduce(Union, (Cong(c, m) for c in classes)) if classes else FiniteSet(()))
    txt = f"periodic mod {m}, {len(classes)} classes"
    r = AXIOM_CHECK_RADIUS
    out = []

    def check(estimator: str, estimate: float, tolerance: float) -> None:
        out.append({"set": txt, "estimator": estimator, "estimate": estimate, "target": target,
                    "tolerance": tolerance, "passed": abs(estimate - target) <= tolerance})

    rep = density_alpha(cs, 0.0, [r // 4, r // 2, r], tail_window=3)
    check("alpha(0)", rep.upper_est, 1e-3)
    check("alpha(0)-lower", rep.lower_est, 1e-3)

    rep = density_uniform(cs, [10**5, 2 * 10**5], r, tail_window=2)
    check("uniform-upper", rep.upper_est, 1e-3)
    check("uniform-lower", rep.lower_est, 1e-3)

    rep = density_weighted(cs, [((0.0, 1.0), 1.0)], [r // 2, r], tail_window=2)
    check("weighted", rep.upper_est, 1e-3)

    rep = density_analytic(cs, [1.5, 1.2, 1.05], 10**5, tail_window=1)
    mid = 0.5 * (rep.lower_est + rep.upper_est)
    halfwidth = 0.5 * (rep.upper_est - rep.lower_est)
    check("analytic-bracket", mid, halfwidth + 1e-9)

    chain = ModulusChain.explicit([m, 2 * m])
    rep = density_buck(cs, chain, 2 * m)
    check("finite-level-upper", rep.upper_est, 0.0)
    check("finite-level-lower", rep.lower_est, 0.0)
    return out
