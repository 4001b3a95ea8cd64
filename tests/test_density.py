"""Counting estimators, window densities, and the finitely-additive axiom suite."""

import functools
import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zhat import _primes, setdsl
from zhat.density import (
    _floor_sums,
    _local_weights,
    _prefix_weights,
    _window_extremes,
    DensityReport,
    axiom_suite,
    density_alpha,
    density_analytic,
    density_buck,
    density_uniform,
    density_weighted,
    harmonic,
    log_density_window,
)
from zhat.measure import ModulusChain, masked_power_sums, zeta_partial
from zhat.setdsl import BudgetExceeded, DslValueError, compile_set


# ---------------------------------------------------------------------------
# harmonic numbers


def test_harmonic_small_values_match_fsum():
    for n in (1, 2, 3, 10, 99, 100, 101, 500, 2000):
        exact = math.fsum(1.0 / k for k in range(1, n + 1))
        assert harmonic(n) == pytest.approx(exact, abs=1e-12)


def test_harmonic_matches_exact_sums_within_bound():
    # below 2^53 harmonic is zeta_partial at s = 1, which bounds its error
    exact = Fraction(0)
    for n in range(1, 201):
        exact += Fraction(1, n)
        assert abs(Fraction(harmonic(n)) - exact) <= Fraction(zeta_partial(1.0, n)[1]), n


def test_harmonic_zero_and_validation():
    # empty-sum convention for nonpositive arguments
    assert harmonic(0) == 0.0
    assert harmonic(-1) == 0.0


def test_harmonic_large_arguments_stay_finite_and_monotone():
    # from 2^53 on harmonic is log n + Euler's constant
    vals = [harmonic(10**k) for k in (6, 12, 18, 30, 65)]
    assert all(math.isfinite(v) for v in vals)
    assert vals == sorted(vals)
    # H_n - ln n -> Euler-Mascheroni
    assert vals[-1] - math.log(10**65) == pytest.approx(0.5772156649, abs=1e-9)
    # below 2^53 it sums by Euler-Maclaurin; the asymptotic series through
    # 1/(12 n^2) is within 1e-25 of H_n there, an independent check
    for n in (10**6, 10**9, 10**12, 2**53 - 1):
        series = math.log(n) + 0.5772156649015329 + 1 / (2 * n) - 1 / (12 * n * n)
        assert harmonic(n) == pytest.approx(series, rel=5e-16), n


# ---------------------------------------------------------------------------
# counting estimators (alpha weights)


def _sieve_squarefree(r: int) -> np.ndarray:
    # independent of the set DSL: mark multiples of p^2 directly
    alive = np.ones(r + 1, dtype=bool)
    alive[0] = False
    p = 2
    while p * p <= r:
        alive[p * p :: p * p] = False
        p += 1
    return alive


def _sieve_squarefree_count(r: int) -> int:
    return int(np.count_nonzero(_sieve_squarefree(r)))

def test_alpha0_squarefree_tracks_direct_sieve():
    cset = compile_set("kfree(2)")
    grid = [10**4, 10**5]
    rep = density_alpha(cset, 0.0, grid)
    for r, val in zip(grid, rep.values):
        assert val == pytest.approx(_sieve_squarefree_count(r) / r, abs=1e-12)
    assert rep.values[-1] == pytest.approx(6.0 / math.pi**2, abs=2e-3)


def test_alpha0_mask_count_matches_membership():
    # neither an interval nor a count view: the mask count path
    cset = compile_set("kfree(2) & image(x^2+1)")
    grid = [1, 7, 100, 999]
    rep = density_alpha(cset, 0.0, grid)
    for r, val in zip(grid, rep.values):
        assert val == sum(1 for k in range(1, r + 1) if cset.contains(k)) / r


def test_alpha0_periodic_is_exact_at_multiple_radii():
    cset = compile_set("cong(2,5)")
    rep = density_alpha(cset, 0.0, [10**4])
    assert rep.values[0] == pytest.approx(0.2, abs=1e-12)
    assert rep.lower_est <= 0.2 <= rep.upper_est


def test_alpha_estimates_are_bracketed_by_report_bounds():
    cset = compile_set("leadingdigit(1,10)")
    rep = density_alpha(cset, 0.0, [10**k for k in range(3, 7)])
    assert rep.lower_est <= min(rep.values)
    assert rep.upper_est >= max(rep.values)


def test_benford_interval_fast_path_matches_mask_oracle():
    cset = compile_set("leadingdigit(1,10)")
    r = 10**5
    rep = density_alpha(cset, 0.0, [r])
    ns = np.arange(1, r + 1, dtype=np.int64)
    lead = ns // 10 ** (np.log10(ns).astype(np.int64))
    direct = int(np.count_nonzero(lead == 1))
    assert rep.values[0] == pytest.approx(direct / r, abs=1e-12)


def test_benford_fast_path_handles_huge_radii():
    # mask enumeration would need 10**14 bytes; the interval view must not
    cset = compile_set("leadingdigit(1,10)")
    rep = density_alpha(cset, -1.0, [10**14])
    assert rep.values[0] == pytest.approx(math.log10(2.0), abs=5e-3)


def test_log_weight_agrees_with_partial_sums_oracle():
    # cong(0,4) and kfree(2) have no closed form: both take the mask path
    r = 10**5
    for text, members in (("cong(0,4)", range(4, r + 1, 4)),
                          ("kfree(2)", np.flatnonzero(_sieve_squarefree(r)).tolist())):
        for alpha in (-1.0, -0.5):
            rep = density_alpha(compile_set(text), alpha, [r])
            num = math.fsum(n**alpha for n in members)
            den = math.fsum(n**alpha for n in range(1, r + 1))
            assert rep.values[0] == pytest.approx(num / den, abs=1e-9), (text, alpha)


@pytest.mark.parametrize("alpha", [0.0, -0.5, -1.0])
def test_alpha_mask_paths_share_the_box_budget(alpha, monkeypatch):
    # the count and the weights read one stream of blocks over [1, r]: one
    # budget of r cells (the image keeps the set off the floor sums)
    monkeypatch.setattr(_primes, "BOX_BUDGET", 100)
    cset = compile_set("kfree(2) & image(x^2+1)")
    assert density_alpha(cset, alpha, [100]).values[0] > 0
    with pytest.raises(BudgetExceeded):
        density_alpha(cset, alpha, [101])


@pytest.mark.parametrize("text", ["coprime(2)", "coprime(2) | multiples(4,6)", "coprime(3)"])
def test_alpha_dimension_n_matches_max_norm_fsum(text):
    # the weight of a point is its largest |coordinate| to the alpha; the
    # origin of the box [-r, r]^n carries none
    cs = compile_set(text)
    for r in (1, 2, 7, 30):
        points = [p for p in itertools.product(range(-r, r + 1), repeat=cs.dim) if any(p)]
        members = [p for p in points if cs.contains(p)]
        for alpha in (-1.0, -0.5):
            weight = math.fsum(max(map(abs, p)) ** alpha for p in members)
            whole = math.fsum(max(map(abs, p)) ** alpha for p in points)
            got = density_alpha(cs, alpha, [r]).values[0]
            assert got == pytest.approx(weight / whole, rel=1e-14), (r, alpha)


def test_alpha_dimension_2_memory_per_box_cell():
    # the box table is one byte per cell; members per shell are counted one
    # slice at a time, with no norm table or gathered norms over the box.
    # About 1.4 million cells amortize the 0.5 MB power-sum block buffer
    cs, r = compile_set("coprime(2)"), 600
    cells = (2 * r + 1) ** 2
    tracemalloc.start()
    try:
        density_alpha(cs, -1.0, [r])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * cells, peak / cells


@pytest.mark.parametrize("alpha", [0.0, -1.0])
def test_alpha_dimension_2_memory_stays_flat_as_the_radius_doubles(alpha):
    # one slab of the box of the largest radius at a time, and tables of
    # one entry per shell
    cs, peaks = compile_set("coprime(2)"), []
    for r in (600, 1200):
        density_alpha(cs, alpha, [r // 4, r // 2, r])  # the sieve cache grows once, unmeasured
        tracemalloc.start()
        try:
            density_alpha(cs, alpha, [r // 4, r // 2, r])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


@pytest.mark.parametrize("alpha", [0.0, -0.5, -1.0])
@pytest.mark.parametrize("text", ["coprime(2)", "coprime(2) & !multiples(3)", "coprime(3)"])
def test_alpha_grid_reads_one_box(monkeypatch, text, alpha):
    # a dimension >= 2 grid reads the slab stream of its largest radius
    # once, and every value equals the ratio read from the box of its own
    # radius
    cs, grid = compile_set(text), [1, 3, 8, 20]
    reference = []
    for r in grid:
        table = np.concatenate([t for _, t in cs.blocks(r)])
        if alpha == 0.0:
            reference.append(float(np.count_nonzero(table)) / float(table.size))
            continue
        ax = np.abs(np.arange(-r, r + 1))
        norm = functools.reduce(np.maximum, np.ix_(*[ax] * cs.dim))
        members = np.bincount(norm[table], minlength=r + 1)
        points = np.bincount(norm.ravel(), minlength=r + 1)
        reference.append(float(masked_power_sums(members, [-alpha])[0][0]
                               / masked_power_sums(points, [-alpha])[0][0]))
    calls = []
    blocks = setdsl.CompiledSet.blocks
    monkeypatch.setattr(setdsl.CompiledSet, "blocks", lambda self, n: calls.append(n) or blocks(self, n))
    assert list(density_alpha(cs, alpha, grid).values) == reference
    assert calls == [grid[-1]]


@pytest.mark.parametrize("estimate", [
    lambda cs, grid: density_alpha(cs, 0.0, grid),
    lambda cs, grid: density_alpha(cs, -1.0, grid),
    lambda cs, grid: density_weighted(cs, [((0.0, 0.5), 1.0), ((0.5, 1.0), 2.0)], grid),
], ids=["asymptotic", "logarithmic", "weighted"])
def test_density_grids_grow_the_prime_sieve_to_sqrt_r(monkeypatch, estimate):
    # a streamed grid sieves [1, r] one segment at a time: the shared sieve
    # grows only to the base primes up to about sqrt(r), never to r, and
    # the grid's values are the single-radius values; the image keeps the
    # set off the floor sums
    cs = compile_set("(kfree(2) \\ primes) | image(x^2+1)")
    grid = [250000, 500000, 1000000, 2000000]
    single = [estimate(cs, [r]).values[0] for r in grid]
    for name in ("_SIEVE_BOUND", "_PRIMES", "_SMALL_PRIMES"):
        monkeypatch.setattr(_primes, name, getattr(_primes, name))
    monkeypatch.setattr(_primes, "_SIEVE_BOUND", 0)
    rep = estimate(cs, grid)
    assert 0 < _primes._SIEVE_BOUND <= 2 * math.isqrt(grid[-1])
    assert list(rep.values) == single


def test_log_density_window_mask_path_matches_fsum():
    cset = compile_set("kfree(2)")  # neither an interval nor a multiple-set view
    lo, hi = 10**4, 10**5
    members = np.flatnonzero(_sieve_squarefree(hi)[lo + 1:]) + lo + 1
    num = math.fsum(1.0 / n for n in members.tolist())
    den = math.fsum(1.0 / n for n in range(lo + 1, hi + 1))
    assert log_density_window(cset, lo, hi) == pytest.approx(num / den, rel=1e-13)


def test_ie_fast_path_matches_mask_counts():
    cset = compile_set("!multiples(4,6)")
    r = 10**5 + 3
    rep = density_alpha(cset, 0.0, [r])
    direct = sum(1 for n in range(1, r + 1) if n % 4 and n % 6)
    assert rep.values[0] == pytest.approx(direct / r, abs=1e-12)


# ---------------------------------------------------------------------------
# sliding-window (uniform) densities


def test_uniform_window_periodic_set_brackets_density():
    cset = compile_set("cong(1,3)")
    rep = density_uniform(cset, [30, 60], scan_radius=10**4)
    for lo, hi in rep.values:
        assert lo <= 1.0 / 3.0 + 1e-12
        assert hi >= 1.0 / 3.0 - 1e-12
        assert hi - lo <= 1.0 / 30.0 + 1e-12


def test_uniform_window_brute_oracle_small():
    cset = compile_set("cong(0,7)")
    L, R = 21, 500
    rep = density_uniform(cset, [L], scan_radius=R)
    counts = []
    for start in range(-R, R - L + 1):
        counts.append(sum(1 for n in range(start, start + L) if n % 7 == 0))
    lo, hi = rep.values[0]
    assert lo == pytest.approx(min(counts) / L, abs=1e-12)
    assert hi == pytest.approx(max(counts) / L, abs=1e-12)


def test_uniform_windows_across_blocks_match_prefix_counts():
    # boxes of several membership blocks and windows longer than a block:
    # the running count and its window history against whole-box prefix
    # counts
    cs = compile_set("kfree(2) | cong(1,4)")
    r, lengths = 393223, [5, 2**18 - 1, 2**18 + 3, 300001]
    cum = np.concatenate([[0], np.cumsum(cs.mask_upto(r)[1:], dtype=np.int64)])
    want = tuple((int((cum[L:] - cum[:-L]).min()) / L, int((cum[L:] - cum[:-L]).max()) / L)
                 for L in lengths)
    assert density_uniform(cs, lengths, r).values == want


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.integers(1, 64), min_size=1, max_size=12), data=st.data())
def test_window_extremes_match_brute_sliding_windows(sizes, data):
    # random tables cut into random blocks; lengths 1, a block's size +-1
    # and the whole scan, against every window counted directly
    n = sum(sizes)
    x = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    picks = data.draw(st.lists(st.integers(1, n), max_size=3))
    b = data.draw(st.sampled_from(sizes))
    lengths = sorted({L for L in (1, b - 1, b, b + 1, n, *picks) if 1 <= L <= n})
    cuts = list(itertools.accumulate(sizes))
    blocks = [(lo + 1, np.array(x[lo:hi], dtype=bool)) for lo, hi in zip([0] + cuts, cuts)]
    want = [(min(w), max(w)) for w in ([sum(x[e - L:e]) for e in range(L, n + 1)] for L in lengths)]
    assert _window_extremes(iter(blocks), lengths) == want


def test_window_extremes_keep_one_byte_per_point_of_the_longest_window():
    # at a fixed scan, doubling the longest window L adds the membership
    # tables of L more points, one byte each; an int32 count history
    # would add 4 bytes per point, and copying it 4 more
    cs, r = compile_set("kfree(3) | cong(1,4)"), 2**22

    def peak(L):
        tracemalloc.start()
        try:
            _window_extremes(cs.blocks(r), [L])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    L = 2**20
    peak(L)  # the shared sieve, once
    grown = peak(2 * L) - peak(L)
    assert grown <= 1.25 * L, grown / L


def test_uniform_window_length_is_checked_against_the_box_size():
    # the scan box [1, 300] has 300 points; the one window of full length
    # counts every member
    cs = compile_set("cong(0,3)")
    assert density_uniform(cs, [300], 300).values == ((100 / 300, 100 / 300),)
    with pytest.raises(DslValueError, match="exceeds the 300 points of the scan box"):
        density_uniform(cs, [301], 300)


def test_uniform_window_benford_spreads_to_unit_interval():
    cset = compile_set("leadingdigit(1,10)")
    rep = density_uniform(cset, [10**4], scan_radius=10**5)
    lo, hi = rep.values[0]
    assert lo == 0.0
    assert hi == 1.0


# ---------------------------------------------------------------------------
# Dirichlet-series quotients


def test_analytic_multiples_ratio_tracks_power_law():
    # the restricted series for multiples of 4 is 4^-s times the full one,
    # so both the certified bracket and the partial-sum ratio must home in
    # on 4^-s at every grid point
    cset = compile_set("cong(0,4)")
    cutoff = 10**5
    rep = density_analytic(cset, [1.5, 1.25, 1.1], cutoff=cutoff)
    # certified brackets follow the requested order
    for s, (lo, hi) in zip(rep.params["s_grid"], rep.params["brackets"]):
        assert lo <= 4.0 ** (-s) <= hi
    # the point values follow the sorted grid and equal the partial ratio
    for s, val in zip(rep.grid, rep.values):
        num = math.fsum(n ** (-s) for n in range(4, cutoff + 1, 4))
        den = math.fsum(n ** (-s) for n in range(1, cutoff + 1))
        assert val == pytest.approx(num / den, rel=1e-9)
    assert rep.values[-1] == pytest.approx(4.0 ** (-1.5), abs=2e-3)


def test_analytic_report_tail_note_on_slow_grid():
    cset = compile_set("kfree(2)")
    rep = density_analytic(cset, [1.05], cutoff=10**4)
    assert rep.lower_est <= 6.0 / math.pi**2 <= rep.upper_est


def test_a_count_view_takes_the_closed_form_and_no_stream(monkeypatch):
    def no_stream(self, n):
        raise AssertionError("streamed a count view")

    monkeypatch.setattr(setdsl.CompiledSet, "blocks", no_stream)
    rep = density_analytic(compile_set("kfree(2) \\ primes"), [1.5, 1.05], cutoff=10)
    assert rep.certified and rep.notes[0].startswith("closed-form Dirichlet series")
    assert "the cutoff is unused" in rep.notes[0]
    # the Dirichlet density of kfree(2) \ primes is 6/pi^2: primes have density 0
    assert rep.lower_est <= 6.0 / math.pi**2 <= rep.upper_est
    assert rep.upper_est - rep.lower_est < 1e-13
    assert rep.params["cutoff"] == 10 and rep.grid == (1.05, 1.5)
    for (lo, hi), v in zip(rep.params["brackets"], reversed(rep.values)):
        assert lo <= v <= hi and hi - lo < 1e-12


def test_a_count_view_past_the_ie_budget_takes_the_stream(monkeypatch):
    from zhat import _ie

    monkeypatch.setattr(_ie, "IE_TERM_BUDGET", 4)
    rep = density_analytic(compile_set("!multiples(6,10,15)"), [1.5], cutoff=10**3)
    assert not rep.certified and rep.notes == ("per-point brackets are certified; the limit extraction is an estimate",)


# ---------------------------------------------------------------------------
# chain-based bounds


def test_buck_bounds_squarefree_truncated_chain():
    cset = compile_set("kfree(2)")
    chain = ModulusChain.explicit([4, 36, 900])
    rep = density_buck(cset, chain, cutoff=10**3, truncation=10**6)
    assert rep.upper_est == pytest.approx(16.0 / 25.0, abs=1e-12)
    # every class mod 900 contains a multiple of 49 below the truncation
    # radius, so the complement bound collapses to zero
    assert rep.lower_est == 0.0
    # the upper side is exact, but the report is certified only with both
    assert rep.params["lower_certified"] is False and rep.certified is False


def test_buck_bounds_clopen_set_are_tight_and_certified():
    # the squared chain reaches level 36 where both exclusion moduli divide
    cset = compile_set("!multiples(4,6)")
    rep = density_buck(cset, ModulusChain.primorial_power(2), cutoff=10**4)
    assert rep.lower_est == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert rep.upper_est == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert rep.params["lower_certified"] is True
    assert rep.certified


def test_buck_lower_bound_of_a_complement_of_multiples_is_certified():
    # the complement of !multiples(...) is !!multiples(...), read as the
    # exact multiples(...): both sides meet at the period L = 901800900
    cset = compile_set("!multiples(4,9,25,49,121,169)")
    rep = density_buck(cset, ModulusChain.primorial_power(2), cutoff=10**9)
    assert rep.params["lower_certified"] is True and rep.certified
    assert rep.grid[-1] == 901800900
    assert rep.lower_est == rep.upper_est == float(Fraction(442368, 715715))


# ---------------------------------------------------------------------------
# weighted estimators


def test_weighted_indicator_recovers_plain_density():
    cset = compile_set("cong(0,2)")
    rep = density_weighted(cset, [((0.0, 1.0), 1.0)], [10**5])
    assert rep.values[0] == pytest.approx(0.5, abs=1e-3)


def test_weighted_front_half_window():
    cset = compile_set("cong(1,3)")
    rep = density_weighted(
        cset, [((0.0, 0.5), 1.0), ((0.5, 1.0), 0.0)], [10**5]
    )
    assert rep.values[0] == pytest.approx(1.0 / 3.0, abs=1e-3)


def test_weighted_benford_tail_window_vanishes():
    # [r/2, r] at r = 10**7 contains no leading-digit-1 integers except 10**7
    cset = compile_set("leadingdigit(1,10)")
    rep = density_weighted(cset, [((0.5, 1.0), 1.0)], [10**7])
    assert rep.values[0] == pytest.approx(0.0, abs=1e-5)


@pytest.mark.parametrize("text", ["kfree(2)", "cong(0,3)", "!multiples(4,6)", "finite(0,-7,5)"])
def test_dimension_1_box_matches_membership(text):
    # the [1, r] table feeds members_in_box and the alpha, uniform and
    # weighted estimators; each is checked against plain membership, and
    # steps reaching below 0 weigh only the box
    cs = compile_set(text)
    r = 300
    box = [x for x in range(1, r + 1) if cs.contains(x)]
    assert cs.members_in_box(r) == box
    assert (np.nonzero(np.concatenate([t for _, t in cs.blocks(r)]))[0] + 1).tolist() == box
    assert density_alpha(cs, 0.0, [r]).values == (len(box) / r,)
    weight = math.fsum(x ** -0.5 for x in box)
    whole = math.fsum(k ** -0.5 for k in range(1, r + 1))
    assert density_alpha(cs, -0.5, [r]).values[0] == pytest.approx(weight / whole, rel=1e-12)
    windows = [sum(1 for x in box if a <= x < a + 50) for a in range(1, r - 48)]
    assert density_uniform(cs, [50], r).values == ((min(windows) / 50, max(windows) / 50),)
    front = sum(1 for x in box if x <= r // 2)
    got = density_weighted(cs, [((-1.0, 0.5), 1.0)], [r]).values[0]
    assert got == pytest.approx(front / (r // 2), rel=1e-12)


def test_weighted_validation():
    cset = compile_set("cong(0,2)")
    with pytest.raises(ValueError):
        density_weighted(cset, [((0.0, 1.0), -1.0)], [100])
    with pytest.raises(ValueError):
        density_weighted(cset, [((0.0, 1.0), 0.0)], [100])
    with pytest.raises(ValueError):
        density_weighted(cset, [((0.5, 0.25), 1.0)], [100])


# ---------------------------------------------------------------------------
# the axiom suite


def _failing(rep) -> list[str]:
    return [a["name"] for a in rep.quantities["axioms"] if not a["passed"]]


def test_axiom_suite_exact_pair_passes_everything():
    rep = axiom_suite(100, seed=2024)
    assert rep.quantities["all_axioms_pass"]
    assert _failing(rep) == []
    assert len(rep.quantities["axioms"]) == 7


def test_axiom_suite_deformed_pair_fails_only_scaling():
    rep = axiom_suite(100, seed=7, pair="deformed")
    assert _failing(rep) == ["ideal-scaling"]
    bad = [a for a in rep.quantities["axioms"] if a["name"] == "ideal-scaling"][0]
    assert any("2" in w for w in bad["failures"])
    for a in rep.quantities["axioms"]:
        if a["name"] != "ideal-scaling":
            assert a["passed"]


def test_axiom_suite_estimator_spot_checks():
    rep = axiom_suite(10, seed=3, estimator_cases=2)
    assert rep.quantities["all_axioms_pass"]
    assert len(rep.quantities["estimators"]) == 16
    for chk in rep.quantities["estimators"]:
        assert abs(chk["estimate"] - chk["target"]) <= chk["tolerance"]


def test_axiom_suite_rejects_unknown_pair():
    with pytest.raises(ValueError):
        axiom_suite(10, seed=0, pair="nope")


# ---------------------------------------------------------------------------
# report plumbing


def test_density_report_validation():
    with pytest.raises(ValueError):
        DensityReport(
            method="alpha",
            params={},
            grid=(100, 50),
            values=(0.1, 0.2),
            lower_est=0.0,
            upper_est=1.0,
            certified=False,
        )
    with pytest.raises(ValueError):
        DensityReport(
            method="alpha",
            params={},
            grid=(50, 100),
            values=(0.1, 0.2),
            lower_est=0.9,
            upper_est=0.1,
            certified=False,
        )


def test_density_report_json_round_trip():
    import json

    cset = compile_set("cong(2,5)")
    rep = density_alpha(cset, 0.0, [1000])
    payload = json.loads(json.dumps(rep.to_json()))
    assert payload["method"] == "alpha"
    assert payload["values"][0] == pytest.approx(0.2, abs=1e-12)


def test_density_report_json_is_pinned():
    # recorded before the encoder moved out of verify: pairs of values
    # become lists, floats stay floats
    cset = compile_set("cong(2,5)")
    for rep, expected in [
        (density_uniform(cset, [5, 10], 20), {
            "method": "uniform",
            "params": {"scan_radius": 20, "tail_window": 5, "mode": "positive"},
            "grid": [5, 10], "values": [[0.2, 0.2], [0.2, 0.2]],
            "lower_est": 0.2, "upper_est": 0.2, "certified": False,
            "notes": ["values are (window-inf, window-sup) pairs per length"]}),
        (density_alpha(cset, 0.0, [10, 20]), {
            "method": "alpha",
            "params": {"alpha": 0.0, "tail_window": 5, "mode": "positive"},
            "grid": [10, 20], "values": [0.2, 0.2],
            "lower_est": 0.2, "upper_est": 0.2, "certified": False, "notes": []}),
    ]:
        payload = rep.to_json()
        assert payload == expected
        assert json.dumps(payload, sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_weighted_report_and_log_window_are_pinned():
    # recorded before the estimators shared one tail rule; no CLI command
    # reaches the weighted estimator, so exact floats pin it here
    rep = density_weighted(compile_set("kfree(2) | cong(1,4)"),
                           [((0.0, 0.5), 1.0), ((0.5, 1.0), 2.0)], [10**3, 10**4, 10**5])
    assert rep.to_json() == {
        "method": "weighted",
        "params": {"steps": [[[0.0, 0.5], 1.0], [[0.5, 1.0], 2.0]], "tail_window": 5},
        "grid": [1000, 10000, 100000],
        "values": [0.6564580559254327, 0.6553126249833355, 0.6553179290942788],
        "lower_est": 0.6553126249833355, "upper_est": 0.6564580559254327,
        "certified": False, "notes": []}
    assert log_density_window(compile_set("leadingdigit(1,10)"), 10**3, 10**5) == 0.30090708751576795


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_periodic_density_exact_at_aligned_radii(m, seed):
    import random

    rng = random.Random(seed)
    residues = sorted(rng.sample(range(m), rng.randint(0, m)))
    # no class at all: finite(0), which has no member in [1, r]
    text = " | ".join(f"cong({c},{m})" for c in residues) or "finite(0)"
    cset = compile_set(text)
    r = m * rng.randint(1, 50)
    rep = density_alpha(cset, 0.0, [r])
    assert rep.values[0] == pytest.approx(len(residues) / m, abs=1e-12)


# ---------------------------------------------------------------- floor sums


@st.composite
def view_sets(draw):
    """Text of a random set the count view admits: an intersection of
    kfree, !multiples and cong factors (cong only beside kfree), as it is,
    complemented, or combined with primes; beside primes the moduli exclude
    1 and cong is odd mod 2, so every prime but finitely many lies in it."""
    form = draw(st.sampled_from(["plain", "complement", "&", "|", "\\", "primes\\"]))
    with_primes = form not in ("plain", "complement")
    k = draw(st.sampled_from([None, 2, 3, 4]))
    mods = draw(st.lists(st.integers(2 if with_primes else 1, 60), max_size=4))
    factors = [f"kfree({k})"] if k else []
    if mods:
        factors.append(f"!multiples({','.join(map(str, mods))})")
    if k and draw(st.booleans()):
        a, m = ((2 * draw(st.integers(-5, 5)) + 1, 2) if with_primes
                else (draw(st.integers(-30, 30)), draw(st.integers(1, 30))))
        factors.append(f"cong({a},{m})")
    if not factors:
        factors = [] if with_primes and form == "&" else ["kfree(2)"]
    local = " & ".join(f"({f})" for f in draw(st.permutations(factors)))
    if form == "complement":
        return f"!({local})"
    if not with_primes:
        return local
    if not local:
        return "primes"
    return f"primes \\ ({local})" if form == "primes\\" else f"({local}) {form} primes"


@settings(max_examples=60, deadline=None)
@given(text=view_sets(), grid=st.lists(st.integers(1, 2 * 10**5), min_size=1, max_size=3, unique=True))
def test_floor_sums_match_the_stream(text, grid):
    # exact counts at alpha 0; at alpha -1 (no cong factor, no primes) the
    # same sums up to rounding
    cs, grid = compile_set(text), sorted(grid)
    view = cs.count_view()
    assert view is not None, text
    assert _floor_sums(view, 0.0, grid) == _prefix_weights(cs, 0.0, grid, grid[-1])
    if view.cls is None and view.mix == (1, 0, 0):
        got, ref = _floor_sums(view, -1.0, grid), _prefix_weights(cs, -1.0, grid, grid[-1])
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(text=view_sets(), s=st.sampled_from([3.0, 2.0, 1.5, 1.25, 1.1]))
def test_closed_form_ratios_lie_inside_the_stream_brackets(text, s):
    # the closed form against the partial sum over the members and the
    # full series' tail, at a cutoff where the stream bracket is wide
    from zhat.analytic import series_ratio, zeta_set

    cs = compile_set(text)
    view = cs.count_view()
    assume(view.cls is None)
    closed, stream = series_ratio(view, s), zeta_set(cs, s, 10**4).ratio_bracket()
    assert stream.lo <= closed.lo <= closed.hi <= stream.hi
    assert closed.width <= 1e-12


def test_floor_sums_count_their_work_against_the_budget(monkeypatch):
    view = compile_set("kfree(2) \\ primes").count_view()
    monkeypatch.setattr(_primes, "FLOOR_SUM_BUDGET", 100)
    assert _floor_sums(view, 0.0, [100]) == [61 - 25]  # 45 Lucy steps, 10 Moebius terms
    with pytest.raises(BudgetExceeded):
        _floor_sums(view, 0.0, [10**4])


def test_a_cong_view_is_charged_two_steps_per_moebius_term(monkeypatch):
    # a term through the CRT class counter costs about two plain floor terms
    r = 10**6
    plain, cong = compile_set("kfree(2)").count_view(), compile_set("kfree(2) & cong(1,4)").count_view()
    squarefree = _sieve_squarefree(r)
    monkeypatch.setattr(_primes, "FLOOR_SUM_BUDGET", math.isqrt(r))
    assert _floor_sums(plain, 0.0, [r]) == [np.count_nonzero(squarefree)]
    with pytest.raises(BudgetExceeded):
        _floor_sums(cong, 0.0, [r])
    monkeypatch.setattr(_primes, "FLOOR_SUM_BUDGET", 2 * math.isqrt(r))
    assert _floor_sums(cong, 0.0, [r]) == [np.count_nonzero(squarefree[1::4])]


def test_a_view_past_its_budget_takes_the_stream_inside_the_box_budget(monkeypatch):
    cs = compile_set("kfree(2) & cong(1,4)")
    monkeypatch.setattr(_primes, "FLOOR_SUM_BUDGET", 10)
    rep = density_alpha(cs, 0.0, [10**4])
    assert rep.values[0] == sum(1 for n in range(1, 10**4 + 1, 4) if cs.contains(n)) / 10**4
    assert rep.notes == ()
    monkeypatch.setattr(_primes, "BOX_BUDGET", 1000)
    with pytest.raises(BudgetExceeded, match="floor sums"):
        density_alpha(cs, 0.0, [10**4])


def test_logarithmic_floor_sums_hold_one_term_at_a_time():
    # 2^18 inclusion-exclusion terms of the squares of the primes to 61: the
    # coefficient dict takes about 26 MB, and 2^19 iterator chains held at
    # once took 277 MB more
    mods = ",".join(str(p * p) for p in _primes.primes_upto(61).tolist())
    view = compile_set(f"!multiples({mods})").count_view()
    tracemalloc.start()
    try:
        (weight,) = _local_weights(view, -1.0, [10**65], lambda n: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20, peak
    assert weight > 0


def test_a_prime_count_off_the_largest_radius_quotients_gets_its_own_table():
    rep = density_alpha(compile_set("primes"), 0.0, [7, 30, 97, 100])
    assert [round(v * r) for v, r in zip(rep.values, rep.grid)] == [4, 10, 25, 25]
    assert rep.notes == ("closed-form floor sums",)
