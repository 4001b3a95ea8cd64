"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import refs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _span(name, t0, t1, parent, counts=None):
    return [name, t0, t1, parent, counts]


def test_self_time_of_nested_spans():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("setdsl.compile_set", 1.0, 4.0, 0),
        _span("setdsl.parse", 2.0, 3.0, 1),
        _span("measure.closure_measure_trace", 5.0, 9.0, 0, {"levels": 3}),
    ]
    assert run.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("a.f", 0.0, 10.0, -1),
        _span("a.g", 2.0, 6.0, 0),
        _span("a.h", 4.0, 8.0, 0),   # overlaps g on [4, 6]
        _span("a.k", 9.0, 12.0, 0),  # runs past its parent's end
    ]
    assert run.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_sum_self_time_calls_and_counts():
    step1 = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("setdsl.residue_image", 1.0, 4.0, 0, {"cells": 900, "residues": 576}),
        _span("primes.factorize", 2.0, 3.0, 1),
    ]
    step2 = [_span("primes.factorize", 0.0, 0.5, -1)]
    m = run.layer_metrics([step1, step2])
    assert m["setdsl.residue_image.self_s"] == pytest.approx(2.0)
    assert m["setdsl.residue_image.cells"] == 900
    assert m["setdsl.residue_image.residues"] == 576
    assert m["primes.factorize.calls"] == 2
    assert m["primes.self_s"] == pytest.approx(1.5)
    assert m["primes.calls"] == 2
    assert m["cli.main.self_s"] == pytest.approx(7.0)
    assert m["cli.self_s"] == pytest.approx(7.0)
    assert set(m) == set(run.per_layer_units())


def _py(code: str, timeout_s: float = 60) -> run.ChildResult:
    return run.run_child([sys.executable, "-c", code], {}, timeout_s)


def test_small_child_after_large_one_reads_its_own_rss():
    big = _py("b = b'x' * (160 << 20); print(len(b))")
    small = _py("print(1)")
    assert big.rc == 0 and small.rc == 0
    assert big.maxrss_mb > 150
    assert small.maxrss_mb < 60
    assert small.cpu_s < big.cpu_s + 1.0


def test_child_timeout_kills_and_reports():
    t0 = time.perf_counter()
    res = _py("import time; time.sleep(30)", timeout_s=1.0)
    assert res.rc is None
    assert time.perf_counter() - t0 < 10


def _runner() -> run.Runner:
    return run.Runner(time.perf_counter() + 120)


def _step(workload: str, name: str, seed: int = 1) -> workloads.Step:
    steps = workloads.WORKLOADS[workload](random.Random(seed))
    return next(s for s in steps if s.name == name)


def test_injected_wrong_value_is_a_failed_step():
    real = _step("harnesses", "sn-mul")
    good = json.dumps({"result": "2^inf*3^3*5*1000000007"})
    bad = json.dumps({"result": "2^inf*3^2*5*1000000007"})
    runner = _runner()
    ok = runner.run_step(replace(real, argv=("-c", f"print({good!r})")), traced=False)
    wrong = runner.run_step(replace(real, argv=("-c", f"print({bad!r})")), traced=False)
    crash = runner.run_step(replace(real, argv=("-c", "raise SystemExit(1)")), traced=False)
    assert ok.problem is None
    assert wrong.problem and "check failed" in wrong.problem
    assert crash.problem and "exit code 1" in crash.problem
    assert [r.problem is None for r in runner.records] == [True, False, False]


def test_hanging_step_fails_and_the_pass_goes_on():
    real = _step("harnesses", "sn-mul")
    hang = workloads.Step("hang", ("-c", "import time; time.sleep(30)"), 1.0, real.check)
    runner = _runner()
    recs = runner.run_pass([hang, real], traced=False)
    assert "timed out" in recs[0].problem
    assert recs[1].problem is None


@pytest.mark.parametrize("workload,name", [
    ("level-traces", "kfree2-primorial2-csv"),
    ("estimators", "logarithmic-image-or-3mod7-1e7"),
    ("harnesses", "multiples-ie-12"),
])
def test_smoke_one_step_per_workload(workload, name):
    step = _step(workload, name, seed=7)
    runner = _runner()
    plain = runner.run_step(step, traced=False)
    traced = runner.run_step(step, traced=True)
    assert plain.problem is None, plain.problem
    assert traced.problem is None, traced.problem
    assert plain.result.maxrss_mb > 0 and plain.result.cpu_s > 0
    assert traced.spans and traced.spans[0][0] == "cli.main"
    assert [s[0] for s in traced.spans].count("cli.main") == 1
    m = run.layer_metrics([traced.spans])
    assert m["cli.main.self_s"] > 0 and m["setdsl.calls"] + m["measure.calls"] > 0


def test_seed_drives_inputs_but_not_sizes():
    a = workloads.harnesses(random.Random(1))
    b = workloads.harnesses(random.Random(2))
    assert [s.name for s in a] == [s.name for s in b]
    assert a[2].argv != b[2].argv
    for steps in (a, b):
        moduli = steps[2].argv[-1].split(",")
        assert len(set(moduli)) == 12
    assert workloads.harnesses(random.Random(1))[2].argv == a[2].argv


def test_benchmark_json_lists_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layer == run.per_layer_units()


# ------------------------------------------------------------- references


def test_nonmultiples_density_matches_one_period():
    rng = random.Random(5)
    for _ in range(30):
        mods = rng.sample(range(2, 30), rng.randint(1, 5))
        period = math.lcm(*mods)
        if period > 200_000:
            continue
        count = sum(1 for n in range(period) if all(n % d for d in mods))
        assert refs.nonmultiples_density(mods) == Fraction(count, period)


def test_spiral_cover_matches_enumeration():
    for a, terms in ((3, 5), (4, 6), (5, 4)):
        m = a**terms
        covered = {c for n in range(1, terms + 1)
                   for c in range(refs.spiral(n) % a**n, m, a**n)}
        assert refs.spiral_cover_size(a, terms) == len(covered)


def test_counting_references():
    assert refs.squarefree_count(1000) == sum(
        1 for n in range(1, 1001) if all(n % (p * p) for p in range(2, 32)))
    assert refs.prime_pi(10**6)[10**6] == 78498
    assert refs.zeta(2.0) == pytest.approx(math.pi**2 / 6, rel=1e-14)
    assert refs.harmonic(10**4) == pytest.approx(math.fsum(1 / k for k in range(1, 10**4 + 1)),
                                                 rel=1e-14)
