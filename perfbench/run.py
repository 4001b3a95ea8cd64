"""zhat benchmark driver.

    python3 perfbench/run.py --workload level-traces --seed 1 --seconds 25 --trace 0

Runs a workload's steps one after another, each in a fresh interpreter
(``python -m zhat.cli ...`` or a one-line library call, PYTHONPATH=src),
checks every step's output against an independent reference, and prints
the end-to-end metrics (``--trace 0``) or the per-layer metrics from a
traced run (``--trace 1``). The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from trace_runner import LAYER_LABELS, SPAN_MARKER  # noqa: E402
from workloads import WORKLOADS, CheckError, Step  # noqa: E402

SETUP_REPS = 11

# Times are reported at a fixed reference speed. On a VM of a shared host
# CPU speed drifts by up to ~1.7x over seconds to minutes (other tenants),
# so each measured time is scaled by REFERENCE_PROBE_S / (the probe's time
# around it). The probe is a fixed pure-Python loop run in this process
# between child processes; its time tracks how fast the steps ran
# (correlation of log times 0.6-0.9 per step on a 2-vCPU Xeon VM, where
# the probe takes ~11 ms when the host is quiet).
PROBE_LOOP = 200_000
REFERENCE_PROBE_S = 0.011
RUN_DEADLINE_S = 165.0  # the whole run must end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
}

TIMED_SPANS = (
    "setdsl.residue_image", "setdsl.residue_count", "setdsl.clopen_image_exact",
    "setdsl.crt_split", "setdsl.mask_upto", "setdsl.members_in_box", "setdsl.parse",
    "setdsl.compile_set",
    "analytic.zeta_set", "analytic.delta_ratio", "analytic.de_delta_exact",
    "analytic.de_delta_bracket", "analytic.dlog_zeta_check", "analytic.vm_identity_scan",
    "density.density_alpha", "density.density_uniform", "density.density_analytic",
    "density.density_buck", "density.axiom_suite",
    "measure.multiples_measure_ie", "measure.closure_measure_trace",
    "measure.euler_product", "measure.zeta_bracket",
    "primes.factorize", "primes.is_prime", "primes.primes_upto",
    "primes.prime_mask_upto", "primes.smallest_factor_table",
    "supernatural.rho", "supernatural.mul", "supernatural.parse_supernatural",
    "supernatural.limit_profile",
    "verify.davenport_erdos", "verify.dirichlet_coverage", "verify.omega_bound_measure",
    "verify.asdmltp_verify", "verify.poonen_stoll_tail", "verify.counterexample_cover",
    "verify.union_dense_check", "verify.eulerian_check",
    "cli.main",
)
COUNT_METRICS = (
    "setdsl.residue_image.cells", "setdsl.residue_image.residues", "setdsl.mask_upto.cells",
    "measure.multiples_measure_ie.subsets", "analytic.de_delta_bracket.subsets",
    "measure.closure_measure_trace.levels", "primes.factorize.calls",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {f"{name}.self_s": "s" for name in TIMED_SPANS}
    units.update({name: "count" for name in COUNT_METRICS})
    units["cli.stdout_bytes"] = "bytes"
    for layer in LAYER_LABELS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units["trace.overhead_s"] = "s"
    return units


# ------------------------------------------------------------- child processes


def speed_probe() -> float:
    """Seconds this process takes for a fixed pure-Python loop right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOP):
        acc += i * i
    return time.perf_counter() - t0


@dataclass
class ChildResult:
    rc: int | None  # None when the child was killed at its timeout
    out: str
    err: str
    wall_s: float
    cpu_s: float
    maxrss_mb: float


def run_child(argv: list[str], env: dict, timeout_s: float) -> ChildResult:
    """Run one child to completion and reap it with os.wait4, so its rusage
    (CPU time, peak RSS) is its own and not the running maximum over all
    children that getrusage(RUSAGE_CHILDREN) would give."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks: dict[int, list[bytes]] = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    killed = False
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        sel.register(proc.stderr, selectors.EVENT_READ)
        while sel.get_map():
            left = t0 + timeout_s - time.perf_counter()
            if left <= 0 and not killed:
                proc.kill()
                killed = True
            elif left < -10:  # killed, yet something still holds the pipes open
                break
            for key, _ in sel.select(timeout=1.0 if killed else left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    out, err = (b"".join(c).decode(errors="replace") for c in chunks.values())
    proc.stdout.close()
    proc.stderr.close()
    _, status, ru = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return ChildResult(None if killed else proc.returncode, out, err, wall,
                       ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0)


# ------------------------------------------------------------- spans


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part of it its child spans cover.
    Spans are [name, start, end, parent index, counts]."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((t0, t1))
    out = []
    for i, (_, t0, t1, _, _) in enumerate(spans):
        covered, reach = 0.0, t0
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, reach), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((t1 - t0) - covered)
    return out


def layer_metrics(step_spans: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from the spans of its steps."""
    m = dict.fromkeys(per_layer_units(), 0)
    for spans in step_spans:
        for span, own in zip(spans, self_times(spans)):
            name, counts = span[0], span[4]
            layer = name.split(".", 1)[0]
            m[f"{layer}.self_s"] += own
            m[f"{layer}.calls"] += 1
            if f"{name}.self_s" in m:
                m[f"{name}.self_s"] += own
            if f"{name}.calls" in m:
                m[f"{name}.calls"] += 1
            for key, value in (counts or {}).items():
                m[f"{name}.{key}"] += value
    return m


def split_spans(err: str) -> tuple[str, list[list]]:
    """Separate the trace runner's span line from the step's own stderr."""
    head, marker, tail = err.rpartition(SPAN_MARKER)
    if not marker:
        return err, []
    return head, json.loads(tail)


# ------------------------------------------------------------- passes


@dataclass
class StepRecord:
    step: Step
    result: ChildResult
    problem: str | None  # None when the step passed its check
    spans: list[list]
    scale: float = 1.0  # REFERENCE_PROBE_S / probe time around the step

    @property
    def wall_s(self) -> float:
        return self.result.wall_s * self.scale

    @property
    def cpu_s(self) -> float:
        return self.result.cpu_s * self.scale


class Runner:
    def __init__(self, deadline: float):
        self.deadline = deadline
        # zhat runs single-threaded; OpenBLAS's idle worker threads would add
        # thread start-up and spin-wait time that comes and goes with the load
        # of the shared host
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
        self.records: list[StepRecord] = []
        self.last_probe = speed_probe()

    def python(self, argv, timeout_s: float) -> ChildResult:
        return run_child([sys.executable, *argv], self.env, timeout_s)

    def timed(self, argv, timeout_s: float) -> tuple[ChildResult, float]:
        """Run a child between two speed probes; return it with its scale."""
        before = self.last_probe
        res = self.python(argv, timeout_s)
        self.last_probe = speed_probe()
        return res, REFERENCE_PROBE_S / (0.5 * (before + self.last_probe))

    def run_step(self, step: Step, traced: bool) -> StepRecord:
        left = self.deadline - time.perf_counter()
        if left <= 0:
            rec = StepRecord(step, ChildResult(None, "", "", 0.0, 0.0, 0.0),
                             "skipped: run deadline reached", [])
            self.records.append(rec)
            return rec
        argv = [str(HERE / "trace_runner.py"), *step.argv] if traced else list(step.argv)
        res, scale = self.timed(argv, min(step.timeout_s, left))
        res.err, spans = split_spans(res.err) if traced else (res.err, [])
        problem = None
        if res.rc is None:
            problem = f"timed out after {res.wall_s:.1f} s"
        elif res.rc < 0:
            problem = f"killed by signal {-res.rc}"
        else:
            try:
                step.check(res.rc, res.out)
            except CheckError as e:
                problem = f"check failed: {e}"
            except (KeyError, IndexError, TypeError, ValueError) as e:
                problem = f"unexpected output: {type(e).__name__}: {e}"
        if problem and res.err.strip():
            problem += " | stderr: " + res.err.strip().splitlines()[-1][:300]
        rec = StepRecord(step, res, problem, spans, scale)
        self.records.append(rec)
        return rec

    def run_pass(self, steps: list[Step], traced: bool) -> list[StepRecord]:
        return [self.run_step(s, traced) for s in steps]


def pass_totals(recs: list[StepRecord]) -> dict[str, float]:
    return {
        "wall_s": sum(r.wall_s for r in recs),
        "cpu_s": sum(r.cpu_s for r in recs),
        "peak_rss_mb": max(r.result.maxrss_mb for r in recs),
    }


def median_of(dicts: list[dict], key: str) -> float:
    return statistics.median(d[key] for d in dicts)


# ------------------------------------------------------------- main


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()

    if not (ROOT / "src" / "zhat" / "cli.py").is_file():
        print(f"error: no zhat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(start + RUN_DEADLINE_S)
    steps = WORKLOADS[args.workload](random.Random(args.seed))

    warm, _ = runner.timed(["-c", "import sys, numpy, zhat.cli; "
                                "print(numpy.__version__)"], 60)
    if warm.rc != 0:
        print(f"error: warm-up import failed: {warm.err.strip()[-500:]}", file=sys.stderr)
        return 1
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_sha": git_sha(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": warm.out.strip(),
        "loadavg_1m": os.getloadavg()[0],
    }
    setups = [runner.timed(["-c", "import zhat.cli"], 60) for _ in range(SETUP_REPS)]
    if any(s.rc != 0 for s, _ in setups):
        print("error: importing zhat.cli failed", file=sys.stderr)
        return 1

    plain: list[list[StepRecord]] = []
    traced: list[list[StepRecord]] = []
    t_measure = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        plain.append(runner.run_pass(steps, traced=False))
        if args.trace:
            traced.append(runner.run_pass(steps, traced=True))
        now = time.perf_counter()
        if now - t_measure >= args.seconds or 2 * now - t_round > runner.deadline:
            break

    failed = [r for r in runner.records if r.problem]
    attempted = len(runner.records)
    totals = [pass_totals(p) for p in plain]
    e2e = {
        "setup_s": statistics.median(s.wall_s * scale for s, scale in setups),
        "wall_s": median_of(totals, "wall_s"),
        "cpu_s": median_of(totals, "cpu_s"),
        "peak_rss_mb": median_of(totals, "peak_rss_mb"),
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"{args.workload}: {len(plain)} untraced pass(es), {len(traced)} traced, "
          f"{len(steps)} steps per pass")
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name:<18} {e2e[name]:12.4f} {unit}")
    print(f"  {'steps_failed_frac':<18} {len(failed) / attempted:12.4f} "
          f"({len(failed)}/{attempted})")
    print("  per step, raw medians over passes:")
    for i, step in enumerate(steps):
        rs = [p[i].result for p in plain]
        print(f"    {step.name:<36} wall {statistics.median(r.wall_s for r in rs):8.3f} s"
              f"  cpu {statistics.median(r.cpu_s for r in rs):8.3f} s"
              f"  rss {max(r.maxrss_mb for r in rs):8.1f} MB")
    for r in failed:
        print(f"FAILED {r.step.name}: {r.problem}", file=sys.stderr)

    if args.trace:
        layer = [layer_metrics([r.spans for r in p]) for p in traced]
        metrics = {k: statistics.median(m[k] for m in layer) for k in layer[0]}
        metrics["cli.stdout_bytes"] = statistics.median(
            sum(len(r.result.out.encode()) for r in p if r.step.is_cli) for p in traced)
        metrics["trace.overhead_s"] = (median_of([pass_totals(p) for p in traced], "wall_s")
                                       - e2e["wall_s"])
        units = per_layer_units()
    else:
        metrics, units = e2e, END_TO_END_UNITS
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
