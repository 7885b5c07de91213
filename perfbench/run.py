"""Closed-loop benchmark of the ramasim CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload region --seed 0 --seconds 20 --trace 0

One client drives ``ramasim.cli.main(argv)`` in this process and sends the
next command only after the previous one returns. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced ops
and reports the per-layer metrics. End-to-end times are wall times scaled
to the host's reference speed (see ReferenceSpeed); the plain wall times
are on the info line. The metric names and units come from
BENCHMARK.json. The last line of standard output is the result object;
the line before it describes the machine and the run. See README.md.
"""

import os

# Pin the load to one thread before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden_sha256.json"
SPANS_DIR = HERE / "out"

DEFAULT_SEED = 0  # the seed whose outputs golden_sha256.json pins byte for byte
MIN_OPS = 100  # so at least ten latency samples lie beyond p90
WARMUP_OPS = 2
HARD_CAP_S = 150.0  # stop measuring here even if MIN_OPS is not reached
SETUP_RUNS = 9
SELF_SUM_TOL = 0.01  # layer self times must add up to the traced op time
# Timing metrics are scaled to a host that runs reference_s() in this
# time: its typical time on the 2-core x86-64 VM the benchmark was written on.
REF_NOMINAL_S = 0.009
_REF_ARRAY = numpy.linspace(0.1, 10.0, 100_000)


class BenchError(Exception):
    """The benchmark cannot measure this checkout; no result is printed."""


class Traced(NamedTuple):
    """One traced op: its input, latency, tracer snapshot and output counts."""

    op: workloads.Op
    seconds: float
    snap: dict
    counts: dict


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="Closed-loop ramasim CLI benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_op(cli, argv):
    """One CLI call with stdout captured: (exit status, stdout text, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(argv))  # looked up per call, so tracer hooks apply
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an op that raises is a failed op, not a crash
            rc = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    return rc, out.getvalue(), seconds


def reference_s() -> float:
    """Wall time of a fixed computation that runs no ramasim code.

    It has the three kinds of work the workloads do: scalar float math,
    Python objects built and formatted per item, and numpy array math.
    How long it takes right now says how fast the host is running this
    process at the moment.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, 8_000):
        acc += math.log2(1.0 + i / (i + 1.0))
    cells = []
    for i in range(5_000):
        z = complex(i % 7, i % 3) * 0.5j
        item = {"z": z, "mag": abs(z)}
        cells.append(f"{item['mag']:.6g},{z.real:.3f}")
    acc += len(",".join(cells))
    acc += float(numpy.log2(1.0 + _REF_ARRAY * _REF_ARRAY / (1.0 + _REF_ARRAY)).sum())
    return time.perf_counter() - t0


class ReferenceSpeed:
    """Scales wall times to the reference speed of the host.

    A shared host runs this process faster or slower from one minute to
    the next. Each timed interval is bracketed by runs of reference_s(),
    and its wall time is multiplied by REF_NOMINAL_S over the mean of the
    two bracketing reference times, so a change in host speed cancels out
    and a change in the program does not.
    """

    def __init__(self):
        self._before = reference_s()

    def factor(self) -> float:
        """Scale for the interval that just ended; also opens the next one."""
        after = reference_s()
        scale = 2.0 * REF_NOMINAL_S / (self._before + after)
        self._before = after
        return scale


def measure_setup() -> list:
    """(wall, scaled) times of fresh interpreters running the CLI with --version.

    This is what every real invocation pays before any work: interpreter
    start, importing ramasim.cli (and numpy), and building the parser.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "from ramasim.cli import entry; entry()", "--version"]

    def launch() -> float:
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60)
        seconds = time.perf_counter() - t0
        if proc.returncode != 0 or not proc.stdout.startswith("ramasim "):
            raise BenchError(f"set-up run failed: {proc.returncode} {proc.stderr.strip()}")
        return seconds

    launch()  # only fills the bytecode cache
    speed = ReferenceSpeed()
    samples = []
    for _ in range(SETUP_RUNS):
        seconds = launch()
        samples.append((seconds, seconds * speed.factor()))
    return samples


def closed_loop(ops, seconds: float, min_ops: int, step) -> None:
    """Run step(op) over the input cycle until both the time and op floors are met."""
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_CAP_S or (elapsed >= seconds and i >= min_ops):
            return
        step(ops[i % len(ops)])
        i += 1


class Judge:
    """Checks op outputs and keeps the attempted/failed tally."""

    def __init__(self, golden: dict):
        self._golden = golden
        self.attempted = 0
        self.failures = []

    def __call__(self, op, rc, text):
        """Output counts of a correct op, or None for a failed one."""
        self.attempted += 1
        try:
            return workloads.check_output(op, rc, text, self._golden)
        except workloads.CheckError as exc:
            self.failures.append(f"{workloads.argv_key(op.argv)}: {exc}")
            return None


def untraced_run(cli, ops, args, judge):
    setup = measure_setup()
    for op in ops[:WARMUP_OPS]:
        run_op(cli, op.argv)
    wall, scaled, work = [], [], 0
    speed = ReferenceSpeed()

    def step(op):
        nonlocal work
        rc, text, seconds = run_op(cli, op.argv)
        wall.append(seconds)
        scaled.append(seconds * speed.factor())
        if judge(op, rc, text) is not None:
            work += op.work

    closed_loop(ops, args.seconds, MIN_OPS, step)
    values = _timing(scaled, work, [s for _, s in setup])
    values.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": 1.0 - len(judge.failures) / judge.attempted,
    })
    p90 = values["latency_p90_s"]
    info = {
        "samples": len(scaled),
        "samples_beyond_p90": sum(1 for x in scaled if x > p90),
        "setup_samples": len(setup),
        "wall": _timing(wall, work, [w for w, _ in setup]),
        "mean_speed_factor": sum(scaled) / sum(wall),
        "error_rate": len(judge.failures) / judge.attempted,
    }
    return values, info, True


def _timing(latencies, work, setup) -> dict:
    """The end-to-end timing metrics from per-op and set-up times."""
    return {
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": statistics.quantiles(latencies, n=10)[-1],
        "work_per_s": work / sum(latencies),
        "setup_s": statistics.median(setup),
    }


def traced_run(cli, ops, args, judge):
    hooks = tracer.Tracer()
    if hooks.missing:
        raise BenchError("trace hooks missing: " + ", ".join(hooks.missing))
    for op in ops[:WARMUP_OPS]:
        run_op(cli, op.argv)
        with hooks:
            run_op(cli, op.argv)
    untraced, traced = [], []

    def step(op):
        rc, text, seconds = run_op(cli, op.argv)
        judge(op, rc, text)
        untraced.append(seconds)
        hooks.reset()
        with hooks:
            rc, traced_text, seconds = run_op(cli, op.argv)
        if rc == 0 and traced_text != text:
            rc = "output changed under tracing"
        counts = judge(op, rc, traced_text)
        traced.append(Traced(op, seconds, hooks.snapshot(), counts or {}))

    # One full input cycle must be traced so the counters repeat exactly.
    closed_loop(ops, args.seconds, len(ops), step)
    values = _layer_metrics(ops, untraced, traced)
    ratios = [sum(r.snap["layers"][la]["self_s"] for la in tracer.LAYERS) / r.seconds
              for r in traced]
    self_sum_ok = all(abs(r - 1.0) <= SELF_SUM_TOL for r in ratios)
    info = {
        "samples": len(traced),
        "self_sum_over_op": [min(ratios), statistics.median(ratios), max(ratios)],
        "error_rate": len(judge.failures) / judge.attempted,
    }
    _write_spans(args, traced)
    return values, info, self_sum_ok


def _layer_metrics(ops, untraced, traced) -> dict:
    def med(layer, key):
        return statistics.median(r.snap["layers"][layer][key] for r in traced)

    def per_op(count):  # exact count per op over one full input cycle
        cycle = traced[:len(ops)]
        return sum(count(r) for r in cycle) / len(cycle)

    def ns_per(layer, count):  # layer busy time per counted unit, over all traced ops
        units = sum(count(r) for r in traced)
        busy = sum(r.snap["layers"][layer]["busy_s"] for r in traced)
        return busy / units * 1e9 if units else 0.0

    def elements(r):
        return r.snap["elements"]

    def normals(r):
        return r.op.normals

    values = {}
    for layer in tracer.LAYERS:
        values[f"{layer}.busy_s"] = med(layer, "busy_s")
        values[f"{layer}.self_s"] = med(layer, "self_s")
        values[f"{layer}.calls"] = per_op(lambda r, la=layer: r.snap["layers"][la]["calls"])
    grid = per_op(lambda r: r.op.grid_points)
    frontier = per_op(lambda r: r.counts.get("frontier_points", 0))
    op_s = statistics.median(r.seconds for r in traced)
    values.update({
        "cli.csv_rows": per_op(lambda r: r.counts.get("csv_rows", 0)),
        "cli.csv_bytes": per_op(lambda r: r.counts.get("csv_bytes", 0)),
        "region.grid_points": grid,
        "region.frontier_points": frontier,
        "region.frontier_ratio": frontier / grid if grid else 0.0,
        "rates.elements": per_op(elements),
        "rates.ns_per_element": ns_per("rates", elements),
        "sweep.rows": per_op(lambda r: r.op.rows),
        "channel.normals": per_op(normals),
        "channel.ns_per_normal": ns_per("channel", normals),
        "constellations.relate_calls": per_op(
            lambda r: r.snap["fn_calls"].get("constellations.relate", 0)),
        "trace.op_s": op_s,
        "trace.overhead_ratio": op_s / statistics.median(untraced),
    })
    return values


def _write_spans(args, traced) -> None:
    """Write the per-op edge aggregates kept in memory during the run."""
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    records = [{"argv": list(r.op.argv), "op_s": r.seconds, "edges": r.snap["edges"],
                "fn_calls": r.snap["fn_calls"], "elements": r.snap["elements"]}
               for r in traced]
    path.write_text(json.dumps(records) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    args = _parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "ramasim" / "cli.py").is_file() or not spec_path.is_file():
        print(f"perfbench: run from a ramasim checkout ({SRC} or {spec_path} missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ramasim.cli as cli

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # One CPU for the benchmark and its set-up interpreters, so that each
    # reference_s() run shares a CPU with the interval it scales.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")).get(args.workload, {})
    ops = workloads.make_ops(args.workload, args.seed)
    judge = Judge(golden)
    try:
        if args.trace:
            values, info, ok = traced_run(cli, ops, args, judge)
        else:
            values, info, ok = untraced_run(cli, ops, args, judge)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    info.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "pinned_cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "platform": platform.platform(),
    })
    for failure in judge.failures[:5]:
        print(f"perfbench: failed op: {failure}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": ok and not judge.failures,
        "attempted": judge.attempted,
        "failed": len(judge.failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
