"""A/B runs of the benchmark: a git revision against the working tree.

Usage (from anywhere in the repository):

    python3 tools/bench_ab.py --rev HEAD --workloads region,sweep-grid --pairs 10

The revision is extracted with ``git archive`` into a temporary directory.
For each workload, each pair runs ``perfbench/run.py`` once on that copy
("base") and once on the working tree ("head"), alternating which side goes
first. Each run's result is printed as it completes; at the end, for every
metric BENCHMARK.json lists for the mode (end-to-end with ``--trace 0``,
per-layer with ``--trace 1``), the table gives each side's median and
quartiles and the pairs head won, ties counting for neither. A gain is
marked where at least ten pairs ran, head won at least nine tenths of them,
and the medians differ by more than base's interquartile range. With
``--trace 1`` each run's line also gives its ``self_sum_over_op`` minimum.
Exit status 1 if any run failed or reported ``correct: false``. Standard
library only.
"""

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="A/B runs: a revision vs the working tree.")
    parser.add_argument("--rev", default="HEAD", help="git revision of the base side")
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def extract(rev: str, dest: Path) -> None:
    """The files of `rev` under `dest`, as `git archive` gives them."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_once(checkout: Path, workload: str, args) -> dict:
    """One perfbench run: its info and result objects, or the failure it printed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    return {**json.loads(lines[-2]), **json.loads(lines[-1])}


def _spread(values) -> tuple:
    """(median, lower quartile, upper quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def report(workload: str, metrics, runs) -> None:
    def cell(spread) -> str:
        return f"{spread[0]:.5g} [{spread[1]:.5g}, {spread[2]:.5g}]"

    print(f"\n{workload}: {len(runs)} pairs, base vs head")
    print(f"{'metric':28} {'base median [q1, q3]':38} {'head median [q1, q3]':38} "
          f"{'change':>8} {'head won':>9}")
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = [(b["metrics"][name]["value"], h["metrics"][name]["value"]) for b, h in runs]
        base, head = _spread([b for b, _ in pairs]), _spread([h for _, h in pairs])
        won = sum((h < b) if lower else (h > b) for b, h in pairs)
        change = (head[0] - base[0]) / base[0] if base[0] else 0.0
        gain = (len(pairs) >= 10 and won >= 0.9 * len(pairs)
                and abs(head[0] - base[0]) > base[2] - base[1])
        print(f"{name:28} {cell(base):38} {cell(head):38} {change:+8.2%} "
              f"{won:>5}/{len(pairs)}" + ("  gain" if gain else ""))


def main(argv=None) -> int:
    args = _parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    failed = False
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        base_root = Path(tmp)
        extract(args.rev, base_root)
        sides = {"base": base_root, "head": ROOT}
        for workload in args.workloads.split(","):
            runs = []
            for pair in range(args.pairs):
                order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                result = {side: run_once(sides[side], workload, args) for side in order}
                for side in order:
                    r = result[side]
                    if "error" in r:
                        print(f"{workload} pair {pair} {side}: {r['error']}")
                        continue
                    extra = (f" self_sum_over_op min {r['info']['self_sum_over_op'][0]:.4f}"
                             if args.trace else "")
                    shown = ", ".join(f"{m['name']}={r['metrics'][m['name']]['value']:.6g}"
                                      for m in metrics[:3])
                    print(f"{workload} pair {pair} {side}: correct={r['correct']} "
                          f"failed={r['failed']}/{r['attempted']} {shown}{extra}", flush=True)
                    failed |= not r["correct"]
                if all("error" not in result[side] for side in order):
                    runs.append((result["base"], result["head"]))
                else:
                    failed = True
            if runs:
                report(workload, metrics, runs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
