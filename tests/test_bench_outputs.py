"""Benchmark output gate: seed-0 bench ops must print their recorded bytes.

Replays the benchmark's default-seed inputs through `ramasim.cli.main` in
process and checks each output with the benchmark's own `check_output`
against `perfbench/golden_sha256.json`: every op of every workload. Also
bounds the writes one op makes.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

import ramasim.cli as cli

BENCH = Path(__file__).resolve().parent.parent / "perfbench"

_spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)
GOLDEN = json.loads((BENCH / "golden_sha256.json").read_text(encoding="utf-8"))


def _cases():
    for name in workloads.WORKLOADS:
        for i, op in enumerate(workloads.make_ops(name, 0)):
            yield pytest.param(name, op, id=f"{name}-{i}")


@pytest.mark.parametrize("workload, op", _cases())
def test_seed0_bench_op_prints_recorded_bytes(workload, op):
    golden = GOLDEN[workload]
    assert workloads.argv_key(op.argv) in golden
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(op.argv))
    workloads.check_output(op, rc, out.getvalue(), golden)


class _CountingFile(io.StringIO):
    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


# One write per block: the metadata, the header and each conversion's rows.
# The first region op has 6 blocks of up to 4096 frontier rows; sweep-fading
# 51 points of 30 values, 34 points a conversion; sweep-grid 801 points of 15
# values, 68 points a conversion.
@pytest.mark.parametrize("workload, most", [("region", 8), ("sweep-fading", 4),
                                            ("sweep-grid", 20), ("signal-check", 1)])
def test_seed0_bench_op_writes_one_block_a_write(workload, most):
    op = workloads.make_ops(workload, 0)[0]
    out = _CountingFile()
    with contextlib.redirect_stdout(out):
        cli.main(list(op.argv))
    assert 1 <= out.writes <= most
