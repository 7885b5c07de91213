"""Workload inputs, work-item counts and output checks for the benchmark.

Each workload turns a seed into a fixed cycle of CLI argument lists. The
benchmark runs the cycle round-robin, so the same seed always yields the
same inputs, and counters taken over one full cycle repeat exactly.
Every count here comes from the generated inputs or from the command's
output, never from inside the program.
"""

import hashlib
import math
import random
from dataclasses import dataclass

CYCLE = 32  # distinct inputs per seed; the loop repeats them in order

ALL_SCHEMES = ("noma", "reconfig-noma", "rama1", "rama2", "oma")
REGION_SCHEMES = ("oma", "noma", "rama1", "rama2")
REGION_GRID_N = 600
FADING_SAMPLES = 6000
RATIO_STEP_DB = 0.05
SWEEP_SPLITS = (0.25, 0.5, 0.75)  # the CLI's default splits
CHECK_SPLITS = 5  # the CLI's default rama2 split count


@dataclass(frozen=True)
class Op:
    """One CLI invocation plus the counts its inputs imply."""

    argv: tuple
    work: int  # work items, as defined per workload in README.md
    grid_points: int = 0  # region allocation points evaluated
    normals: int = 0  # standard normals the fading stream must draw
    rows: int = 0  # expected CSV data rows (sweep only)


def _region_points(scheme: str, n: int) -> int:
    return {"oma": n * n, "noma": n, "rama2": n, "rama1": 1}[scheme]


def _sweep_grid(start: float, stop: float, step: float) -> list:
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]


def region_ops(rng: random.Random) -> list:
    ops = []
    points = sum(_region_points(s, REGION_GRID_N) for s in REGION_SCHEMES)
    for _ in range(CYCLE):
        g1 = round(rng.uniform(-10.0, 40.0), 2)
        g2 = round(rng.uniform(-10.0, 40.0), 2)
        argv = ("region", "--g1-db", repr(g1), "--g2-db", repr(g2),
                "--schemes", ",".join(REGION_SCHEMES), "--grid-n", str(REGION_GRID_N))
        ops.append(Op(argv, work=points, grid_points=points))
    return ops


def sweep_fading_ops(rng: random.Random) -> list:
    grid = len(_sweep_grid(-10.0, 40.0, 1.0))  # the CLI's default symmetric grid
    rows = grid * len(ALL_SCHEMES) * len(SWEEP_SPLITS)
    ops = []
    for _ in range(CYCLE):
        seed = rng.randrange(2**32)
        argv = ("sweep", "--schemes", ",".join(ALL_SCHEMES),
                "--fading-samples", str(FADING_SAMPLES), "--seed", str(seed))
        # two users, each drawing 2 normals (re, im) per realization
        ops.append(Op(argv, work=rows * FADING_SAMPLES,
                      normals=grid * 2 * 2 * FADING_SAMPLES, rows=rows))
    return ops


def sweep_grid_ops(rng: random.Random) -> list:
    grid = len(_sweep_grid(0.0, 40.0, RATIO_STEP_DB))  # ratio mode starts at 0 dB
    rows = grid * len(ALL_SCHEMES) * len(SWEEP_SPLITS)
    ops = []
    for _ in range(CYCLE):
        anchor = round(rng.uniform(-10.0, 10.0), 2)
        argv = ("sweep", "--mode", "ratio", "--ratio-anchor-db", repr(anchor),
                "--schemes", ",".join(ALL_SCHEMES), "--grid-step-db", repr(RATIO_STEP_DB))
        ops.append(Op(argv, work=rows, rows=rows))
    return ops


def signal_check_ops(rng: random.Random) -> list:
    # qam-64/rama2 and psk-128/rama1 cost about the same per op, so the
    # latency median does not straddle two modes.
    kinds = (("qam", 64, "rama2", 64 * 64 * CHECK_SPLITS),
             ("psk", 128, "rama1", 128 * 128))
    ops = []
    for i in range(CYCLE):
        kind, order, scheme, pairs = kinds[i % 2]
        power = round(rng.uniform(0.5, 2.0), 3)
        argv = ("signal-check", "--constellation", kind, "--order", str(order),
                "--scheme", scheme, "--total-power", repr(power))
        ops.append(Op(argv, work=pairs))
    return ops


WORKLOADS = {
    "region": region_ops,
    "sweep-fading": sweep_fading_ops,
    "sweep-grid": sweep_grid_ops,
    "signal-check": signal_check_ops,
}


def make_ops(workload: str, seed: int) -> list:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def argv_key(argv) -> str:
    return " ".join(argv)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --- output checks ------------------------------------------------------------


class CheckError(Exception):
    """The output of an op does not have the structure its inputs imply."""


def _flag(argv, name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value < 0.0:
        raise CheckError(f"value {text!r} is not finite and nonnegative")
    return value


def _split_csv(command: str, text: str, header: str):
    lines = text.splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    body = lines[len(meta):]
    if not meta or not meta[0].startswith(f"# ramasim {command} v"):
        raise CheckError("missing tool/version line")
    try:
        begin, end = meta.index("# config-begin"), meta.index("# config-end")
    except ValueError:
        raise CheckError("missing config echo") from None
    config = dict(ln[2:].split(" = ", 1) for ln in meta[begin + 1:end])
    if not body or body[0] != header:
        raise CheckError(f"column header is not {header!r}")
    return config, [row.split(",") for row in body[1:]]


def _expect(config: dict, key: str, value) -> None:
    got = config.get(key)
    same = got is not None and (
        float(got) == float(value) if isinstance(value, float) else got == str(value))
    if not same:
        raise CheckError(f"config echo {key} = {got!r}, expected {value!r}")


def _check_region(op: Op, text: str) -> dict:
    argv = op.argv
    config, rows = _split_csv("region", text, "scheme,r1_bits,r2_bits")
    schemes = _flag(argv, "--schemes").split(",")
    n = int(_flag(argv, "--grid-n"))
    _expect(config, "g1_db", float(_flag(argv, "--g1-db")))
    _expect(config, "g2_db", float(_flag(argv, "--g2-db")))
    _expect(config, "schemes", ",".join(schemes))
    _expect(config, "grid_n", n)
    groups = {}
    for row in rows:
        if len(row) != 3:
            raise CheckError(f"malformed row {row!r}")
        groups.setdefault(row[0], []).append((_finite(row[1]), _finite(row[2])))
    if list(groups) != schemes:
        raise CheckError(f"scheme blocks {list(groups)} != {schemes}")
    for scheme, points in groups.items():
        if len(points) > _region_points(scheme, n):
            raise CheckError(f"{scheme}: more frontier rows than grid points")
        if scheme == "rama1" and len(points) != 1:
            raise CheckError("rama1 frontier must be a single point")
        # The CSV rounds to 6 significant digits, so neighbouring frontier
        # points may print equal r1; the order must still never reverse.
        for (a1, a2), (b1, b2) in zip(points, points[1:]):
            if b1 < a1 or b2 > a2:
                raise CheckError(f"{scheme}: frontier not r1-increasing/r2-nonincreasing")
    return {"frontier_points": len(rows)}


def _check_sweep(op: Op, text: str) -> dict:
    argv = op.argv
    config, rows = _split_csv("sweep", text, "x_db,scheme,split,sum_rate_bits,stderr")
    mode = _flag(argv, "--mode", "symmetric")
    schemes = _flag(argv, "--schemes").split(",")
    fading = int(_flag(argv, "--fading-samples", "0"))
    start = -10.0 if mode == "symmetric" else 0.0
    step = float(_flag(argv, "--grid-step-db", "1.0"))
    _expect(config, "mode", mode)
    _expect(config, "schemes", ",".join(schemes))
    _expect(config, "fading_samples", fading)
    _expect(config, "seed", int(_flag(argv, "--seed", "0")))
    _expect(config, "grid_step_db", step)
    _expect(config, "ratio_anchor_db", float(_flag(argv, "--ratio-anchor-db", "0.0")))
    grid = _sweep_grid(start, 40.0, step)
    if len(rows) != op.rows or op.rows != len(grid) * len(schemes) * len(SWEEP_SPLITS):
        raise CheckError(f"{len(rows)} rows, expected {op.rows}")
    expected = ((x, s, t) for x in grid for s in schemes for t in SWEEP_SPLITS)
    for row, (x, scheme, split) in zip(rows, expected):
        if len(row) != 5 or row[1] != scheme:
            raise CheckError(f"row {row!r} out of order, expected scheme {scheme}")
        if abs(float(row[0]) - x) > 1e-5 * max(1.0, abs(x)) or float(row[2]) != split:
            raise CheckError(f"row {row!r} does not match grid point {x!r}/{split!r}")
        _finite(row[3])
        if _finite(row[4]) != 0.0 and fading == 0:
            raise CheckError("nonzero stderr without fading")
    return {}


def _check_signal(op: Op, text: str) -> dict:
    argv = op.argv
    lines = text.splitlines()
    kind, order = _flag(argv, "--constellation"), int(_flag(argv, "--order"))
    scheme = _flag(argv, "--scheme")
    power = float(_flag(argv, "--total-power"))
    if len(lines) < 2 or not lines[0].startswith("ramasim signal-check v"):
        raise CheckError("missing tool/version line")
    fields = dict(tok.split("=", 1) for tok in lines[1].split())
    if (fields.get("scheme") != scheme or fields.get("constellation") != f"{kind}-{order}"
            or fields.get("pairs") != str(order * order)
            or float(fields.get("p", "nan")) != float(format(power, ".6g"))):
        raise CheckError(f"summary line {lines[1]!r} does not match the inputs")
    detail = len(lines) - 4
    if detail != (CHECK_SPLITS if scheme == "rama2" else 2):
        raise CheckError(f"{detail} detail lines")
    if lines[-1] != "result: PASS":
        raise CheckError(f"report ends {lines[-1]!r}")
    return {}


CHECKS = {"region": _check_region, "sweep": _check_sweep, "signal-check": _check_signal}


def check_output(op: Op, rc, text: str, golden: dict) -> dict:
    """Raise CheckError unless the op's output is right; return output counts."""
    if rc != 0:
        raise CheckError(f"exit status {rc!r}")
    want = golden.get(argv_key(op.argv))
    if want is not None and sha256(text) != want:
        raise CheckError("output bytes differ from the recorded sha256")
    try:
        counts = CHECKS[op.argv[0]](op, text)
    except (ValueError, IndexError, KeyError) as exc:
        raise CheckError(f"unparseable output: {exc}") from None
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    csv_rows = len(lines) - 1 if op.argv[0] != "signal-check" else len(lines)
    counts.update(csv_rows=csv_rows, csv_bytes=len(text.encode("utf-8")))
    return counts
