"""Command-line front end: region, sweep, and signal-check experiments.

Each command is described once, by its key table: a row gives a config
key's codec, serializer, default and help text, and the same key is the
flag ``--key-with-dashes``. Parameter precedence is defaults, then an
optional flat ``key = value`` config file (``--config``), then flags. Config
files carry a schema version and reject unknown keys. Every CSV embeds a
``#``-commented echo of the effective configuration between
``config-begin``/``config-end`` markers; stripping the comment prefix from
those lines yields a config file that reproduces the CSV byte for byte.

Exit codes: 0 success, 1 runtime failure (including a failed signal
check), 2 configuration error: a ValueError, whose message names the key.
"""

import argparse
import contextlib
import functools
import itertools
import math
import os
import re
import stat
import sys

import numpy as np

from . import __version__
from .channel import RNG_ALGORITHM, db_to_linear, from_db
from .constellations import make_psk, make_qam
from .rates import Scheme
from .region import trace_region
from .sweep import (
    DEFAULT_SPLITS,
    SweepConfig,
    X_AXIS_RATIO,
    X_AXIS_SYMMETRIC,
    build_grid,
    default_grid,
    run_sweep,
)
from .transceiver import DEFAULT_CHAIN_SPLITS, verify_chain

CONFIG_SCHEMA_VERSION = 1
# Largest --config file read, in bytes; a command's config echo is under 1 kB.
MAX_CONFIG_BYTES = 1 << 20

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

SIGNAL_TOL = 1e-12

# Region CSV rows per block: one _g6 call formats them and one write writes them.
_REGION_BLOCK_ROWS = 1 << 12
# Sweep values per _g6 call, so formatting memory does not grow with the grid;
# whole grid points, or one point if it holds more.
_SWEEP_CONVERT_VALUES = 1 << 10

REGION_SCHEMES = (Scheme.OMA, Scheme.NOMA, Scheme.RAMA1, Scheme.RAMA2)
SWEEP_SCHEMES = tuple(Scheme)
CHECK_SCHEMES = (Scheme.RAMA1, Scheme.RAMA2)
PSK, QAM = "psk", "qam"  # signal-check's constellation names


# --- value codecs ----------------------------------------------------------


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"invalid number {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"value must be finite, got {text!r}")
    return value


def _parse_db(text: str) -> float:
    value = _parse_float(text)
    db_to_linear(value)  # raises outside the +-DB_LIMIT domain
    return value


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid integer {text!r}") from None


def _parse_splits(text: str) -> tuple:
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise ValueError("split list must be nonempty")
    values = tuple(_parse_float(tok) + 0.0 for tok in tokens)  # + 0.0: a -0 split is 0
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"split {v!r} outside [0, 1]")
    return values


def _ser_float(value) -> str:
    return repr(float(value))


def _ser_floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _choice(*options) -> tuple:
    """(parse, serialize) for one of `options`, each named by its ``str``."""
    by_name = {str(option): option for option in options}

    def parse(text: str):
        if text not in by_name:
            raise ValueError(f"{text!r} is not one of {', '.join(by_name)}")
        return by_name[text]

    return parse, str


def _schemes(allowed) -> tuple:
    """(parse, serialize) for a comma-separated list of distinct `allowed` schemes."""
    parse_one, _ = _choice(*allowed)

    def parse(text: str) -> tuple:
        schemes = tuple(parse_one(token.strip()) for token in text.split(","))
        if len(set(schemes)) < len(schemes):
            raise ValueError(f"{text!r} names a scheme more than once")
        return schemes

    return parse, lambda schemes: ",".join(map(str, schemes))


_FLOAT = (_parse_float, _ser_float)
_DB = (_parse_db, _ser_float)
_INT = (_parse_int, str)
_SPLITS = (_parse_splits, _ser_floats)
_REQUIRED = object()

# key -> (parse, serialize, default, flag help): a command's whole interface.
# Each key is also the flag --key-with-dashes; _REQUIRED defaults must be
# supplied by the config file or a flag. Table order is the flag order and
# the config-echo order.
REGION_TABLE = {
    "g1_db": (*_DB, _REQUIRED, "user 1 p*gamma level in dB"),
    "g2_db": (*_DB, _REQUIRED, "user 2 p*gamma level in dB"),
    "schemes": (*_schemes(REGION_SCHEMES), _REQUIRED,
                "comma-separated schemes (oma,noma,rama1,rama2)"),
    "grid_n": (*_INT, 1000, "sweep resolution per axis"),
}

SWEEP_TABLE = {
    "mode": (*_choice(X_AXIS_SYMMETRIC, X_AXIS_RATIO), X_AXIS_SYMMETRIC,
             "x-axis mode: symmetric or ratio"),
    "grid_start_db": (*_DB, None, None),  # None = the mode's default_grid start
    "grid_stop_db": (*_DB, 40.0, None),
    "grid_step_db": (*_FLOAT, 1.0, None),
    "schemes": (*_schemes(SWEEP_SCHEMES), (Scheme.NOMA, Scheme.RAMA1),
                "comma-separated schemes (noma,reconfig-noma,rama1,rama2,oma)"),
    "splits": (*_SPLITS, DEFAULT_SPLITS, "comma-separated power splits p1/p"),
    "fading_samples": (*_INT, 0, "Rayleigh realizations per grid point (0 disables fading)"),
    "seed": (*_INT, 0, "base seed for the fading stream"),
    "ratio_anchor_db": (*_DB, 0.0, "user 2 p*gamma level in dB for ratio mode"),
}

CHECK_TABLE = {
    "constellation": (*_choice(PSK, QAM), _REQUIRED, "psk or qam"),
    "order": (*_INT, _REQUIRED, "constellation order"),
    "scheme": (*_choice(*CHECK_SCHEMES), _REQUIRED, "rama1 or rama2"),
    "splits": (*_SPLITS, DEFAULT_CHAIN_SPLITS, "power splits to check (rama2 only)"),
    "total_power": (*_FLOAT, 1.0, "total power p"),
}


# --- config file handling --------------------------------------------------


def _open_nonblocking(name: str, flags: int) -> int:
    """os.open that returns at once on a FIFO instead of waiting for a writer."""
    return os.open(name, flags | os.O_NONBLOCK)


def _read_config_file(path: str) -> dict:
    """The `key = value` pairs of a UTF-8 regular file of at most MAX_CONFIG_BYTES."""
    try:
        with open(path, "rb", opener=_open_nonblocking) as fh:
            if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                raise ValueError(f"config: {path!r} is not a regular file")
            content = fh.read(MAX_CONFIG_BYTES + 1)
    except OSError as exc:
        raise ValueError(f"config: cannot read {path!r}: {exc}") from None
    if len(content) > MAX_CONFIG_BYTES:
        raise ValueError(f"config: {path!r} is larger than {MAX_CONFIG_BYTES} bytes")
    try:
        text = content.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"config: {path!r} is not UTF-8: {exc}") from None
    data = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in data:
            raise ValueError(f"duplicate config key {key!r}")
        data[key] = value.strip()
    return data


def _parse_key(key: str, parse, text: str):
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def _merge_params(command: str, table: dict, args) -> dict:
    params = {key: row[2] for key, row in table.items()}
    sources = []
    if args.config:
        raw = _read_config_file(args.config)
        for key in raw:
            if key not in table and key not in ("version", "command"):
                raise ValueError(f"unknown config key {key!r}")
        if "version" not in raw:
            raise ValueError("version: required key missing from config file")
        declared = _parse_key("version", _parse_int, raw["version"])
        if declared != CONFIG_SCHEMA_VERSION:
            raise ValueError(
                f"version: config declares schema {declared}, "
                f"tool expects {CONFIG_SCHEMA_VERSION}"
            )
        if "command" in raw and raw["command"] != command:
            raise ValueError(
                f"command: config file is for {raw['command']!r}, not {command!r}"
            )
        sources.append(raw)
    sources.append(vars(args))  # flags override the file; an unset flag is None
    for source in sources:
        for key, (parse, *_) in table.items():
            if source.get(key) is not None:
                params[key] = _parse_key(key, parse, source[key])
    for key in table:
        if params[key] is _REQUIRED:
            flag = "--" + key.replace("_", "-")
            raise ValueError(f"{key} is required (set the {flag} flag or config key)")
    return params


def _metadata(command: str, table: dict, params: dict) -> str:
    """The CSV's commented metadata block: version, RNG, and the config echo."""
    lines = [
        f"# ramasim {command} v{__version__}",
        f"# rng: {RNG_ALGORITHM}",
        "# config-begin",
        f"# version = {CONFIG_SCHEMA_VERSION}",
        f"# command = {command}",
    ]
    for key, (_, serialize, *_) in table.items():
        lines.append(f"# {key} = {serialize(params[key])}")
    lines.append("# config-end")
    return "\n".join(lines) + "\n"


def _write_output(out: str, blocks) -> None:
    """Write each block to `out` ('-' = stdout) with one write, as soon as it is formatted.

    A block is newline-terminated text: the metadata, a header, a report or
    one `_g6` conversion's CSV rows, so the output is never held whole.
    """
    with (contextlib.nullcontext(sys.stdout) if out == "-"
          else open(out, "w", encoding="utf-8", newline="")) as fh:
        for block in blocks:
            fh.write(block)


# --- CSV number encoding ------------------------------------------------------
# _g6 turns each float64 into the text of "%.6g" % x in a 16-byte field: a NUL
# byte the caller may set to a separator, then the text with NULs as gaps.
# _text lays fields and constant bytes side by side in one uint8 matrix of
# rows, and one bytes.translate(None, b"\0") per matrix drops the gaps.


def _g6_tables() -> tuple:
    """(digit words, trailing zeros, mask words, decoration words) of the fast path.

    In fixed notation a field's bytes are the separator, "0.00", then
    d1 . d2 . d3 . d4 . d5 . d6: the six digits of x rounded, each of the
    first five followed by a slot for the point. Rows g and 1000 + g of the
    digit words place the ASCII of the 3-digit group g as digits 1-3 and 4-6
    of the field's two little-endian words. For x of exponent e (-3 to 5),
    row 7 * (e + 3) + kept of the mask words keeps the first `kept` digits,
    and that of the decoration words holds the "0." and "0"s of e < 0, or
    the point after digit e + 1 when kept digits follow it. Built from
    Python bytes: the first use of numpy's integer operations at import
    grew the peak memory of every command, signal-check too, by about 1 MB.
    """
    groups = b"".join(b"%03d" % g for g in range(1000))
    digits = bytearray(2000 * 16)
    for d in range(3):  # digit d of every group
        digits[5 + 2 * d:16000:16] = digits[16011 + 2 * d::16] = groups[d::3]
    mask, decor = bytearray(63 * 16), bytearray(63 * 16)
    for q in range(9):  # q = e + 3
        for kept in range(7):
            row = 16 * (7 * q + kept)
            mask[row + 5:row + 5 + 2 * kept:2] = b"\xff" * kept
            if q < 3:
                decor[row + 1:row + 5 - q] = b"0." + b"0" * (2 - q)
            elif kept > q - 2:
                decor[row + 2 * q] = ord(".")
    zeros = [(g % 10 == 0) + (g % 100 == 0) + (g % 1000 == 0) for g in range(1000)]
    words = [np.frombuffer(bytes(table), "<u8").reshape(-1, 2) for table in (digits, mask, decor)]
    return words[0], np.array(zeros, np.intp), words[1], words[2]


_G6_DIGITS, _G6_ZEROS, _G6_MASK, _G6_DECOR = _g6_tables()
_G6_POW10 = np.array([float(10**k) for k in range(9)])


def _g6(values) -> np.ndarray:
    """The bytes of "%.6g" % x for each x, as a uint8 array of shape values.shape + (16,).

    Byte 0 of each field is NUL; the text follows, NUL-padded. Each field
    depends on its x alone. 1e-3 <= x < 1e6 prints in fixed notation, from
    m = x * 10**(5 - e) with e = floor(log10 x): one rounding, within 2**-33
    of exact since m < 2**20, so rint(m) is the six digits % rounds to unless
    m is within 1e-6 of a tie. Where log10 rounds up to e at an x just below
    10**e, m is just below 1e5 and rounds to it, as % does. Python's % formats
    the rest: near ties, a carry to 10**6 (or an e one too low), exponent
    form, zero, negatives, NaN and infinities.
    """
    x = np.asarray(values, np.float64)
    fast = (x >= 1e-3) & (x < 1e6)  # False for NaN
    m = np.where(fast, x, 1.0)
    q = np.clip(np.floor(np.log10(m)), -3, 5).astype(np.intp) + 3
    m *= _G6_POW10[8 - q]
    r = np.rint(m)
    fast &= (r < 1e6) & (np.abs(m - r) < 0.499999)
    lo = np.minimum(r, 999999.0, out=r).astype(np.intp)  # the six digits
    del m, r  # the peak memory per value bounds the values per call
    hi = lo // 1000
    lo -= 1000 * hi
    row = np.maximum(q - 2, 6 - _G6_ZEROS[lo] - (lo == 0) * _G6_ZEROS[hi])  # digits kept
    row += 7 * q
    words = np.take(_G6_DIGITS, hi, 0)
    words |= np.take(_G6_DIGITS, 1000 + lo, 0)
    words &= np.take(_G6_MASK, row, 0)
    words |= np.take(_G6_DECOR, row, 0)
    out = words.view(np.uint8)
    slow = ~fast
    if slow.any():
        text = ["%.6g" % v for v in x[slow].tolist()]
        out[slow, 1:] = np.array(text, "S15").view(np.uint8).reshape(len(text), 15)
    return out


def _text(shape, *parts) -> str:
    """Rows of `shape` made of the uint8 `parts` side by side, each broadcast to
    `shape`, as ASCII text less every NUL."""
    width = sum(part.shape[-1] for part in parts)
    buf = bytearray(math.prod(shape) * width)
    rows = np.frombuffer(buf, np.uint8).reshape(*shape, width)
    at = 0
    for part in parts:
        rows[..., at:at + part.shape[-1]] = part
        at += part.shape[-1]
    text = buf.translate(None, b"\0")
    del rows, buf  # so the decoded copy does not coexist with the matrix
    return text.decode("ascii")


# --- commands ---------------------------------------------------------------
# Each takes the merged parameters and returns (exit code, output blocks); a
# block is one or more newline-terminated lines. All work is done before it
# returns, so a refused input raises before any output.


def _region_blocks(scheme: Scheme, r1, r2):
    """The CSV rows of one frontier, `_REGION_BLOCK_ROWS` rows a block.

    A row is the scheme, the r1 and r2 fields, each led by ",", and "\\n".
    """
    name = np.frombuffer(str(scheme).encode(), np.uint8)
    newline = np.frombuffer(b"\n", np.uint8)
    k = _REGION_BLOCK_ROWS
    for start in range(0, len(r1), k):
        fields = _g6(np.stack((r1[start:start + k], r2[start:start + k]), 1))
        fields[..., 0] = ord(",")
        yield _text((len(fields),), name, fields.reshape(len(fields), -1), newline)


def _cmd_region(params) -> tuple:
    lb = from_db(params["g1_db"], params["g2_db"])
    regions = [(s, trace_region(s, lb, params["grid_n"])) for s in params["schemes"]]
    blocks = itertools.chain.from_iterable(_region_blocks(s, r.r1, r.r2) for s, r in regions)
    return EXIT_OK, itertools.chain(["scheme,r1_bits,r2_bits\n"], blocks)


def _sweep_blocks(result):
    """The CSV rows of a few grid points' (scheme, split) cells a block, in C order.

    A row is x's field, the cell's ",scheme,split", the mean's and stderr's
    fields led by ",", and "\\n"; an all-zero stderr column is the constant
    ",0" ("%.6g" % 0.0 == "0"). A block is one `_g6` call's rows: whole
    points, at most `_SWEEP_CONVERT_VALUES` values, or one point if it holds more.
    """
    zero_errors = not result.errors.view(np.uint64).any()  # every stderr is +0.0
    cells = np.array([",%s,%.6g" % (s, t) for s in result.schemes for t in result.splits], "S")
    cells = cells.view(np.uint8).reshape(len(cells), -1)  # NUL-padded
    tail = np.frombuffer(b",0\n" if zero_errors else b"\n", np.uint8)
    columns = (result.means,) if zero_errors else (result.means, result.errors)
    step = max(1, _SWEEP_CONVERT_VALUES // (len(columns) * len(cells)))
    for start in range(0, len(result.grid), step):
        points = slice(start, start + step)
        x = np.asarray(result.grid[points])
        fields = _g6(np.concatenate([x] + [c[points].ravel() for c in columns]))
        fields[len(x):, 0] = ord(",")
        shape = (len(x), len(cells))
        values = fields[len(x):].reshape(len(columns), *shape, 16)
        yield _text(shape, fields[:len(x), None], cells, *values, tail)


def _cmd_sweep(params) -> tuple:
    if params["grid_start_db"] is None:
        params["grid_start_db"] = default_grid(params["mode"])[0]
    grid = build_grid(params["grid_start_db"], params["grid_stop_db"], params["grid_step_db"])
    shared = ("schemes", "splits", "fading_samples", "seed", "ratio_anchor_db")  # field names too
    cfg = SweepConfig(x_axis=params["mode"], grid_db=grid, **{k: params[k] for k in shared})
    return EXIT_OK, itertools.chain(["x_db,scheme,split,sum_rate_bits,stderr\n"],
                                    _sweep_blocks(run_sweep(cfg)))


def _cmd_signal_check(params) -> tuple:
    kind = params["constellation"]
    scheme = params["scheme"]
    if scheme is Scheme.RAMA1 and kind != PSK:
        raise ValueError(
            "scheme: rama1 requires a psk constellation "
            "(equal power split cannot realize an amplitude ratio)"
        )
    const = make_psk(params["order"]) if kind == PSK else make_qam(params["order"])
    p = params["total_power"]
    errors = verify_chain(const, scheme, params["splits"], p)
    lines = [
        f"ramasim signal-check v{__version__}",
        f"scheme={scheme} constellation={kind}-{params['order']} "
        f"pairs={params['order'] ** 2} p={p:.6g}",
    ]
    if scheme is Scheme.RAMA1:
        ((chain, power),) = errors
        lines.append(f"  beam-2 equivalence: max |tsa2 - direct| = {chain:.3e}")
        lines.append(f"  average transmit power: |mean - p| = {power:.3e}")
    else:
        for split, (chain, power) in zip(params["splits"], errors):
            lines.append(
                f"  split {split:.6g}: max |tsa2 - direct| = {chain:.3e}, "
                f"|mean power - p| = {power:.3e}"
            )
    worst = max(max(pair) for pair in errors)
    ok = worst <= SIGNAL_TOL
    lines.append(f"max |error| = {worst:.3e} (tolerance {SIGNAL_TOL:g})")
    lines.append("result: PASS" if ok else "result: FAIL")
    return (EXIT_OK if ok else EXIT_RUNTIME), ["\n".join(lines) + "\n"]


# --- entry points ------------------------------------------------------------

# command -> (help, key table, run, writes a CSV). A CSV command also takes
# --out, and its output opens with the config echo.
COMMANDS = {
    "region": ("trace achievable-rate-region frontiers to CSV", REGION_TABLE, _cmd_region, True),
    "sweep": ("sum-rate sweep over a dB grid to CSV", SWEEP_TABLE, _cmd_sweep, True),
    "signal-check": (
        "verify transmit-chain exactness over all symbol pairs",
        CHECK_TABLE,
        _cmd_signal_check,
        False,
    ),
}


_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, generated from `COMMANDS` once per process.

    ``parse_args`` leaves the parser as it was and returns a fresh namespace
    on every call, so one tree serves any number of ``main`` calls.
    """
    parser = argparse.ArgumentParser(
        prog="ramasim",
        description="Two-user downlink multiple-access rate experiments.",
    )
    parser.add_argument(
        "--version", action="version", version=f"ramasim {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, table, _, writes_csv) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        # argparse takes only -digits[.digits] for a negative number, so a
        # level such as the config echo's -1e-05 would read as an option.
        command._negative_number_matcher = _NEGATIVE_NUMBER
        command.add_argument("--config", help="flat key = value config file")
        for key, (*_, flag_help) in table.items():
            command.add_argument("--" + key.replace("_", "-"), help=flag_help)
        if writes_csv:
            command.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _, table, run, writes_csv = COMMANDS[args.command]
    try:
        params = _merge_params(args.command, table, args)
        code, blocks = run(params)
        if writes_csv:
            blocks = itertools.chain([_metadata(args.command, table, params)], blocks)
        _write_output(args.out if writes_csv else "-", blocks)
        return code
    except ValueError as exc:
        print(f"ramasim: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"ramasim: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
