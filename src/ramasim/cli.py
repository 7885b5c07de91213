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

from . import __version__
from .channel import RNG_ALGORITHM, db_to_linear, from_db
from .constellations import PSK, QAM, make_psk, make_qam
from .rates import Scheme
from .region import trace_region
from .sweep import (
    DEFAULT_SPLITS,
    FadingConfig,
    SweepConfig,
    X_AXIS_RATIO,
    X_AXIS_SYMMETRIC,
    build_grid,
    default_grid,
    run_sweep,
)
from .transceiver import verify_chain

CONFIG_SCHEMA_VERSION = 1
# Largest --config file read, in bytes; a command's config echo is under 1 kB.
MAX_CONFIG_BYTES = 1 << 20

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

SIGNAL_TOL = 1e-12

REGION_SCHEMES = (Scheme.OMA, Scheme.NOMA, Scheme.RAMA1, Scheme.RAMA2)
SWEEP_SCHEMES = tuple(Scheme)
CHECK_SCHEMES = (Scheme.RAMA1, Scheme.RAMA2)

CHECK_DEFAULT_SPLITS = (0.1, 0.3, 0.5, 0.7, 0.9)


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
    values = tuple(_parse_float(tok) for tok in tokens)
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
    "splits": (*_SPLITS, CHECK_DEFAULT_SPLITS, "power splits to check (rama2 only)"),
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


def _metadata_lines(command: str, table: dict, params: dict) -> list:
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
    return lines


def _write_output(out: str, lines) -> None:
    """Write `lines` to `out` ('-' = stdout) as they are formatted, 2**14 lines a write."""
    lines = iter(lines)  # islice over a list would restart at its head on every block
    with (contextlib.nullcontext(sys.stdout) if out == "-"
          else open(out, "w", encoding="utf-8", newline="")) as fh:
        while block := list(itertools.islice(lines, 1 << 14)):
            fh.write("\n".join(block) + "\n")


# --- commands ---------------------------------------------------------------
# Each takes the merged parameters and returns (exit code, output lines). All
# work is done before it returns, so a refused input raises before any output.


def _cmd_region(params) -> tuple:
    lb = from_db(params["g1_db"], params["g2_db"])
    regions = [(s, trace_region(s, lb, params["grid_n"])) for s in params["schemes"]]
    rows = itertools.chain.from_iterable(
        zip(itertools.repeat(s), r.r1.tolist(), r.r2.tolist()) for s, r in regions
    )
    return EXIT_OK, itertools.chain(["scheme,r1_bits,r2_bits"], map("%s,%.6g,%.6g".__mod__, rows))


def _cmd_sweep(params) -> tuple:
    if params["grid_start_db"] is None:
        params["grid_start_db"] = default_grid(params["mode"])[0]
    fading = None
    if params["fading_samples"]:  # 0 = off
        fading = FadingConfig(params["fading_samples"], params["seed"])
    grid = build_grid(params["grid_start_db"], params["grid_stop_db"], params["grid_step_db"])
    cfg = SweepConfig(
        schemes=params["schemes"],
        x_axis=params["mode"],
        grid_db=grid,
        splits=params["splits"],
        fading=fading,
        ratio_anchor_db=params["ratio_anchor_db"],
    )
    result = run_sweep(cfg)
    # The bytes of "%.6g,%s,%.6g,%.6g,%.6g" % (x, scheme, split, mean, stderr),
    # from one template per (scheme, split) in the arrays' C order and x
    # formatted once per grid point; no scheme name or %.6g split holds a "%".
    templates = ["%%s,%s,%.6g,%%.6g,%%.6g" % (s, t) for s in result.schemes for t in result.splits]
    shape = len(result.grid), len(templates)
    rows = itertools.chain.from_iterable(
        map(str.__mod__, templates, zip(itertools.repeat("%.6g" % x), means, errors))
        for x, means, errors in zip(
            result.grid,
            result.means.reshape(shape).tolist(),
            result.errors.reshape(shape).tolist(),
        )
    )
    return EXIT_OK, itertools.chain(["x_db,scheme,split,sum_rate_bits,stderr"], rows)


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
    return (EXIT_OK if ok else EXIT_RUNTIME), lines


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
        code, lines = run(params)
        if writes_csv:
            lines = itertools.chain(_metadata_lines(args.command, table, params), lines)
        _write_output(args.out if writes_csv else "-", lines)
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
