"""Command-line front end: region, sweep, and signal-check experiments.

Parameter precedence is defaults, then an optional flat ``key = value``
config file (``--config``), then command-line flags. Config files carry a
schema version and reject unknown keys. Every CSV embeds a ``#``-commented
echo of the effective configuration between ``config-begin``/``config-end``
markers; stripping the comment prefix from those lines yields a config
file that reproduces the CSV byte for byte.

Exit codes: 0 success, 1 runtime failure (including a failed signal
check), 2 configuration error.
"""

import argparse
import functools
import math
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
    run_sweep,
)
from .transceiver import verify_chain

CONFIG_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

SIGNAL_TOL = 1e-12

# Size caps: every input ends in output or a one-line config error, never
# in a hang or an allocation that exhausts memory. signal-check holds about
# a dozen order^2 float planes (qam-1024 rama2: ~1.7 s, ~110 MB peak RSS).
MAX_ORDER = 1024
MAX_GRID_POINTS = 10_000  # sweep grid points; each is one row per scheme and split
# signal-check squares chain amplitudes up to about 1e3 * total_power
# (qam-1024's largest squared amplitude ratio is 961); capping the power at
# 1e100 keeps every square finite, as channel.DB_LIMIT does for the gains.
MAX_TOTAL_POWER = 1e100

REGION_SCHEMES = (Scheme.OMA, Scheme.NOMA, Scheme.RAMA1, Scheme.RAMA2)
SWEEP_SCHEMES = tuple(Scheme)
CHECK_SCHEMES = (Scheme.RAMA1, Scheme.RAMA2)

CHECK_DEFAULT_SPLITS = (0.1, 0.3, 0.5, 0.7, 0.9)


class ConfigError(Exception):
    """Invalid experiment configuration; the message names the offending key."""


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


def _schemes_parser(allowed):
    allowed_names = ",".join(s.value for s in allowed)

    def parse(text: str) -> tuple:
        out = []
        for token in (tok.strip() for tok in text.split(",")):
            if not token:
                raise ValueError(f"empty scheme token (choose from {allowed_names})")
            try:
                scheme = Scheme(token)
            except ValueError:
                raise ValueError(
                    f"unknown scheme {token!r} (choose from {allowed_names})"
                ) from None
            if scheme not in allowed:
                raise ValueError(
                    f"scheme {token!r} is not supported by this command "
                    f"(choose from {allowed_names})"
                )
            out.append(scheme)
        if not out:
            raise ValueError(f"scheme list must be nonempty (choose from {allowed_names})")
        return tuple(out)

    return parse


def _parse_mode(text: str) -> str:
    if text not in ("symmetric", "ratio"):
        raise ValueError(f"mode must be 'symmetric' or 'ratio', got {text!r}")
    return text


def _parse_kind(text: str) -> str:
    if text not in (PSK, QAM):
        raise ValueError(f"constellation must be '{PSK}' or '{QAM}', got {text!r}")
    return text


def _check_scheme(text: str):
    return _schemes_parser(CHECK_SCHEMES)(text)[0]


def _ser_float(value) -> str:
    return repr(float(value))


def _ser_floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _ser_schemes(values) -> str:
    return ",".join(s.value for s in values)


def _ser_str(value) -> str:
    return str(value)


_REQUIRED = object()

# key -> (parse, serialize, default); _REQUIRED defaults must be supplied by
# the config file or a flag. Table order is the config-echo order.
REGION_TABLE = {
    "g1_db": (_parse_db, _ser_float, _REQUIRED),
    "g2_db": (_parse_db, _ser_float, _REQUIRED),
    "schemes": (_schemes_parser(REGION_SCHEMES), _ser_schemes, _REQUIRED),
    "grid_n": (_parse_int, str, 1000),
}

SWEEP_TABLE = {
    "mode": (_parse_mode, _ser_str, "symmetric"),
    "grid_start_db": (_parse_db, _ser_float, None),  # None = mode default
    "grid_stop_db": (_parse_db, _ser_float, 40.0),
    "grid_step_db": (_parse_float, _ser_float, 1.0),
    "schemes": (_schemes_parser(SWEEP_SCHEMES), _ser_schemes, (Scheme.NOMA, Scheme.RAMA1)),
    "splits": (_parse_splits, _ser_floats, DEFAULT_SPLITS),
    "fading_samples": (_parse_int, str, 0),
    "seed": (_parse_int, str, 0),
    "ratio_anchor_db": (_parse_db, _ser_float, 0.0),
}

CHECK_TABLE = {
    "constellation": (_parse_kind, _ser_str, _REQUIRED),
    "order": (_parse_int, str, _REQUIRED),
    "scheme": (_check_scheme, lambda s: s.value, _REQUIRED),
    "splits": (_parse_splits, _ser_floats, CHECK_DEFAULT_SPLITS),
    "total_power": (_parse_float, _ser_float, 1.0),
}


# --- config file handling --------------------------------------------------


def _read_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path!r}: {exc}") from None
    data = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in data:
            raise ConfigError(f"duplicate config key {key!r}")
        data[key] = value.strip()
    return data


def _merge_params(command: str, table: dict, args) -> dict:
    params = {key: spec[2] for key, spec in table.items()}
    if args.config:
        raw = _read_config_file(args.config)
        for key in raw:
            if key not in table and key not in ("version", "command"):
                raise ConfigError(f"unknown config key {key!r}")
        if "version" not in raw:
            raise ConfigError("version: required key missing from config file")
        try:
            declared = _parse_int(raw["version"])
        except ValueError as exc:
            raise ConfigError(f"version: {exc}") from None
        if declared != CONFIG_SCHEMA_VERSION:
            raise ConfigError(
                f"version: config declares schema {declared}, "
                f"tool expects {CONFIG_SCHEMA_VERSION}"
            )
        if "command" in raw and raw["command"] != command:
            raise ConfigError(
                f"command: config file is for {raw['command']!r}, not {command!r}"
            )
        for key, (parse, _, _) in table.items():
            if key in raw:
                try:
                    params[key] = parse(raw[key])
                except ValueError as exc:
                    raise ConfigError(f"{key}: {exc}") from None
    for key, (parse, _, _) in table.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            try:
                params[key] = parse(flag_value)
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from None
    for key in table:
        if params[key] is _REQUIRED:
            flag = "--" + key.replace("_", "-")
            raise ConfigError(f"{key} is required (set the {flag} flag or config key)")
    return params


def _metadata_lines(command: str, table: dict, params: dict) -> list:
    lines = [
        f"# ramasim {command} v{__version__}",
        f"# rng: {RNG_ALGORITHM}",
        "# config-begin",
        f"# version = {CONFIG_SCHEMA_VERSION}",
        f"# command = {command}",
    ]
    for key, (_, serialize, _) in table.items():
        lines.append(f"# {key} = {serialize(params[key])}")
    lines.append("# config-end")
    return lines


def _fmt(value: float) -> str:
    return format(value, ".6g")


def _write_output(out: str, lines: list) -> None:
    text = "\n".join(lines) + "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# --- commands ---------------------------------------------------------------


def _cmd_region(args) -> int:
    params = _merge_params("region", REGION_TABLE, args)
    if params["grid_n"] < 2:
        raise ConfigError("grid_n must be >= 2")
    lb = from_db(params["g1_db"], params["g2_db"])
    lines = _metadata_lines("region", REGION_TABLE, params)
    lines.append("scheme,r1_bits,r2_bits")
    for scheme in params["schemes"]:
        try:
            region = trace_region(scheme, lb, params["grid_n"])
        except ValueError as exc:
            raise ConfigError(f"grid_n: {exc}") from None
        for r1, r2 in zip(region.r1.tolist(), region.r2.tolist()):
            lines.append(f"{scheme.value},{_fmt(r1)},{_fmt(r2)}")
    _write_output(args.out, lines)
    return EXIT_OK


def _build_grid(start: float, stop: float, step: float) -> tuple:
    if step <= 0.0:
        raise ConfigError("grid_step_db must be positive")
    if stop < start:
        raise ConfigError("grid_stop_db must be >= grid_start_db")
    span = (stop - start) / step + 1e-9  # may be huge or infinite: cap it before int()
    if span >= MAX_GRID_POINTS:
        raise ConfigError(
            f"grid_step_db: {step!r} gives more than {MAX_GRID_POINTS} grid points "
            f"from {start!r} to {stop!r} dB"
        )
    count = int(math.floor(span)) + 1
    return tuple(start + i * step for i in range(count))


def _cmd_sweep(args) -> int:
    params = _merge_params("sweep", SWEEP_TABLE, args)
    if params["grid_start_db"] is None:
        params["grid_start_db"] = -10.0 if params["mode"] == "symmetric" else 0.0
    if params["fading_samples"] < 0:
        raise ConfigError("fading_samples must be >= 0")
    grid = _build_grid(
        params["grid_start_db"], params["grid_stop_db"], params["grid_step_db"]
    )
    fading = None
    if params["fading_samples"] > 0:
        try:
            fading = FadingConfig(params["fading_samples"], params["seed"])
        except ValueError as exc:
            raise ConfigError(f"fading_samples: {exc}") from None
    x_axis = X_AXIS_SYMMETRIC if params["mode"] == "symmetric" else X_AXIS_RATIO
    try:
        cfg = SweepConfig(
            schemes=params["schemes"],
            x_axis=x_axis,
            grid_db=grid,
            splits=params["splits"],
            fading=fading,
            ratio_anchor_db=params["ratio_anchor_db"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    result = run_sweep(cfg)
    lines = _metadata_lines("sweep", SWEEP_TABLE, params)
    lines.append("x_db,scheme,split,sum_rate_bits,stderr")
    for row in result.rows:
        lines.append(
            f"{_fmt(row.x_db)},{row.scheme.value},{_fmt(row.split)},"
            f"{_fmt(row.sum_rate)},{_fmt(row.stderr)}"
        )
    _write_output(args.out, lines)
    return EXIT_OK


def _cmd_signal_check(args) -> int:
    params = _merge_params("signal-check", CHECK_TABLE, args)
    if params["total_power"] <= 0.0:
        raise ConfigError("total_power must be positive")
    if params["total_power"] > MAX_TOTAL_POWER:
        raise ConfigError(
            f"total_power: {params['total_power']!r} is above the cap of {MAX_TOTAL_POWER:g}"
        )
    kind = params["constellation"]
    scheme = params["scheme"]
    if scheme is Scheme.RAMA1 and kind != PSK:
        raise ConfigError(
            "scheme: rama1 requires a psk constellation "
            "(equal power split cannot realize an amplitude ratio)"
        )
    if params["order"] > MAX_ORDER:
        raise ConfigError(f"order: {params['order']} is above the cap of {MAX_ORDER}")
    try:
        const = make_psk(params["order"]) if kind == PSK else make_qam(params["order"])
    except ValueError as exc:
        raise ConfigError(f"order: {exc}") from None

    p = params["total_power"]
    errors = verify_chain(const, scheme, params["splits"], p)
    lines = [
        f"ramasim signal-check v{__version__}",
        f"scheme={scheme.value} constellation={kind}-{params['order']} "
        f"pairs={params['order'] ** 2} p={_fmt(p)}",
    ]
    if scheme is Scheme.RAMA1:
        ((chain, power),) = errors
        lines.append(f"  beam-2 equivalence: max |tsa2 - direct| = {chain:.3e}")
        lines.append(f"  average transmit power: |mean - p| = {power:.3e}")
    else:
        for split, (chain, power) in zip(params["splits"], errors):
            lines.append(
                f"  split {_fmt(split)}: max |tsa2 - direct| = {chain:.3e}, "
                f"|mean power - p| = {power:.3e}"
            )
    worst = max(max(pair) for pair in errors)
    ok = worst <= SIGNAL_TOL
    lines.append(f"max |error| = {worst:.3e} (tolerance {SIGNAL_TOL:g})")
    lines.append("result: PASS" if ok else "result: FAIL")
    print("\n".join(lines))
    return EXIT_OK if ok else EXIT_RUNTIME


# --- entry points ------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process.

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

    region = sub.add_parser(
        "region", help="trace achievable-rate-region frontiers to CSV"
    )
    region.add_argument("--config", help="flat key = value config file")
    region.add_argument("--g1-db", dest="g1_db", help="user 1 p*gamma level in dB")
    region.add_argument("--g2-db", dest="g2_db", help="user 2 p*gamma level in dB")
    region.add_argument(
        "--schemes", help="comma-separated schemes (oma,noma,rama1,rama2)"
    )
    region.add_argument("--grid-n", dest="grid_n", help="sweep resolution per axis")
    region.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")

    sweep = sub.add_parser("sweep", help="sum-rate sweep over a dB grid to CSV")
    sweep.add_argument("--config", help="flat key = value config file")
    sweep.add_argument("--mode", help="x-axis mode: symmetric or ratio")
    sweep.add_argument("--grid-start-db", dest="grid_start_db")
    sweep.add_argument("--grid-stop-db", dest="grid_stop_db")
    sweep.add_argument("--grid-step-db", dest="grid_step_db")
    sweep.add_argument(
        "--schemes", help="comma-separated schemes (noma,reconfig-noma,rama1,rama2,oma)"
    )
    sweep.add_argument("--splits", help="comma-separated power splits p1/p")
    sweep.add_argument(
        "--fading-samples",
        dest="fading_samples",
        help="Rayleigh realizations per grid point (0 disables fading)",
    )
    sweep.add_argument("--seed", help="base seed for the fading stream")
    sweep.add_argument(
        "--ratio-anchor-db",
        dest="ratio_anchor_db",
        help="user 2 p*gamma level in dB for ratio mode",
    )
    sweep.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")

    check = sub.add_parser(
        "signal-check", help="verify transmit-chain exactness over all symbol pairs"
    )
    check.add_argument("--config", help="flat key = value config file")
    check.add_argument("--constellation", help="psk or qam")
    check.add_argument("--order", help="constellation order")
    check.add_argument("--scheme", help="rama1 or rama2")
    check.add_argument("--splits", help="power splits to check (rama2 only)")
    check.add_argument("--total-power", dest="total_power", help="total power p")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "region":
            return _cmd_region(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_signal_check(args)
    except ConfigError as exc:
        print(f"ramasim: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"ramasim: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
