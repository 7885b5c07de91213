import contextlib
import csv
import importlib.util
import io
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ramasim
import ramasim.cli as cli
from ramasim import constellations, sweep, transceiver
from ramasim import __version__
from ramasim.channel import DB_LIMIT
from ramasim.rates import Scheme

REPO = Path(__file__).resolve().parent.parent


def _run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_process(argv, **kwargs):
    """Run the CLI in a fresh interpreter, so a traceback would reach stderr."""
    src = Path(ramasim.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-m", "ramasim.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120, **kwargs,
    )


def _assert_one_line_config_error(argv, key, **kwargs):
    proc = _run_process(argv, **kwargs)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"ramasim: config error: {key}: ")


def _read_rows(path):
    with open(path, newline="") as handle:
        lines = [ln for ln in handle if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _echoed_config(path):
    lines = path.read_text().splitlines()
    start = lines.index("# config-begin") + 1
    stop = lines.index("# config-end")
    return "\n".join(ln[2:] for ln in lines[start:stop]) + "\n"


def test_region_writes_csv_with_metadata(tmp_path):
    out = tmp_path / "region.csv"
    code = cli.main(
        [
            "region", "--g1-db", "15", "--g2-db", "15",
            "--schemes", "noma,rama1", "--grid-n", "50", "--out", str(out),
        ]
    )
    assert code == 0
    text = out.read_text()
    assert text.startswith(f"# ramasim region v{__version__}\n")
    assert "# rng: pcg64+box-muller\n" in text
    rows = _read_rows(out)
    assert set(r["scheme"] for r in rows) == {"noma", "rama1"}
    assert list(rows[0]) == ["scheme", "r1_bits", "r2_bits"]


def test_region_corner_values_via_csv(tmp_path):
    out = tmp_path / "region.csv"
    assert (
        cli.main(
            [
                "region", "--g1-db", "15", "--g2-db", "15",
                "--schemes", "noma", "--grid-n", "1000", "--out", str(out),
            ]
        )
        == 0
    )
    rows = _read_rows(out)
    r1 = np.array([float(r["r1_bits"]) for r in rows])
    r2 = np.array([float(r["r2_bits"]) for r in rows])
    cap = 5.0278076733505195  # log2(1 + 10^1.5)
    assert abs(r1[-1] - cap) <= 1e-3  # ".6g" rounding caps csv precision
    assert abs(r2[0] - cap) <= 1e-3
    assert r2[-1] == 0.0 and r1[0] == 0.0


def test_region_asymmetric_anchor_via_csv(tmp_path):
    out = tmp_path / "region.csv"
    assert (
        cli.main(
            [
                "region", "--g1-db", "30", "--g2-db", "0",
                "--schemes", "noma,rama2", "--grid-n", "1000", "--out", str(out),
            ]
        )
        == 0
    )
    rows = _read_rows(out)

    def r2_at(scheme, target):
        r1 = [float(r["r1_bits"]) for r in rows if r["scheme"] == scheme]
        r2 = [float(r["r2_bits"]) for r in rows if r["scheme"] == scheme]
        return float(np.interp(target, r1, r2))

    assert abs(r2_at("noma", 8.0) - 0.672) <= 0.01
    assert abs(r2_at("rama2", 8.0) - 0.803) <= 0.01


def test_region_rejects_unknown_scheme(capsys):
    code, _out, err = _run(
        ["region", "--g1-db", "0", "--g2-db", "0", "--schemes", "laser"], capsys
    )
    assert code == 2
    assert "laser" in err


def test_region_rejects_reconfig_scheme(capsys):
    code, _out, err = _run(
        ["region", "--g1-db", "0", "--g2-db", "0", "--schemes", "reconfig-noma"],
        capsys,
    )
    assert code == 2


def test_region_requires_schemes(capsys):
    code, _out, err = _run(["region", "--g1-db", "0", "--g2-db", "0"], capsys)
    assert code == 2
    assert "schemes" in err


def test_config_file_drives_region(tmp_path):
    cfg = tmp_path / "region.cfg"
    cfg.write_text(
        "version = 1\n"
        "command = region\n"
        "g1_db = 15.0\n"
        "g2_db = 15.0\n"
        "schemes = noma\n"
        "grid_n = 40\n"
    )
    out = tmp_path / "out.csv"
    assert cli.main(["region", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(_read_rows(out)) == 40


def test_flag_overrides_config_value(tmp_path):
    cfg = tmp_path / "region.cfg"
    cfg.write_text(
        "version = 1\ncommand = region\ng1_db = 15.0\ng2_db = 15.0\n"
        "schemes = noma\ngrid_n = 40\n"
    )
    out = tmp_path / "out.csv"
    code = cli.main(
        ["region", "--config", str(cfg), "--grid-n", "7", "--out", str(out)]
    )
    assert code == 0
    assert len(_read_rows(out)) == 7
    assert "grid_n = 7" in _echoed_config(out)


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "region.cfg"
    cfg.write_text(
        "version = 1\ncommand = region\ng1_db = 0\ng2_db = 0\n"
        "schemes = noma\nbogus_knob = 3\n"
    )
    code, _out, err = _run(["region", "--config", str(cfg)], capsys)
    assert code == 2
    assert "bogus_knob" in err


def test_config_version_must_match(tmp_path, capsys):
    cfg = tmp_path / "region.cfg"
    cfg.write_text("version = 2\ncommand = region\ng1_db = 0\ng2_db = 0\nschemes = noma\n")
    code, _out, err = _run(["region", "--config", str(cfg)], capsys)
    assert code == 2
    assert "version" in err


def test_config_command_must_match(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("version = 1\ncommand = sweep\n")
    code, _out, err = _run(
        ["region", "--config", str(cfg), "--g1-db", "0", "--g2-db", "0",
         "--schemes", "noma"],
        capsys,
    )
    assert code == 2
    assert "command" in err


def test_duplicate_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "region.cfg"
    cfg.write_text(
        "version = 1\ncommand = region\ng1_db = 0\ng1_db = 1\n"
        "g2_db = 0\nschemes = noma\n"
    )
    code, _out, err = _run(["region", "--config", str(cfg)], capsys)
    assert code == 2
    assert "g1_db" in err


def test_missing_config_file_is_config_error(tmp_path, capsys):
    code, _out, err = _run(
        ["region", "--config", str(tmp_path / "absent.cfg")], capsys
    )
    assert code == 2


def test_config_file_is_read_up_to_its_size_cap(tmp_path, capsys):
    path = tmp_path / "region.cfg"
    argv = ["region", "--g2-db", "0", "--schemes", "noma", "--grid-n", "3",
            "--config", str(path)]
    head = "version = 1\ng1_db = 0\n"
    path.write_text(head + "#" * (cli.MAX_CONFIG_BYTES - len(head) - 1) + "\n")
    assert path.stat().st_size == cli.MAX_CONFIG_BYTES
    code, out, err = _run(argv, capsys)
    assert (code, err) == (0, "")
    assert out.endswith("noma,0,1\nnoma,0.584963,0.415037\nnoma,1,0\n")
    path.write_text(head + "#" * (cli.MAX_CONFIG_BYTES - len(head)) + "\n")
    code, out, err = _run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == (f"ramasim: config error: config: {str(path)!r} is larger than "
                   f"{cli.MAX_CONFIG_BYTES} bytes\n")


def test_config_file_that_is_not_utf8_is_config_error(tmp_path):
    path = tmp_path / "region.cfg"
    path.write_bytes(b"version = 1\n# caf\xe9\n")
    argv = ["region", "--g1-db", "0", "--g2-db", "0", "--schemes", "noma",
            "--config", str(path)]
    _assert_one_line_config_error(argv, "config")


def _limit_address_space():
    # A config read that ignored the size cap would allocate up to this limit.
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("kind", ["/dev/zero", "fifo"])
def test_config_that_is_not_a_regular_file_is_refused(kind, tmp_path):
    if kind == "fifo":
        if not hasattr(os, "mkfifo"):
            pytest.skip("needs os.mkfifo")
        path = tmp_path / "region.cfg"
        os.mkfifo(path)  # no writer ever opens it, so a blocking open would hang
    elif os.path.exists(kind):
        path = kind
    else:
        pytest.skip(f"needs {kind}")
    argv = ["region", "--g1-db", "0", "--g2-db", "0", "--schemes", "noma",
            "--config", str(path)]
    _assert_one_line_config_error(argv, "config", preexec_fn=_limit_address_space)


def test_echoed_config_reproduces_output(tmp_path):
    first = tmp_path / "a.csv"
    assert (
        cli.main(
            [
                "sweep", "--mode", "symmetric", "--grid-start-db", "0",
                "--grid-stop-db", "5", "--grid-step-db", "1",
                "--schemes", "noma,rama1", "--splits", "0.25,0.5",
                "--out", str(first),
            ]
        )
        == 0
    )
    cfg = tmp_path / "echo.cfg"
    cfg.write_text(_echoed_config(first))
    second = tmp_path / "b.csv"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["sweep"], "--grid-start-db", "-1e-3"),
        (["region", "--g2-db", "0", "--schemes", "noma"], "--g1-db", "-1E1"),
    ],
)
def test_negative_numbers_in_exponent_form_are_flag_values(argv, flag, value, capsys):
    # argparse alone reads only -digits[.digits] as a negative number.
    spaced = _run([*argv, flag, value], capsys)
    assert spaced[0] == 0
    assert spaced == _run([*argv, f"{flag}={value}"], capsys)


def test_echoed_config_passes_back_as_flags(tmp_path):
    first = tmp_path / "a.csv"
    argv = ["sweep", "--mode", "ratio", "--ratio-anchor-db=-1e-05", "--grid-start-db=-2.5e-05",
            "--grid-stop-db", "0", "--grid-step-db", "1e-05", "--out", str(first)]
    assert cli.main(argv) == 0
    echo = _echoed_config(first)
    assert "ratio_anchor_db = -1e-05" in echo.splitlines()
    flags = []
    for line in echo.splitlines():
        key, _, value = line.partition(" = ")
        if key not in ("version", "command"):
            flags += ["--" + key.replace("_", "-"), value]
    second = tmp_path / "b.csv"
    assert cli.main(["sweep", *flags, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_a_flag_value_that_is_no_number_still_reads_as_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["region", "--g1-db", "-x", "--g2-db", "0", "--schemes", "noma"])
    assert exc.value.code == 2
    assert "argument --g1-db: expected one argument" in capsys.readouterr().err


def test_sweep_defaults_and_header(tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--out", str(out)]) == 0
    rows = _read_rows(out)
    assert list(rows[0]) == ["x_db", "scheme", "split", "sum_rate_bits", "stderr"]
    # default symmetric grid, two schemes, three splits
    assert len(rows) == 51 * 2 * 3
    assert rows[0]["x_db"] == "-10"
    assert all(r["stderr"] == "0" for r in rows)


def test_sweep_ratio_mode_defaults(tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--mode", "ratio", "--out", str(out)]) == 0
    rows = _read_rows(out)
    assert rows[0]["x_db"] == "0"
    assert rows[-1]["x_db"] == "40"


def test_sweep_with_fading_is_byte_deterministic(tmp_path):
    argv = [
        "sweep", "--grid-start-db", "0", "--grid-stop-db", "10",
        "--grid-step-db", "5", "--schemes", "noma", "--splits", "0.5",
        "--fading-samples", "2000", "--seed", "7",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rows = _read_rows(a)
    assert all(float(r["stderr"]) > 0.0 for r in rows)


def test_sweep_seed_changes_fading_output(tmp_path):
    base = [
        "sweep", "--grid-start-db", "0", "--grid-stop-db", "0",
        "--grid-step-db", "1", "--schemes", "noma", "--splits", "0.5",
        "--fading-samples", "500",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli.main(base + ["--seed", "1", "--out", str(a)]) == 0
    assert cli.main(base + ["--seed", "2", "--out", str(b)]) == 0
    assert _read_rows(a)[0]["sum_rate_bits"] != _read_rows(b)[0]["sum_rate_bits"]


def test_sweep_zero_db_values_in_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert (
        cli.main(
            [
                "sweep", "--grid-start-db", "0", "--grid-stop-db", "0",
                "--grid-step-db", "1", "--schemes", "noma,rama1",
                "--splits", "0.5", "--out", str(out),
            ]
        )
        == 0
    )
    rows = _read_rows(out)
    values = {r["scheme"]: float(r["sum_rate_bits"]) for r in rows}
    assert values["noma"] == 1.0
    # ".6g" serialization caps csv precision at ~5e-6 here
    assert abs(values["rama1"] - 1.1699250014423124) <= 1e-5


def test_sweep_rejects_bad_grid(capsys):
    code, _out, err = _run(
        ["sweep", "--grid-start-db", "10", "--grid-stop-db", "0"], capsys
    )
    assert code == 2
    code, _out, err = _run(["sweep", "--grid-step-db", "0"], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "argv, key",
    [
        (["region", "--g1-db", "4000", "--g2-db", "0", "--schemes", "noma"], "g1_db"),
        (["sweep", "--mode", "ratio", "--grid-start-db", "3000",
          "--grid-stop-db", "3000", "--ratio-anchor-db", "100"], "grid_start_db"),
        (["sweep", "--mode", "ratio", "--grid-start-db", "900",
          "--grid-stop-db", "950", "--ratio-anchor-db", "100"], "ratio_anchor_db"),
    ],
)
def test_db_levels_outside_domain_are_config_errors(argv, key):
    _assert_one_line_config_error(argv, key)


@pytest.mark.parametrize(
    "argv, key",
    [
        (["signal-check", "--constellation", "psk", "--order", "100000",
          "--scheme", "rama1"], "order"),
        (["sweep", "--grid-step-db", "1e-12"], "grid_step_db"),
        (["sweep", "--grid-step-db", "5e-324"], "grid_step_db"),
        (["region", "--g1-db", "0", "--g2-db", "0", "--schemes", "oma",
          "--grid-n", "100000"], "grid_n"),
        (["sweep", "--fading-samples", "100000000"], "fading_samples"),
        (["signal-check", "--constellation", "qam", "--order", "16",
          "--scheme", "rama2", "--total-power", "1e308"], "total_power"),
    ],
)
def test_size_caps_are_config_errors(argv, key):
    _assert_one_line_config_error(argv, key)


def test_sweep_grid_cap_is_exact():
    # 0.25 dB steps are exact in binary, so the point count is exact too.
    step = 0.25
    top = (sweep.MAX_GRID_POINTS - 1) * step
    assert len(sweep.build_grid(0.0, top, step)) == sweep.MAX_GRID_POINTS
    with pytest.raises(ValueError, match="grid_step_db"):
        sweep.build_grid(0.0, top + step, step)


# Found by sampling grids that end at 1000 dB: start + i*step rounded the
# last point above grid_stop_db, out of the dB domain.
OVERSHOOT = (-109.67, 1000.0, 73.97800000000001)


def test_sweep_grid_that_rounds_past_its_stop_runs(capsys):
    start, stop, step = (repr(v) for v in OVERSHOOT)
    argv = ["sweep", "--grid-start-db", start, "--grid-stop-db", stop,
            "--grid-step-db", step, "--schemes", "noma"]
    code, out, err = _run(argv, capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].startswith("1000,noma,")


@st.composite
def _grid_bounds(draw):
    a, b = draw(st.floats(-1000.0, 1000.0)), draw(st.floats(-1000.0, 1000.0))
    start, stop = min(a, b), max(a, b)
    step = (stop - start) / draw(st.integers(1, 500)) * draw(st.floats(0.5, 2.0))
    return start, stop, step if step > 0.0 else 1.0


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_grid_bounds())
@example(OVERSHOOT)
def test_sweep_grid_never_passes_its_stop(bounds):
    start, stop, step = bounds
    grid = sweep.build_grid(start, stop, step)
    assert grid[0] == start and grid[-1] <= stop
    unclamped = tuple(start + i * step for i in range(len(grid)))
    if unclamped[-1] <= stop:
        assert grid == unclamped


@pytest.mark.parametrize(
    "argv, key",
    [
        (["signal-check", "--constellation", "psk", "--order", "8",
          "--scheme", "rama1,rama2"], "scheme"),
        (["sweep", "--schemes", "noma,noma"], "schemes"),
        (["region", "--g1-db", "0", "--g2-db", "0", "--schemes", "rama2,noma,rama2"],
         "schemes"),
        # checked by trace_region and SweepConfig, reported under the CLI key
        (["region", "--g1-db", "0", "--g2-db", "0", "--schemes", "noma", "--grid-n", "1"],
         "grid_n"),
        (["sweep", "--fading-samples", "-1"], "fading_samples"),
        # start + i*step rounds to repeated levels, which SweepConfig refuses
        (["sweep", "--grid-start-db", "999.9999999999999", "--grid-stop-db", "1000",
          "--grid-step-db", "1e-14"], "grid_step_db"),
    ],
)
def test_bad_scheme_lists_and_library_checks_are_config_errors(argv, key):
    _assert_one_line_config_error(argv, key)


def test_signal_check_order_cap_is_inclusive(monkeypatch, capsys):
    monkeypatch.setattr(constellations, "MAX_ORDER", 16)
    argv = ["signal-check", "--constellation", "psk", "--scheme", "rama1", "--order"]
    assert _run(argv + ["16"], capsys)[0] == 0
    code, _out, err = _run(argv + ["17"], capsys)
    assert code == 2
    assert "order: 17 is above the cap of 16" in err


def test_signal_check_split_cap_is_inclusive(monkeypatch, capsys):
    # The cap is the default split count at MAX_ORDER: 5 * 16^2 symbol pairs here.
    monkeypatch.setattr(constellations, "MAX_ORDER", 16)
    assert cli.CHECK_TABLE["splits"][2] is transceiver.DEFAULT_CHAIN_SPLITS
    cap = len(transceiver.DEFAULT_CHAIN_SPLITS)
    rama2 = ["signal-check", "--constellation", "psk", "--scheme", "rama2"]
    for order, splits in ((16, cap), (8, 4 * cap)):
        argv = rama2 + ["--order", str(order), "--splits"]
        code, out, _err = _run(argv + [",".join(["0.5"] * splits)], capsys)
        assert code == 0 and out.count("  split 0.5:") == splits
        code, out, err = _run(argv + [",".join(["0.5"] * (splits + 1))], capsys)
        assert (code, out) == (2, "")
        assert err == (f"ramasim: config error: splits: {splits + 1} splits of {order**2} "
                       f"symbol pairs each are {(splits + 1) * order**2} pair checks, "
                       f"above the cap of {cap * 16**2}\n")
    rama1 = ["signal-check", "--constellation", "psk", "--scheme", "rama1", "--order", "16"]
    assert _run(rama1 + ["--splits", ",".join(["0.5"] * (cap + 1))], capsys)[0] == 0


def test_negative_zero_split_prints_as_zero(capsys):
    argv = ["sweep", "--splits=-0", "--schemes", "oma", "--grid-start-db", "0",
            "--grid-stop-db", "0"]
    code, out, _err = _run(argv, capsys)
    assert code == 0
    assert "\n# splits = 0.0\n" in out and out.endswith("\n0,oma,0,1,0\n")
    argv = ["signal-check", "--constellation", "psk", "--order", "8", "--scheme", "rama2",
            "--splits=-0,1"]
    code, out, _err = _run(argv, capsys)
    assert code == 0 and "\n  split 0: " in out and "-0" not in out
    split = sweep.SweepConfig(("oma",), splits=(-0.0,)).splits[0]
    assert math.copysign(1.0, split) == 1.0


def test_db_domain_edges_give_finite_rates(capsys):
    region = ["region", "--g1-db", "1000", "--g2-db", "-1000",
              "--schemes", "oma,noma,rama1,rama2", "--grid-n", "60"]
    ratio = ["sweep", "--mode", "ratio", "--grid-start-db", "-1000",
             "--grid-stop-db", "1000", "--grid-step-db", "1000",
             "--schemes", "noma,reconfig-noma,rama1,rama2,oma"]
    faded = ["sweep", "--grid-start-db", "-1000", "--grid-stop-db", "1000",
             "--grid-step-db", "1000", "--fading-samples", "50",
             "--schemes", "noma,reconfig-noma,rama1,rama2,oma"]
    for argv, first in ((region, 1), (ratio, 3), (faded, 3)):
        code, out, _err = _run(argv, capsys)
        assert code == 0
        body = [ln for ln in out.splitlines() if not ln.startswith("#")][1:]
        assert body
        for line in body:
            values = [float(v) for v in line.split(",")[first:]]
            assert all(math.isfinite(v) and v >= 0.0 for v in values), line


def test_benchmark_tracer_finds_every_hook():
    # the benchmark refuses to run if a layer module has no public function
    # left or a required hook (cli.main, constellations.relate) is unbound
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", REPO / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.Tracer().missing == []


def test_main_reuses_one_parser_without_leaking_state(capsys):
    # One process, six calls: each output must match its golden fixture or a
    # fresh interpreter's bytes, and the unseeded sweep must echo seed 0.
    golden = REPO / "tests" / "golden"
    assert cli._build_parser() is cli._build_parser()

    region = ["region", "--g1-db", "30", "--g2-db", "0",
              "--schemes", "noma,rama2", "--grid-n", "1000"]
    assert _run(region, capsys) == (0, (golden / "region_30_0.csv").read_text(), "")

    seeded = ["sweep", "--seed", "5", "--fading-samples", "20", "--grid-step-db", "10"]
    code, seeded_out, _err = _run(seeded, capsys)
    assert code == 0 and seeded_out == _run_process(seeded).stdout

    signal = ["signal-check", "--constellation", "psk", "--order", "8", "--scheme", "rama2"]
    assert _run(signal, capsys) == (0, (golden / "signal_psk8_rama2.txt").read_text(), "")

    bad = ["region", "--g1-db", "4000", "--g2-db", "0", "--schemes", "noma"]
    proc = _run_process(bad)
    assert _run(bad, capsys) == (2, proc.stdout, proc.stderr)

    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"ramasim {__version__}\n"

    unseeded = ["sweep", "--fading-samples", "20", "--grid-step-db", "10"]
    code, out, _err = _run(unseeded, capsys)
    assert code == 0 and "\n# seed = 0\n" in out and out != seeded_out
    assert out == _run_process(unseeded).stdout


def test_sweep_rejects_bad_split(capsys):
    code, _out, err = _run(["sweep", "--splits", "0.5,1.5"], capsys)
    assert code == 2
    assert "splits" in err


def test_signal_check_rama1_psk_passes(capsys):
    code, out, _err = _run(
        ["signal-check", "--constellation", "psk", "--order", "8",
         "--scheme", "rama1"],
        capsys,
    )
    assert code == 0
    assert "result: PASS" in out
    assert "tolerance 1e-12" in out


def test_signal_check_rama2_qam_passes(capsys):
    code, out, _err = _run(
        ["signal-check", "--constellation", "qam", "--order", "16",
         "--scheme", "rama2", "--splits", "0.1,0.5,0.9"],
        capsys,
    )
    assert code == 0
    assert "result: PASS" in out


def test_signal_check_rama1_qam_is_config_error(capsys):
    code, _out, err = _run(
        ["signal-check", "--constellation", "qam", "--order", "16",
         "--scheme", "rama1"],
        capsys,
    )
    assert code == 2
    assert "psk" in err


def test_signal_check_rejects_bad_order(capsys):
    code, _out, err = _run(
        ["signal-check", "--constellation", "qam", "--order", "12",
         "--scheme", "rama2"],
        capsys,
    )
    assert code == 2
    assert "order" in err


def test_signal_check_report_names_the_setup(capsys):
    code, out, _err = _run(
        ["signal-check", "--constellation", "psk", "--order", "4",
         "--scheme", "rama2", "--total-power", "2.5"],
        capsys,
    )
    assert code == 0
    assert "scheme=rama2" in out
    assert "psk-4" in out
    assert "pairs=16" in out
    # one report line per checked split
    assert out.count("split") >= 5


def test_signal_check_config_file(tmp_path, capsys):
    cfg = tmp_path / "check.cfg"
    cfg.write_text(
        "version = 1\ncommand = signal-check\nconstellation = psk\n"
        "order = 8\nscheme = rama1\n"
    )
    code, out, _err = _run(["signal-check", "--config", str(cfg)], capsys)
    assert code == 0
    assert "result: PASS" in out


def test_unwritable_output_is_runtime_error(capsys):
    code, _out, err = _run(
        ["region", "--g1-db", "0", "--g2-db", "0", "--schemes", "noma",
         "--out", "/nonexistent-dir/out.csv"],
        capsys,
    )
    assert code == 1


def test_refused_input_writes_nothing(tmp_path, capsys):
    # NOMA traces at n = 2049, then OMA is over its point cap: the refusal
    # must come before the config echo or any NOMA row is written.
    argv = ["region", "--g1-db", "0", "--g2-db", "0", "--schemes", "noma,oma",
            "--grid-n", "2049"]
    code, out, err = _run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("ramasim: config error: grid_n: ")
    path = tmp_path / "region.csv"
    code, out, _err = _run([*argv, "--out", str(path)], capsys)
    assert (code, out) == (2, "")
    assert not path.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ["region", "--g1-db", "15", "--g2-db", "5", "--schemes", "noma", "--grid-n", "200000"],
        ["sweep"],
    ],
)
def test_write_error_partway_is_one_line_runtime_error(argv):
    proc = _run_process([*argv, "--out", "/dev/full"])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("ramasim: error: ")


def test_stdout_output_by_default(capsys):
    code, out, _err = _run(
        ["region", "--g1-db", "0", "--g2-db", "0", "--schemes", "noma",
         "--grid-n", "5"],
        capsys,
    )
    assert code == 0
    assert out.startswith("# ramasim region")
    assert "scheme,r1_bits,r2_bits" in out


# --- sweep CSV rows against the one-template-per-row reference ------------------


@st.composite
def _sweep_inputs(draw):
    """(mode, anchor, start, stop, step, schemes, splits, fading samples, seed)."""
    mode = draw(st.sampled_from([sweep.X_AXIS_SYMMETRIC, sweep.X_AXIS_RATIO]))
    anchor, lo, hi = 0.0, -DB_LIMIT, DB_LIMIT
    if mode == sweep.X_AXIS_RATIO:
        anchor = draw(st.one_of(
            st.sampled_from([-DB_LIMIT, 0.0, DB_LIMIT]), st.floats(-DB_LIMIT, DB_LIMIT)
        ))
        lo, hi = max(lo, -DB_LIMIT - anchor), min(hi, DB_LIMIT - anchor)
    level = st.one_of(
        st.sampled_from([lo, hi]), st.floats(max(lo, -60.0), min(hi, 60.0)), st.floats(lo, hi)
    )
    start, stop = sorted((draw(level), draw(level)))
    samples = draw(st.one_of(st.just(0), st.sampled_from([1, 2, 3]), st.integers(4, 50)))
    points = draw(st.integers(1, 8 if samples else 40))
    step = (stop - start) / points if stop > start else 1.0
    schemes = draw(st.lists(st.sampled_from(list(Scheme)), min_size=1, max_size=5, unique=True))
    splits = draw(st.lists(
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), min_size=1, max_size=4
    ))
    seed = draw(st.integers(0, 2**32))
    return mode, anchor, start, stop, step, tuple(schemes), tuple(splits), samples, seed


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_sweep_inputs())
@example((sweep.X_AXIS_SYMMETRIC, 0.0, -DB_LIMIT, DB_LIMIT, 250.0, tuple(Scheme),
          (0.0, 0.25, 1.0), 0, 0))
@example((sweep.X_AXIS_SYMMETRIC, 0.0, -12.5, 3.5, 0.5, (Scheme.OMA, Scheme.NOMA),
          (1.0, 0.0), 3, 7))
@example((sweep.X_AXIS_RATIO, -DB_LIMIT, 0.0, DB_LIMIT, 200.0, tuple(Scheme),
          (0.0, 1.0), 0, 0))
@example((sweep.X_AXIS_RATIO, DB_LIMIT, -DB_LIMIT, 0.0, 250.0, (Scheme.RAMA2,),
          (0.5,), 20, 2**32))
# Every rate, and so every stderr, is 0 at -1000 dB although N > 1.
@example((sweep.X_AXIS_SYMMETRIC, 0.0, -DB_LIMIT, -DB_LIMIT, 1.0, tuple(Scheme),
          (0.0, 0.5, 1.0), 7, 5))
def test_sweep_csv_rows_equal_the_row_template(inputs):
    mode, anchor, start, stop, step, schemes, splits, samples, seed = inputs
    try:
        cfg = sweep.SweepConfig(
            schemes, mode, sweep.build_grid(start, stop, step), splits, samples, seed, anchor
        )
    except ValueError:  # x + anchor rounded just past the dB domain, or repeated levels
        assume(False)
    flags = {"mode": mode, "ratio-anchor-db": repr(anchor), "grid-start-db": repr(start),
             "grid-stop-db": repr(stop), "grid-step-db": repr(step),
             "schemes": ",".join(map(str, schemes)), "splits": ",".join(map(repr, splits)),
             "fading-samples": samples, "seed": seed}
    argv = ["sweep", *(f"--{flag}={value}" for flag, value in flags.items())]  # "=": x < 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    lines = [line for line in out.getvalue().splitlines() if not line.startswith("#")]
    assert lines[0] == "x_db,scheme,split,sum_rate_bits,stderr"
    # The config echo holds the library's keys in the library's encoding.
    echo = out.getvalue().split("# config-begin\n")[1].split("# config-end")[0]
    key = dict(line[2:].split(" = ") for line in echo.splitlines())
    echoed = sweep.SweepConfig(
        key["schemes"].split(","), key["mode"],
        sweep.build_grid(float(key["grid_start_db"]), float(key["grid_stop_db"]),
                         float(key["grid_step_db"])),
        tuple(float(t) for t in key["splits"].split(",")),
        int(key["fading_samples"]), int(key["seed"]), float(key["ratio_anchor_db"]),
    )
    for config in (cfg, echoed):
        rows = sweep.run_sweep(config).rows
        assert lines[1:] == ["%.6g,%s,%.6g,%.6g,%.6g" % row for row in rows]


# --- the %.6g encoder against Python's % -------------------------------------------


def _bits(pattern):
    return float(np.uint64(pattern).view(np.float64))


def _ulps(value):
    """`value` and its two neighbours."""
    return [float(np.nextafter(value, -math.inf)), value, float(np.nextafter(value, math.inf))]


_G6_VALUES = st.one_of(
    st.integers(0, 2**64 - 1).map(_bits),  # NaNs, infinities, -0.0 and subnormals too
    st.builds(lambda f, k: f * 10.0**k, st.floats(1.0, 10.0), st.integers(-5, 7)),
    st.integers(-5, 7).map(lambda k: 10.0**k).flatmap(lambda p: st.sampled_from(_ulps(p))),
    st.integers(100_000, 999_999).map(lambda k: k + 0.5),  # exact ties
    st.builds(lambda k, m: (k + 0.5) / 2**m, st.integers(100_000, 999_999), st.integers(1, 40)),
    # decimal ties, which a double holds only to the nearest binary value
    st.builds(lambda k, j: float(f"{k}5e{j}"), st.integers(100_000, 999_999), st.integers(-10, 0)),
    # a carry into the next decade: 999999.5, 9.999995, ...
    st.integers(-5, 6).map(lambda k: 9.999995 * 10.0**k).flatmap(
        lambda v: st.sampled_from(_ulps(v))),
    st.floats(-DB_LIMIT, 0.0),  # negative sweep x_db
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(_G6_VALUES, min_size=1, max_size=64))
@example([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-3, 1e-4,
          999999.5, 999999.49999999994, 9.999995, 1e6, 0.05, -10.0, 1.7976931348623157e308])
def test_g6_fields_equal_percent_format(values):
    fields = cli._g6(np.array(values))
    assert fields.shape == (len(values), 16) and not fields[:, 0].any()
    texts = [bytes(field).replace(b"\0", b"").decode("ascii") for field in fields]
    assert texts == ["%.6g" % v for v in values]


# --- blocks: region rows against the row template, and one block per write -------

_K = cli._REGION_BLOCK_ROWS


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(list(cli.REGION_SCHEMES)),
    st.sampled_from([1, _K - 1, _K, _K + 1, 2 * _K + 1]).flatmap(
        lambda n: st.tuples(arrays(np.float64, n), arrays(np.float64, n))
    ),
)
def test_region_csv_rows_equal_the_row_template(scheme, frontier):
    r1, r2 = frontier
    blocks = list(cli._region_blocks(scheme, r1, r2))
    assert [block.count("\n") for block in blocks] == [
        min(_K, len(r1) - start) for start in range(0, len(r1), _K)
    ]
    rows = ["%s,%.6g,%.6g\n" % (scheme, a, b) for a, b in zip(r1.tolist(), r2.tolist())]
    assert "".join(blocks) == "".join(rows)


def _sweep_result(points, schemes, splits, fading):
    """A SweepResult of random columns, with random stderrs if `fading`."""
    rng = np.random.default_rng(points)
    shape = (points, len(schemes), len(splits))
    errors = rng.random(shape) if fading else np.zeros(shape)
    grid = tuple(float(x) for x in range(points))
    return sweep.SweepResult(grid, schemes, splits, rng.random(shape), errors)


@pytest.mark.parametrize("fading", [False, True])
@pytest.mark.parametrize("values", [1, 7])
def test_sweep_blocks_are_the_same_bytes_for_any_conversion_size(monkeypatch, fading, values):
    # 10 points of 1, 3 or 10 cells. At 7 values a conversion holds 7 points
    # (1 cell), 3 (1 cell with stderrs), 2 (3 cells) or 1 point.
    for schemes, splits in (((Scheme.OMA,), (0.5,)), ((Scheme.OMA,), (0.0, 0.25, 1.0)),
                            ((Scheme.NOMA, Scheme.RAMA2), tuple(k / 4 for k in range(5)))):
        result = _sweep_result(10, schemes, splits, fading)
        whole = "".join(cli._sweep_blocks(result))
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_SWEEP_CONVERT_VALUES", values)
            assert "".join(cli._sweep_blocks(result)) == whole


def _formatting_peak(result):
    tracemalloc.start()
    try:
        for _block in cli._sweep_blocks(result):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fading", [False, True])
def test_sweep_formatting_memory_does_not_grow_with_the_grid(fading):
    # 5 schemes x 64 splits: 320 or 640 values a point, so 3 points or 1 point
    # a conversion. Each encoded value holds about 130 bytes of arrays and text
    # at the peak; one point's rows are about 13 kB of text.
    splits = tuple(k / 63 for k in range(64))
    few, many = (
        _formatting_peak(_sweep_result(g, tuple(Scheme), splits, fading)) for g in (100, 400)
    )
    assert many <= few + 2**16
    assert many <= 64 * cli._SWEEP_CONVERT_VALUES + 2**17


class _RecordingFile(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize(
    "argv, block_lines",
    [
        (["region", "--g1-db", "15", "--g2-db", "5", "--schemes", "rama1,noma",
          "--grid-n", str(2 * _K + 1)], _K),
        # the split cap: one grid point's 5 * MAX_SPLITS rows are one block
        (["sweep", "--grid-start-db", "0", "--grid-stop-db", "1",
          "--schemes", "noma,reconfig-noma,rama1,rama2,oma",
          "--splits", ",".join(["0.5"] * sweep.MAX_SPLITS)], 5 * sweep.MAX_SPLITS),
        # 51 default grid points of 2 * 3 cells with stderrs: 12 values a point,
        # so one conversion holds every point
        (["sweep", "--schemes", "noma,oma", "--fading-samples", "3"], 51 * 2 * 3),
    ],
)
def test_one_write_holds_at_most_one_block(argv, block_lines):
    fh = _RecordingFile()
    with contextlib.redirect_stdout(fh):
        assert cli.main(argv) == 0
    assert all(block.endswith("\n") for block in fh.writes)
    assert max(block.count("\n") for block in fh.writes) == block_lines
