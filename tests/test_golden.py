"""Byte-for-byte replay of outputs recorded under tests/golden/.

The fixtures pin the exact output of the region and sweep commands (CSV
files), of signal-check (reports on stdout), of every ``--help`` page and
of the refusal surface (``config_errors.txt``: one refused argv per line
with its exit code and its one stderr line), so a refactor that changes
any printed digit, row order, config-echo line, help line or error message
fails here. The signal-check reports print rounding errors
near 1e-16, so they also pin the chain arithmetic bit for bit. Never
regenerate them to make this test pass: a mismatch means the code under
test changed its output.
"""

import json
from pathlib import Path

import pytest

import ramasim.cli as cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "region_30_0.csv": [
        "region", "--g1-db", "30", "--g2-db", "0",
        "--schemes", "noma,rama2", "--grid-n", "1000",
    ],
    "region_15_15.csv": [
        "region", "--g1-db", "15", "--g2-db", "15",
        "--schemes", "oma,noma,rama1,rama2", "--grid-n", "300",
    ],
    "sweep_ratio.csv": [
        "sweep", "--mode", "ratio", "--schemes", "noma,reconfig-noma,rama1,rama2,oma",
    ],
    "sweep_fading.csv": [
        "sweep", "--schemes", "noma,reconfig-noma,rama1,rama2,oma",
        "--fading-samples", "2000", "--seed", "7",
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_bytes(name, tmp_path):
    out = tmp_path / name
    assert cli.main(CASES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


SIGNAL_CASES = {
    "signal_qam64_rama2.txt": [
        "signal-check", "--constellation", "qam", "--order", "64",
        "--scheme", "rama2", "--total-power", "1.859",
    ],
    "signal_psk128_rama1.txt": [
        "signal-check", "--constellation", "psk", "--order", "128",
        "--scheme", "rama1", "--total-power", "0.742",
    ],
    "signal_qam16_rama2_splits.txt": [
        "signal-check", "--constellation", "qam", "--order", "16",
        "--scheme", "rama2", "--splits", "0,0.25,1",
    ],
    "signal_psk8_rama2.txt": [
        "signal-check", "--constellation", "psk", "--order", "8", "--scheme", "rama2",
    ],
}


@pytest.mark.parametrize("name", sorted(SIGNAL_CASES))
def test_signal_check_matches_golden_report(name, capsys):
    assert cli.main(SIGNAL_CASES[name]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


HELP_CASES = {
    "help_ramasim.txt": [],
    "help_region.txt": ["region"],
    "help_sweep.txt": ["sweep"],
    "help_signal_check.txt": ["signal-check"],
}


@pytest.mark.parametrize("name", sorted(HELP_CASES))
def test_help_matches_golden_page(name, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    with pytest.raises(SystemExit) as exc:
        cli.main(HELP_CASES[name] + ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / name).read_bytes()


# One JSON object per line: argv, the config file text it reads as
# ramasim.cfg (or null), exit code and stderr line. Each argv has one fault.
REFUSALS = [json.loads(line) for line in (GOLDEN / "config_errors.txt").read_text().splitlines()]


@pytest.mark.parametrize("case", REFUSALS, ids=[f"line{n}" for n in range(1, len(REFUSALS) + 1)])
def test_refused_argv_matches_golden_error(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if case["config"] is not None:
        (tmp_path / "ramasim.cfg").write_text(case["config"])
    assert cli.main(case["argv"]) == case["exit"]
    out, err = capsys.readouterr()
    assert (out, err) == ("", case["stderr"] + "\n")
