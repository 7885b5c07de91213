"""Byte-for-byte replay of CSVs recorded under tests/golden/.

The fixtures pin the exact output of the region and sweep commands, so a
refactor of the rate, region or sweep layers that changes any printed
digit, row order or config-echo line fails here. Never regenerate them to
make this test pass: a mismatch means the code under test changed its
numbers.
"""

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
