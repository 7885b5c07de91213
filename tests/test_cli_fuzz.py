"""Fuzz the command line in-process: every argv ends in exit 0, 1 or 2.

Each flag takes a valid value three times in four, else a bad one: a dB
level outside the +-1000 dB domain, a size one above its cap, a
non-number or an out-of-range value. Flags whose cost does not grow with
their value sometimes take an arbitrary float instead. Required flags are sometimes left
out, flags come in any order, and unknown flags or stray tokens are
sometimes appended. A value that would make a slow but valid run (a large
grid, order, sample count or signal-check split count) appears only just
above its cap, where the command stops before it allocates, so every
example stays fast; the caps themselves are pinned by the exact-cap tests in
test_cli.py and test_region.py.
"""

import contextlib
import io
import math
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

import ramasim.cli as cli
from ramasim.channel import MAX_PG
from ramasim.constellations import MAX_ORDER
from ramasim.region import MAX_REGION_POINTS
from ramasim.sweep import MAX_FADING_SAMPLES, MAX_GRID_POINTS, MAX_SPLITS
from ramasim.transceiver import DEFAULT_CHAIN_SPLITS

MISSING_DIR = os.path.join(tempfile.gettempdir(), "ramasim-no-such-dir")

JUNK = ["abc", "", "nan", "inf", "1e999", "0x10", "1,2", "-1e309"]
DB = (["0", "15", "-10", "40", "1000", "-1000"],
      ["1000.5", "-1000.5", "4000"] + JUNK)
SPLITS = (["0.25,0.5", "0,1", "0.5", "0, 0.75"],
          ["1.5", "-0.1", ",", "0.5,,0.7", "0,nan"] + JUNK)
OUT = (["-"], [os.path.join(MISSING_DIR, "out.csv")])

OMA_CAP_N = math.isqrt(MAX_REGION_POINTS)  # largest OMA grid_n

REGION_FLAGS = {
    "--g1-db": DB,
    "--g2-db": DB,
    "--schemes": (["noma", "rama1,rama2", "oma,noma", "oma,noma,rama1,rama2"],
                  ["reconfig-noma", "laser", "noma,", ","]),
    "--grid-n": (["2", "50", "300"],
                 ["1", "0", "-5", "1.5", str(OMA_CAP_N + 1), str(MAX_REGION_POINTS + 1)] + JUNK),
    "--out": OUT,
}
REGION_REQUIRED = ("--g1-db", "--g2-db", "--schemes")

SWEEP_FLAGS = {
    "--mode": (["symmetric", "ratio"], ["diagonal", ""]),
    "--schemes": (["noma,rama1", "noma,reconfig-noma,rama1,rama2,oma", "oma"],
                  ["laser", "noma,,rama1", ""]),
    "--splits": (SPLITS[0], SPLITS[1] + [",".join(["0.5"] * (MAX_SPLITS + 1))]),
    "--fading-samples": (["0", "1", "2", "20"], ["-1", "1.5", str(MAX_FADING_SAMPLES + 1)] + JUNK),
    "--seed": (["0", "5", "-1", str(2**64), "99999999999999999999999"], JUNK),
    "--ratio-anchor-db": DB,
    "--out": OUT,
}

# (start, stop, step) for the sweep grid; None leaves the flag out. The
# default symmetric grid spans 50 dB, so 0.005 dB steps give one point more
# than the cap, and so does 0..MAX_GRID_POINTS dB in 1 dB steps.
SWEEP_GRIDS = (
    [(None, None, None), ("-10", "40", "10"), ("0", "0", "1"), ("-1000", "1000", "1000"),
     (None, None, "2.5")],
    [("10", "0", None), ("3000", "3000", None), (None, "1000.5", None),
     ("-1000.5", None, "5"), (None, None, "0"), (None, None, "-1"), (None, None, "5e-324"),
     (None, None, "1e-12"), (None, None, "0.005"), ("0", str(MAX_GRID_POINTS), "1"),
     (None, None, "abc")],
)

SIGNAL_FLAGS = {
    "--constellation": (["psk", "qam"], ["ask", ""]),
    "--order": (["2", "4", "8", "16"], ["3", "0", "-4", "1.5", str(MAX_ORDER + 1)] + JUNK),
    "--scheme": (["rama1", "rama2"], ["noma", "rama1,rama2", ""]),
    "--splits": SPLITS,
    "--total-power": (["1", "0.5", str(MAX_PG), "1e-308", "5e-324"],
                      ["0", "-1", "1e306", "1e308", repr(MAX_PG * 1.000001), "abc"]),
}
SIGNAL_REQUIRED = ("--constellation", "--order", "--scheme")

# Flags whose cost does not grow with the value also take any float, drawn
# the way hypothesis draws them: extremes, subnormals, nan and inf included.
ANY_FLOAT = ("--g1-db", "--g2-db", "--ratio-anchor-db", "--splits", "--total-power")

STRAY = [["--bogus"], ["--bogus", "1"], ["--seed", "3"], ["--order", "4"], ["extra"], ["-x"],
         ["--config", os.path.join(MISSING_DIR, "ramasim.cfg")]]


def _value(draw, pools, name=None):
    valid, bad = pools
    pick = draw(st.integers(0, 7))
    if pick == 0 and name in ANY_FLOAT:
        return repr(draw(st.floats()))
    return draw(st.sampled_from(bad if pick < 2 else valid))


@st.composite
def _command_argv(draw, command, flags, required):
    dropped = None
    if required and draw(st.integers(0, 7)) == 0:
        dropped = draw(st.sampled_from(required))
    names = [name for name in flags
             if name != dropped and (name in required or draw(st.booleans()))]
    pairs = [[name, _value(draw, flags[name], name)] for name in names]
    argv = [command] + [token for pair in draw(st.permutations(pairs)) for token in pair]
    if command == "sweep":
        names = ("--grid-start-db", "--grid-stop-db", "--grid-step-db")
        for name, value in zip(names, _value(draw, SWEEP_GRIDS)):
            if value is not None:
                argv += [name, value]
    return argv + draw(st.sampled_from([[]] * 6 * len(STRAY) + STRAY))


# signal-check's work, splits x order^2, one split above its cap at the largest order
CHAIN_OVER_CAP = ["signal-check", "--constellation", "qam", "--order", str(MAX_ORDER), "--scheme",
                  "rama2", "--splits", ",".join(["0.5"] * (len(DEFAULT_CHAIN_SPLITS) + 1))]

_ARGV = st.one_of(
    _command_argv("region", REGION_FLAGS, REGION_REQUIRED),
    _command_argv("sweep", SWEEP_FLAGS, ()),
    _command_argv("signal-check", SIGNAL_FLAGS, SIGNAL_REQUIRED),
    st.sampled_from([[], ["--version"], ["--help"], ["frobnicate"], ["sweep", "--help"],
                     CHAIN_OVER_CAP]),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_ARGV)
# Found by this test: squaring chain amplitudes overflowed in a traceback.
@example(["signal-check", "--constellation", "qam", "--order", "16", "--scheme", "rama2",
          "--total-power", "1e308"])
def test_every_argv_ends_in_exit_0_1_or_2_without_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: usage errors, --help, --version
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if code and not err.getvalue().startswith("usage:"):
        # a refused input reports one line; a failed signal check reports on stdout
        lines = err.getvalue().splitlines()
        assert len(lines) <= 1 and all(ln.startswith("ramasim: ") for ln in lines), argv
