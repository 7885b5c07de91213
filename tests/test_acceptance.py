"""Release-gate checks for the simulator.

Each test covers one gate and prints a single verdict line with its elapsed
time and budget; run ``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import contextlib
import math
import time

import numpy as np

import ramasim.cli as cli
from ramasim.channel import LinkBudget, from_db
from ramasim.constellations import make_psk, make_qam
from ramasim.rates import (
    SCHEMES,
    Scheme,
    noma_rates,
    noma_sum_symmetric,
    rama1_rates,
    rama1_sum_symmetric,
    reconfig_noma_rates,
)
from ramasim.region import r2_at_r1, trace_region
from ramasim.sweep import (
    DEFAULT_SPLITS,
    SweepConfig,
    X_AXIS_RATIO,
    X_AXIS_SYMMETRIC,
    default_grid,
    run_sweep,
)
from ramasim.transceiver import (
    PowerAllocation,
    rama1_transmit,
    rama2_presplit,
    rama2_transmit,
    superpose,
)


@contextlib.contextmanager
def _criterion(num: int, label: str, budget_s: float):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        verdict = "PASS" if ok and elapsed < budget_s else "FAIL"
        print(
            f"criterion {num} [{label}]: {verdict} "
            f"({elapsed:.2f} s, budget {budget_s:g} s)"
        )
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.2f} s"


def test_criterion_1_asymmetric_frontier_anchors():
    with _criterion(1, "asymmetric frontier anchors", 1.0):
        lb = from_db(30.0, 0.0)
        noma = trace_region("noma", lb, 1000)
        rama2 = trace_region("rama2", lb, 1000)
        assert abs(r2_at_r1(noma, 8.0) - 0.672) <= 0.01
        assert abs(r2_at_r1(rama2, 8.0) - 0.803) <= 0.01


def test_criterion_2_symmetric_corners_and_oma_noma_agreement():
    with _criterion(2, "symmetric corners, oma/noma agreement", 5.0):
        lb = from_db(15.0, 15.0)
        corner = 5.0279
        noma = trace_region("noma", lb, 1000)
        rama2 = trace_region("rama2", lb, 1000)
        oma = trace_region("oma", lb, 2000)
        for region in (oma, noma, rama2):
            assert abs(region.max_r1 - corner) <= 1e-3
            assert abs(region.max_r2 - corner) <= 1e-3
        n1, n2 = noma.r1, noma.r2
        o1, o2 = oma.r1, oma.r2
        # the superposition frontier is the straight line r1 + r2 = cap;
        # the dense orthogonal staircase must match it at every vertex and
        # at every matched r1 in both directions
        cap = float(n1[-1])
        assert np.max(np.abs(o1 + o2 - cap)) <= 1e-3
        assert np.max(np.abs(np.interp(n1, o1, o2) - n2)) <= 1e-3
        assert np.max(np.abs(np.interp(o1, n1, n2) - o2)) <= 1e-3
        for target in np.linspace(0.0, corner - 1e-3, 20):
            assert abs(r2_at_r1(oma, target) - r2_at_r1(noma, target)) <= 1e-3


def test_criterion_3_symmetric_sum_rate_properties():
    with _criterion(3, "symmetric-budget sum-rate identities", 2.0):
        rng = np.random.default_rng(31)
        pg = (10.0 ** (rng.uniform(-20.0, 40.0, 10**5) / 10.0)).tolist()
        splits = rng.random(10**5).tolist()
        for x, frac in zip(pg, splits):
            assert rama1_sum_symmetric(x) > noma_sum_symmetric(x)
            pair = noma_rates(
                PowerAllocation.from_fraction(1.0, frac), LinkBudget(1.0, x, x)
            )
            assert abs(pair.sum_rate - math.log2(1.0 + x)) <= 1e-10


def test_criterion_4_asymmetric_equal_split_dominance():
    with _criterion(4, "asymmetric equal-split dominance", 2.0):
        rng = np.random.default_rng(41)
        n = 10**5
        g = np.sort(10.0 ** (rng.uniform(-20.0, 40.0, (n, 2)) / 10.0), axis=1)
        g1, g2 = g[:, 1], g[:, 0]
        t = 0.5 * (1.0 - rng.random(n))  # splits in (0, 0.5]
        noma_sum = np.sum(SCHEMES[Scheme.NOMA](1.0, t, 1.0 - t, g1, g2, None), axis=0)
        rama_sum = sum(SCHEMES[Scheme.RAMA1](1.0, 0.5, 0.5, g1, g2, None))
        assert np.all(rama_sum >= noma_sum)
        # spot-check the scalar api on a slice of the same draws
        for i in range(0, n, n // 2000):
            lb = LinkBudget(1.0, float(g1[i]), float(g2[i]))
            alloc = PowerAllocation.from_fraction(1.0, float(t[i]))
            assert rama1_rates(1.0, lb).sum_rate >= noma_rates(alloc, lb).sum_rate
        # the guarantee needs the half-power cap: a 0.75 split with a large
        # gain spread lets plain superposition pull ahead
        lb = LinkBudget(1.0, 1000.0, 1.0)
        alloc = PowerAllocation.from_fraction(1.0, 0.75)
        assert noma_rates(alloc, lb).sum_rate > rama1_rates(1.0, lb).sum_rate
        spread = 10.0 ** (rng.uniform(30.0, 40.0, 200) / 10.0)
        wide_noma = np.sum(SCHEMES[Scheme.NOMA](1.0, 0.75, 0.25, spread, 1.0, None), axis=0)
        wide_rama = sum(SCHEMES[Scheme.RAMA1](1.0, 0.5, 0.5, spread, 1.0, None))
        assert np.any(wide_noma > wide_rama)


def test_criterion_5_transmit_chain_exactness():
    with _criterion(5, "transmit-chain exactness and power budget", 1.0):
        p = 1.0
        psk = make_psk(8)
        pairs8 = [(a, b) for a in psk.points for b in psk.points]
        amp = math.sqrt(0.5 * p)
        chain = max(
            abs(rama1_transmit(s1, s2, p).tsa2 - amp * s2) for s1, s2 in pairs8
        )
        assert chain <= 1e-12
        mean_power = math.fsum(
            rama1_transmit(s1, s2, p).total_power() for s1, s2 in pairs8
        ) / len(pairs8)
        assert abs(mean_power - p) <= 1e-12
        alloc = PowerAllocation.from_fraction(p, 0.3)
        sp = math.fsum(
            abs(superpose(s1, s2, alloc)) ** 2 for s1, s2 in pairs8
        ) / len(pairs8)
        assert abs(sp - p) <= 1e-12
        qam = make_qam(16)
        pairs16 = [(a, b) for a in qam.points for b in qam.points]
        for split in (0.1, 0.3, 0.5, 0.7, 0.9):
            alloc = PowerAllocation.from_fraction(p, split)
            amp2 = math.sqrt(alloc.p2)
            chain = max(
                abs(rama2_transmit(s1, s2, alloc).tsa2 - amp2 * s2)
                for s1, s2 in pairs16
            )
            assert chain <= 1e-12
            mean_power = math.fsum(
                abs(rama2_presplit(s1, s2, alloc)) ** 2 for s1, s2 in pairs16
            ) / len(pairs16)
            assert abs(mean_power - p) <= 1e-12


def test_criterion_6_beam_division_penalty():
    with _criterion(6, "beam-division rate penalty", 1.0):
        rng = np.random.default_rng(61)
        n = 10**4
        g = np.sort(10.0 ** (rng.uniform(-20.0, 40.0, (n, 2)) / 10.0), axis=1)
        powers = (10.0 ** rng.uniform(-1.0, 1.0, n)).tolist()
        fracs = rng.uniform(0.01, 0.99, n).tolist()
        alphas = rng.uniform(0.01, 0.99, n).tolist()
        for g1, g2, p, frac, alpha in zip(
            g[:, 1].tolist(), g[:, 0].tolist(), powers, fracs, alphas
        ):
            lb = LinkBudget(p, g1, g2)
            alloc = PowerAllocation.from_fraction(p, frac)
            base = noma_rates(alloc, lb)
            cut = reconfig_noma_rates(alloc, lb, alpha)
            assert cut.r1 < base.r1
            assert cut.r2 < base.r2


def test_criterion_7_default_sweep_dominance():
    with _criterion(7, "default sweep dominance and gap growth", 1.0):
        sym = run_sweep(SweepConfig(schemes=("noma", "rama1")))
        noma = {
            (r.x_db, r.split): r.sum_rate for r in sym.rows if r.scheme is Scheme.NOMA
        }
        rama = {
            (r.x_db, r.split): r.sum_rate for r in sym.rows if r.scheme is Scheme.RAMA1
        }
        assert all(rama[key] >= noma[key] for key in noma)
        for split in DEFAULT_SPLITS:
            gaps = [
                rama[(x, split)] - noma[(x, split)]
                for x in default_grid(X_AXIS_SYMMETRIC)
            ]
            assert all(b > a for a, b in zip(gaps, gaps[1:]))
        ratio = run_sweep(SweepConfig(schemes=("noma", "rama1"), x_axis=X_AXIS_RATIO))
        rnoma = {
            (r.x_db, r.split): r.sum_rate
            for r in ratio.rows
            if r.scheme is Scheme.NOMA and r.split <= 0.5
        }
        rrama = {
            (r.x_db, r.split): r.sum_rate
            for r in ratio.rows
            if r.scheme is Scheme.RAMA1 and r.split <= 0.5
        }
        assert all(rrama[key] >= rnoma[key] for key in rnoma)


def test_criterion_8_byte_deterministic_csv(tmp_path):
    with _criterion(8, "byte-deterministic csv output", 10.0):
        sweep_argv = [
            "sweep", "--grid-start-db", "0", "--grid-stop-db", "10",
            "--grid-step-db", "5", "--schemes", "noma,rama1",
            "--splits", "0.25,0.5", "--fading-samples", "2000", "--seed", "7",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(sweep_argv + ["--out", str(a)]) == 0
        assert cli.main(sweep_argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        region_argv = [
            "region", "--g1-db", "15", "--g2-db", "15",
            "--schemes", "oma,noma,rama1,rama2", "--grid-n", "300",
        ]
        c, d = tmp_path / "c.csv", tmp_path / "d.csv"
        assert cli.main(region_argv + ["--out", str(c)]) == 0
        assert cli.main(region_argv + ["--out", str(d)]) == 0
        assert c.read_bytes() == d.read_bytes()
