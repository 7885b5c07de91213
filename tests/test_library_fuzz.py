"""Fuzz the library entry points the commands call: finite values or ValueError.

Every call runs with all warnings turned into errors and without
``np.errstate``, so an overflow or an invalid operation fails the test
instead of leaking an inf or a NaN. Floats span the whole domain: NaN,
+-inf, 1e308 and subnormals included. Sizes stay small (orders up to 16 for
the chain check, at most 20 sweep grid points, n <= 40 for regions), so the
whole file runs in a few seconds; the caps are pinned by direct tests.
"""

import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramasim.channel import MAX_PG, from_db
from ramasim.constellations import MAX_ORDER, make_psk, make_qam
from ramasim.rates import Scheme
from ramasim.region import trace_region
from ramasim.sweep import (
    MAX_FADING_SAMPLES,
    X_AXIS_RATIO,
    X_AXIS_SYMMETRIC,
    SweepConfig,
    build_grid,
    run_sweep,
)
from ramasim.transceiver import verify_chain

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)

EDGES = [math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -5e-324, 0.0, -0.0,
         MAX_PG, 1000.0, -1000.0]
ANY_FLOAT = st.one_of(st.floats(), st.sampled_from(EDGES))
# dB levels: inside the +-1000 dB domain, near it, or anywhere
LEVEL = st.one_of(st.floats(-1000.0, 1000.0), st.floats(-1100.0, 1100.0), ANY_FLOAT)


def _call(fn, *args):
    """fn(*args) with warnings as errors; None if it raised ValueError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return fn(*args)
        except ValueError:
            return None


def _refuses(key, fn, *args) -> bool:
    """True if fn(*args) raises a ValueError whose message opens with `key:`."""
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc).startswith(f"{key}: ")
    return False


def _all_finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


@FUZZ
@given(st.sampled_from([make_psk, make_qam]),
       st.one_of(st.integers(-10, MAX_ORDER + 1), ANY_FLOAT))
@example(make_psk, 8.0)
@example(make_qam, 16.0)
def test_constellation_builders(make, order):
    if isinstance(order, float):
        assert _refuses("order", make, order)
        return
    const = _call(make, order)
    if const is not None:
        assert len(const.points) == order <= MAX_ORDER
        assert all(math.isfinite(s.real) and math.isfinite(s.imag) for s in const.points)


@st.composite
def _small_constellations(draw):
    if draw(st.booleans()):
        return make_psk(draw(st.integers(2, 16)))
    return make_qam(draw(st.sampled_from([4, 16])))


@FUZZ
@given(
    _small_constellations(),
    st.sampled_from(["rama1", "rama2"]),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    ANY_FLOAT,
)
# verify_chain once returned ((nan, nan),) for p = NaN and overflowed at 1e308.
@example(make_qam(16), "rama2", [0.5], math.nan)
@example(make_qam(16), "rama2", [0.5], 1e308)
def test_verify_chain(const, scheme, splits, p):
    errors = _call(verify_chain, const, scheme, tuple(splits), p)
    if errors is not None:
        assert 0.0 < p <= MAX_PG
        assert _all_finite(errors)


@FUZZ
@given(st.one_of(st.integers(), ANY_FLOAT), st.one_of(st.integers(), ANY_FLOAT))
@example(2.5, 1)
@example(2, 1.5)
def test_fading_config(num_samples, seed):
    args = ((Scheme.NOMA,), X_AXIS_SYMMETRIC, None, (0.5,), num_samples, seed)
    if isinstance(num_samples, float):
        assert _refuses("fading_samples", SweepConfig, *args)
    elif isinstance(seed, float):
        assert _refuses("seed", SweepConfig, *args)
    else:
        cfg = _call(SweepConfig, *args)
        assert (cfg is not None) == (0 <= num_samples <= MAX_FADING_SAMPLES)  # 0 = no fading


@st.composite
def _sweeps(draw):
    start, stop = sorted([draw(LEVEL), draw(LEVEL)])
    even = (stop - start) / draw(st.integers(1, 19))
    step = draw(st.one_of(st.just(even), ANY_FLOAT))
    schemes = draw(st.lists(st.sampled_from(list(Scheme)), min_size=1, max_size=5, unique=True))
    splits = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
    fading = draw(st.one_of(st.just((0, 0)), st.tuples(st.integers(1, 4), st.integers())))
    x_axis = draw(st.sampled_from([X_AXIS_SYMMETRIC, X_AXIS_RATIO]))
    hole = draw(st.one_of(st.none(), LEVEL))  # a level put after the grid's first
    return (start, stop, step), schemes, x_axis, splits, fading, draw(LEVEL), hole


@FUZZ
@given(_sweeps())
# A NaN inside the grid once passed SweepConfig and failed in run_sweep.
@example(((0.0, 2.0, 1.0), [Scheme.NOMA], X_AXIS_SYMMETRIC, [0.5], (0, 0), 0.0, math.nan))
def test_build_grid_then_sweep(setup):
    bounds, schemes, x_axis, splits, fading, anchor, hole = setup
    grid = _call(build_grid, *bounds)
    if grid is None or len(grid) > 20:
        return
    assert _all_finite(grid)
    if hole is not None:
        grid = grid[:1] + (hole,) + grid[1:]
    cfg = _call(SweepConfig, schemes, x_axis, grid, splits, *fading, anchor)
    if cfg is None:
        return
    result = _call(run_sweep, cfg)
    assert result is not None
    assert _all_finite([(row.sum_rate, row.stderr) for row in result.rows])


@FUZZ
@given(st.sampled_from(list(Scheme)), LEVEL, LEVEL, st.one_of(st.integers(-2, 40), ANY_FLOAT))
@example(Scheme.NOMA, 0.0, 0.0, 2.5)
def test_trace_region(scheme, g1_db, g2_db, n):
    lb = _call(from_db, g1_db, g2_db)
    if lb is None:
        return
    if isinstance(n, float) and scheme is not Scheme.RECONFIG_NOMA:
        assert _refuses("grid_n", trace_region, scheme, lb, n)
        return
    region = _call(trace_region, scheme, lb, n)
    if region is not None:
        assert _all_finite(region.r1) and _all_finite(region.r2)
