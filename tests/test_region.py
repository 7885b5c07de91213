import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramasim.channel import DB_LIMIT, LinkBudget, from_db
from ramasim.rates import SCHEMES, Scheme
import ramasim.region as region_module
from ramasim.region import (
    PREFILTER_BINS,
    RateRegion,
    _frontier,
    _prefilter,
    r2_at_r1,
    trace_region,
)

REGION_SCHEMES = (Scheme.OMA, Scheme.NOMA, Scheme.RAMA1, Scheme.RAMA2)


def _front(points):
    r1 = np.array([a for a, _ in points])
    r2 = np.array([b for _, b in points])
    region = _frontier(Scheme.NOMA, r1, r2)
    return list(zip(region.r1.tolist(), region.r2.tolist()))


def test_pareto_filter_drops_dominated_points():
    pts = [(1.0, 1.0), (2.0, 2.0), (0.5, 3.0), (2.0, 0.5)]
    assert _front(pts) == [(0.5, 3.0), (2.0, 2.0)]


def test_pareto_filter_keeps_incomparable_points():
    pts = [(2.0, 1.0), (1.0, 2.0), (1.5, 1.5)]
    assert _front(pts) == [(1.0, 2.0), (1.5, 1.5), (2.0, 1.0)]


def test_pareto_filter_exact_duplicates_survive():
    # duplicates are >= in both coordinates but > in neither: the point stays, once
    assert _front([(1.0, 1.0), (1.0, 1.0)]) == [(1.0, 1.0)]
    assert _front([(1.0, 1.0)]) == [(1.0, 1.0)]


def test_pareto_filter_equal_r1_keeps_only_max_r2():
    pts = [(1.0, 2.0), (1.0, 1.0), (0.5, 2.5)]
    assert _front(pts) == [(0.5, 2.5), (1.0, 2.0)]


_value = st.sampled_from([0.0, 0.25, 0.5, 0.5000000000000001, 1.0, 1.75, 2.0])


def _dominance_frontier(points):
    """O(n^2) reference: the distinct points no other point dominates, r1 ascending."""
    distinct = set(points)
    return sorted(
        (a, b) for a, b in distinct
        if not any(c >= a and d >= b and (c, d) != (a, b) for c, d in distinct)
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(_value, _value), min_size=1, max_size=40))
@example([(1.0, 0.25), (1.0, 2.0), (1.0, 2.0), (1.0, 0.0)])  # constant r1
@example([(0.25, 1.0), (2.0, 1.0), (0.5, 1.0), (2.0, 1.0)])  # constant r2
@example([(0.5, 1.75), (0.5000000000000001, 1.75), (0.5, 2.0)])  # ties one ulp apart
def test_frontier_equals_brute_force_dominance_bit_for_bit(points):
    got = _front(points)
    want = _dominance_frontier(points)
    assert [(a.hex(), b.hex()) for a, b in got] == [(a.hex(), b.hex()) for a, b in want]


def test_rate_region_invariant_checks():
    with pytest.raises(ValueError, match="strictly increasing"):
        RateRegion(Scheme.NOMA, [1.0, 1.0], [1.0, 0.5])
    with pytest.raises(ValueError, match="nonincreasing"):
        RateRegion(Scheme.NOMA, [1.0, 2.0], [1.0, 1.5])
    with pytest.raises(ValueError, match="nonempty"):
        RateRegion(Scheme.NOMA, [], [])
    with pytest.raises(ValueError, match="equal length"):
        RateRegion(Scheme.NOMA, [1.0, 2.0], [1.0])
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            RateRegion(Scheme.NOMA, [0.0, 1.0], [1.0, bad])
    source = np.array([0.0, 1.0])
    region = RateRegion(Scheme.NOMA, source, [2.0, 0.0])
    source[0] = 5.0  # the region keeps its own copy
    assert region.r1.tolist() == [0.0, 1.0]
    with pytest.raises(ValueError):
        region.r1[0] = 0.5


def test_trace_region_rejects_unknown_and_untraceable_schemes():
    lb = from_db(10.0, 10.0)
    with pytest.raises(ValueError, match="^scheme: 'bogus' is not one of noma, reconfig-noma, "
                                         "rama1, rama2, oma$"):
        trace_region("bogus", lb, 10)
    with pytest.raises(ValueError, match="not defined"):
        trace_region(Scheme.RECONFIG_NOMA, lb, 10)
    with pytest.raises(ValueError, match=">= 2"):
        trace_region(Scheme.NOMA, lb, 1)
    with pytest.raises(ValueError, match="^grid_n: grid resolution n = 2.5 is not an integer$"):
        trace_region(Scheme.NOMA, lb, 2.5)


def test_rama1_region_is_single_point():
    lb = from_db(15.0, 15.0)
    region = trace_region(Scheme.RAMA1, lb, 1000)
    assert region.r1.size == region.r2.size == 1
    expected = math.log2(1 + 10**1.5 / 2)
    assert math.isclose(region.r1[0], expected, rel_tol=1e-12)
    assert math.isclose(region.r2[0], expected, rel_tol=1e-12)


@pytest.mark.parametrize("scheme", [Scheme.NOMA, Scheme.RAMA2, Scheme.OMA])
def test_symmetric_corners_reach_single_user_capacity(scheme):
    lb = from_db(15.0, 15.0)
    region = trace_region(scheme, lb, 400)
    corner = math.log2(1 + 10**1.5)  # oracle: 5.0278076733505195
    assert abs(region.max_r1 - corner) <= 1e-9
    assert abs(region.max_r2 - corner) <= 1e-9
    assert region.r2[-1] == 0.0
    assert region.r1[0] == 0.0


def test_noma_symmetric_frontier_is_constant_sum():
    lb = from_db(15.0, 15.0)
    region = trace_region(Scheme.NOMA, lb, 500)
    total = math.log2(1 + lb.pg1)
    for r1, r2 in zip(region.r1, region.r2):
        assert abs(r1 + r2 - total) <= 1e-10


def test_oma_frontier_matches_noma_line_when_symmetric():
    # with a dense enough bandwidth/split grid the staircase sits within
    # 1e-3 of the straight superposition frontier r1 + r2 = log2(1 + p*g);
    # the worst gap is at the edges and shrinks like 1/n
    lb = from_db(15.0, 15.0)
    cap = math.log2(1.0 + 10.0**1.5)
    oma = trace_region(Scheme.OMA, lb, 1500)
    gap = cap - (oma.r1 + oma.r2)
    assert float(np.max(gap)) <= 1e-3
    assert float(np.min(gap)) >= -1e-9  # never above the capacity line


def test_asymmetric_frontier_anchors():
    lb = from_db(30.0, 0.0)
    noma = trace_region(Scheme.NOMA, lb, 1000)
    rama2 = trace_region(Scheme.RAMA2, lb, 1000)
    assert abs(r2_at_r1(noma, 8.0) - 0.672) <= 0.01
    assert abs(r2_at_r1(rama2, 8.0) - 0.803) <= 0.01
    assert r2_at_r1(rama2, 8.0) > r2_at_r1(noma, 8.0)


def test_noma_handles_swapped_user_strength():
    flipped = trace_region(Scheme.NOMA, from_db(0.0, 30.0), 500)
    normal = trace_region(Scheme.NOMA, from_db(30.0, 0.0), 500)
    assert abs(flipped.max_r2 - normal.max_r1) <= 1e-9
    assert abs(flipped.max_r1 - normal.max_r2) <= 1e-9
    # the strong user keeps the interference-free corner either way
    assert math.isclose(flipped.max_r2, math.log2(1001), rel_tol=1e-12)


def test_region_containment_oma_noma_rama2():
    rng = np.random.default_rng(71)
    budgets = [from_db(30.0, 0.0), from_db(15.0, 15.0)]
    budgets += [
        LinkBudget(1.0, *sorted(10 ** rng.uniform(-1, 3.5, 2), reverse=True))
        for _ in range(3)
    ]
    for lb in budgets:
        noma = trace_region(Scheme.NOMA, lb, 500)
        oma = trace_region(Scheme.OMA, lb, 500)
        rama2 = trace_region(Scheme.RAMA2, lb, 500)
        step = max(1, oma.r1.size // 200)
        for r1, r2 in zip(oma.r1[::step], oma.r2[::step]):
            if r1 <= noma.max_r1:
                assert r2_at_r1(noma, r1) >= r2 - 1e-3
        for r1, r2 in zip(noma.r1, noma.r2):
            assert r2_at_r1(rama2, r1) >= r2 - 1e-9


def test_rama2_widens_noma_by_about_twice_at_mid_rate():
    # at the symmetric 15 dB budget, the full-CSI region roughly doubles
    # the strong user's rate at r2 = 2.5 bits/s/Hz
    lb = from_db(15.0, 15.0)
    noma = trace_region(Scheme.NOMA, lb, 2000)
    rama2 = trace_region(Scheme.RAMA2, lb, 2000)

    def r1_at_r2(region, target):
        f2 = region.r2[::-1]
        f1 = region.r1[::-1]
        return float(np.interp(target, f2, f1))

    ratio = r1_at_r2(rama2, 2.5) / r1_at_r2(noma, 2.5)
    assert 1.8 <= ratio <= 2.1


def test_frontier_converges_with_grid_resolution():
    lb = from_db(30.0, 0.0)
    for scheme in (Scheme.NOMA, Scheme.RAMA2):
        coarse = trace_region(scheme, lb, 1000)
        fine = trace_region(scheme, lb, 2000)
        targets = np.linspace(0.0, min(coarse.max_r1, fine.max_r1), 257)
        worst = max(abs(r2_at_r1(coarse, t) - r2_at_r1(fine, t)) for t in targets)
        assert worst < 1e-3


def test_r2_at_r1_endpoints_and_range():
    lb = from_db(15.0, 15.0)
    region = trace_region(Scheme.NOMA, lb, 300)
    assert r2_at_r1(region, 0.0) == region.max_r2
    assert r2_at_r1(region, region.max_r1) == region.r2[-1]
    single = trace_region(Scheme.RAMA1, lb, 300)
    assert r2_at_r1(single, 0.0) == single.max_r2
    with pytest.raises(ValueError, match="outside"):
        r2_at_r1(region, region.max_r1 + 0.1)
    with pytest.raises(ValueError, match="outside"):
        r2_at_r1(region, -0.5)
    with pytest.raises(ValueError, match="^r1_target nan outside"):
        r2_at_r1(region, math.nan)


def test_trace_region_caps_allocation_points(monkeypatch):
    monkeypatch.setattr(region_module, "MAX_REGION_POINTS", 100)
    lb = from_db(10.0, 10.0)
    trace_region("oma", lb, 10)  # 100 points: at the cap, so it traces
    trace_region("noma", lb, 100)
    with pytest.raises(ValueError, match="n = 11 gives 121 oma allocation points"):
        trace_region("oma", lb, 11)
    with pytest.raises(ValueError, match="n = 101 gives 101 noma allocation points"):
        trace_region("noma", lb, 101)


def test_trace_region_on_a_gain_above_the_db_scale_names_the_gain():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="gamma1"):
            trace_region("oma", LinkBudget(1.0, 1e308, 1.0), 10)


def _unstreamed(scheme, lb, n):
    """Reference trace: the whole grid at once, then the exact frontier pass."""
    t = np.linspace(0.0, 1.0, n)
    band = None
    if scheme is Scheme.OMA:
        band, t = np.meshgrid(t, t, indexing="ij")
    r1, r2 = SCHEMES[scheme](lb.p, t * lb.p, (1.0 - t) * lb.p, lb.gamma1, lb.gamma2, band)
    return _frontier(scheme, np.ravel(r1), np.ravel(r2))


def _hex(values):
    return [v.hex() for v in values.tolist()]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.floats(-DB_LIMIT, DB_LIMIT),
    st.one_of(st.none(), st.floats(-DB_LIMIT, DB_LIMIT)),  # None: symmetric, exact ties
    st.integers(2, 400),
    st.integers(1, 401 * 400),  # BLOCK_POINTS: OMA rows max(1, block // n), 1-D chunks block
)
@example(15.0, None, 400, 2**16)  # the default block: 163 OMA rows, one 1-D block
@example(30.0, 0.0, 12, 48)  # n a multiple of the 4 OMA rows
@example(3.0, 12.0, 13, 52)  # n off a multiple of the 4 OMA rows
@example(-10.0, 40.0, 7, 63)  # one block, n below the 9 OMA rows
@example(20.0, 5.0, 400, 100)  # one-row OMA blocks, four 1-D chunks
@example(5.0, 20.0, 399, 7)  # 1-D chunks off a multiple
@example(-DB_LIMIT, 20.0, 50, 7)  # r1 rounds to 0 everywhere: a single bin
@example(DB_LIMIT, DB_LIMIT, 30, 1)
@example(DB_LIMIT, -DB_LIMIT, 2, 1)
def test_streamed_trace_equals_unstreamed_bit_for_bit(g1_db, g2_db, n, block):
    lb = from_db(g1_db, g1_db if g2_db is None else g2_db)
    with mock.patch.object(region_module, "BLOCK_POINTS", block):
        for scheme in REGION_SCHEMES:
            got, want = trace_region(scheme, lb, n), _unstreamed(scheme, lb, n)
            assert got.r1.tolist() == want.r1.tolist()
            assert got.r2.tolist() == want.r2.tolist()
            assert (_hex(got.r1), _hex(got.r2)) == (_hex(want.r1), _hex(want.r2))


def test_zero_gain_traces_equal_unstreamed():
    for lb in (LinkBudget(1.0, 0.0, 3.0), LinkBudget(2.0, 0.0, 0.0), LinkBudget(0.5, 4.0, 0.0)):
        for scheme in REGION_SCHEMES:
            got, want = trace_region(scheme, lb, 300), _unstreamed(scheme, lb, 300)
            assert (_hex(got.r1), _hex(got.r2)) == (_hex(want.r1), _hex(want.r2))


def _fresh():
    return np.full(PREFILTER_BINS, -np.inf)


def _single(r1, r2, scale, best):
    return _prefilter(np.array([r1]), np.array([r2]), scale, best).tolist()


def test_prefilter_single_points():
    scale = PREFILTER_BINS / 2.0  # r1 range [0, 2]
    for s in (0.0, scale):  # 0.0: a single bin, nothing above it
        assert _single(1.0, 1.0, s, _fresh()) == [True]
    best = _fresh()
    assert _single(1.5, 2.0, scale, best) == [True]
    assert _single(1.0, 2.0, scale, best) == [False]  # equal r2, strictly smaller r1
    assert _single(1.0, math.nextafter(2.0, 3.0), scale, best) == [True]
    assert _single(1.5, 1.0, scale, best) == [True]  # same bin as (1.5, 2): never pruned
    assert _single(2.5, 0.0, scale, best) == [True]  # past the range: clipped to the top bin


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.tuples(_value, _value), min_size=1, max_size=40),
    st.integers(1, 40),
    st.sampled_from([0.0, 1.0, PREFILTER_BINS / 2.0, 1e6]),
)
def test_prefilter_keeps_the_frontier_and_drops_only_dominated_points(points, chunk, scale):
    r1 = np.array([a for a, _ in points])
    r2 = np.array([b for _, b in points])
    best = _fresh()
    keep = np.concatenate(
        [_prefilter(r1[i : i + chunk], r2[i : i + chunk], scale, best)
         for i in range(0, r1.size, chunk)]
    )
    front = _frontier(Scheme.NOMA, r1, r2)
    for a, b in zip(front.r1, front.r2):
        assert np.all(keep[(r1 == a) & (r2 == b)])  # every copy of a frontier point
    for a, b in zip(r1[~keep], r2[~keep]):
        assert np.any((r1 > a) & (r2 >= b))
