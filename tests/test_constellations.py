import cmath
import math
import re

import numpy as np
import pytest

from ramasim.constellations import (
    MAX_ORDER,
    TWO_PI,
    Constellation,
    SymbolRelation,
    make_psk,
    make_qam,
    relate,
)


def test_bpsk_points():
    const = make_psk(2)
    assert len(const.points) == 2
    assert abs(const.points[0] - 1.0) <= 1e-12
    assert abs(const.points[1] + 1.0) <= 1e-12


def test_qpsk_points_increasing_angle():
    const = make_psk(4)
    expected = [1, 1j, -1, -1j]
    for got, want in zip(const.points, expected):
        assert abs(got - want) <= 1e-12
    angles = [cmath.phase(s) % TWO_PI for s in const.points]
    assert angles == sorted(angles)


@pytest.mark.parametrize("order", [2, 3, 4, 8, 16, 64])
def test_psk_unit_power_and_modulus(order):
    const = make_psk(order)
    assert abs(const.average_power() - 1.0) <= 1e-12
    for s in const.points:
        assert abs(abs(s) - 1.0) <= 1e-12


@pytest.mark.parametrize("order", [0, 1, -4])
def test_psk_rejects_bad_order(order):
    with pytest.raises(ValueError):
        make_psk(order)


def test_qam16_scale_matches_bruteforce_grid():
    # Oracle: integer arithmetic over the raw odd grid. Mean power of
    # {-3,-1,1,3}^2 is 160/16 = 10, so the scale must be 1/sqrt(10).
    coords = [-3, -1, 1, 3]
    raw_mean = sum(a * a + b * b for a in coords for b in coords) / 16
    assert raw_mean == 10.0
    const = make_qam(16)
    expected = sorted(
        (complex(a, b) / math.sqrt(10) for a in coords for b in coords),
        key=lambda z: (z.real, z.imag),
    )
    got = sorted(const.points, key=lambda z: (z.real, z.imag))
    for g, e in zip(got, expected):
        assert abs(g - e) <= 1e-15
    assert abs(const.average_power() - 1.0) <= 1e-12


def test_qam4_is_rotated_qpsk():
    const = make_qam(4)
    c = 0.7071067811865475  # 1/sqrt(2)
    expected = {(-c, -c), (-c, c), (c, -c), (c, c)}
    got = {(round(s.real, 12), round(s.imag, 12)) for s in const.points}
    assert got == {(round(a, 12), round(b, 12)) for a, b in expected}


@pytest.mark.parametrize("order", [4, 16, 64])
def test_qam_unit_power_no_origin(order):
    const = make_qam(order)
    assert abs(const.average_power() - 1.0) <= 1e-12
    assert all(s != 0 for s in const.points)
    assert len(set(const.points)) == order


@pytest.mark.parametrize("order", [1, 2, 3, 8, 12, 15, -4])
def test_qam_rejects_non_square_order(order):
    with pytest.raises(ValueError, match="perfect square"):
        make_qam(order)


@pytest.mark.parametrize("make", [make_psk, make_qam])
def test_order_cap_is_checked_before_allocation(make):
    # Without the cap, 10**9 starts building a billion-point tuple.
    assert len(make(MAX_ORDER).points) == MAX_ORDER
    for order in (MAX_ORDER + 1, 10**9):
        with pytest.raises(ValueError, match=f"order: {order} is above the cap of {MAX_ORDER}"):
            make(order)


def test_constellation_rejects_unnormalized_points():
    with pytest.raises(ValueError, match="average power"):
        Constellation((2 + 0j, -2 + 0j))


def test_constellation_rejects_an_empty_point_set():
    with pytest.raises(ValueError, match="^points must be nonempty$"):
        Constellation(())


def test_constellation_rejects_duplicates():
    with pytest.raises(ValueError, match="distinct"):
        Constellation((1 + 0j, 1 + 0j))


@pytest.mark.parametrize(
    "points", [(0j, math.sqrt(2.0) + 0j), (0j, math.sqrt(1.5) + 0j, -math.sqrt(1.5) + 0j)]
)
def test_constellation_rejects_the_origin(points):
    # relate divides by |s1|, so no constellation may hold the origin.
    with pytest.raises(ValueError, match="^constellation points must not include the origin$"):
        Constellation(points)


@pytest.mark.parametrize("make", [make_psk, make_qam])
@pytest.mark.parametrize(
    "bad",
    [
        complex(math.nan, 0.0),
        complex(0.5, math.nan),
        complex(math.inf, 0.0),
        complex(0.5, -math.inf),
    ],
)
def test_constellation_rejects_non_finite_points(make, bad):
    # NaN slips through every tolerance check (each comparison is False),
    # so a non-finite point must be refused by name.
    good = make(4)
    points = (bad,) + good.points[1:]
    with pytest.raises(ValueError, match=f"point {re.escape(repr(bad))} is not finite"):
        Constellation(points)


def test_relate_identity():
    rel = relate(1 + 1j, 1 + 1j)
    assert rel.delta_theta == 0.0
    assert rel.s_bar == 1.0


def test_relate_quarter_turn():
    rel = relate(1 + 0j, 1j)
    assert abs(rel.delta_theta - math.pi / 2) <= 1e-12
    assert rel.s_bar == 1.0


def test_relate_rejects_zero_reference():
    with pytest.raises(ValueError, match="zero reference"):
        relate(0j, 1 + 0j)


def test_relate_reconstructs_all_qam16_pairs():
    const = make_qam(16)
    worst = 0.0
    for s1 in const.points:
        for s2 in const.points:
            rel = relate(s1, s2)
            worst = max(worst, abs(rel.apply(s1) - s2))
    assert worst <= 1e-12


def test_relate_psk_pairs_have_unit_ratio_and_close():
    const = make_psk(8)
    points = np.array(const.points)
    for s1 in const.points:
        for s2 in const.points:
            rel = relate(s1, s2)
            assert rel.s_bar == 1.0
            # the rotated symbol lands back on the constellation
            assert np.min(np.abs(points - rel.apply(s1))) <= 1e-12


def test_delta_theta_normalized_to_half_open_interval():
    rng = np.random.default_rng(2)
    for _ in range(500):
        s1 = complex(*rng.normal(size=2))
        s2 = complex(*rng.normal(size=2))
        if s1 == 0:
            continue
        rel = relate(s1, s2)
        assert 0.0 <= rel.delta_theta < TWO_PI
    # -1e-17 % TWO_PI rounds to TWO_PI itself, which wraps to 0
    assert relate(complex(1.0, 1e-17), 1 + 0j).delta_theta == 0.0


def test_symbol_relation_validates_fields():
    with pytest.raises(ValueError):
        SymbolRelation(-0.1, 1.0)
    with pytest.raises(ValueError):
        SymbolRelation(TWO_PI, 1.0)
    with pytest.raises(ValueError):
        SymbolRelation(0.0, -1.0)
