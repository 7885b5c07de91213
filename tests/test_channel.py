import math

import numpy as np
import pytest
from scipy import stats

from ramasim.channel import (
    DB_LIMIT,
    RNG_ALGORITHM,
    LinkBudget,
    RngState,
    from_db,
    rayleigh_fades,
)


def test_from_db_symmetric_15db():
    lb = from_db(15.0, 15.0)
    assert lb.p == 1.0
    assert math.isclose(lb.pg1, 10**1.5, rel_tol=1e-12)
    assert abs(lb.pg1 - 31.6228) <= 1e-4


def test_from_db_asymmetric_30_0():
    lb = from_db(30.0, 0.0)
    assert math.isclose(lb.pg1, 1000.0, rel_tol=1e-12)
    assert math.isclose(lb.gamma2 * lb.p, 1.0, rel_tol=1e-12)


def test_from_db_inverts_decibels():
    rng = np.random.default_rng(5)
    for db1, db2 in rng.uniform(-40, 40, size=(200, 2)):
        lb = from_db(db1, db2)
        assert math.isclose(10 * math.log10(lb.pg1), db1, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(10 * math.log10(lb.gamma2 * lb.p), db2, rel_tol=1e-12, abs_tol=1e-12)


def test_from_db_rejects_levels_outside_domain():
    lb = from_db(DB_LIMIT, -DB_LIMIT)
    assert lb.pg1 == 1e100 and lb.gamma2 * lb.p > 0.0
    for db in (DB_LIMIT + 0.5, -4000.0, 4000.0, math.nan):
        with pytest.raises(ValueError, match="outside"):
            from_db(db, 0.0)
        with pytest.raises(ValueError, match="outside"):
            from_db(0.0, db)


def test_link_budget_validation():
    with pytest.raises(ValueError):
        LinkBudget(0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="gamma2"):
        LinkBudget(1.0, 1.0, -1.0)
    with pytest.raises(ValueError, match="gamma1"):
        LinkBudget(1.0, math.inf, 1.0)
    with pytest.raises(ValueError, match="total power"):
        LinkBudget(math.inf, 0.0, 0.0)


def test_link_budget_bounds_products_at_the_db_scale():
    assert LinkBudget(1.0, 1e100, 1e100).pg1 == 1e100  # from_db(1000, 1000)
    assert LinkBudget(1e-200, 1e300, 1.0).pg1 == 1e100
    with pytest.raises(ValueError, match="gamma1"):
        LinkBudget(2.0, 1e100, 1.0)
    with pytest.raises(ValueError, match="gamma2"):
        LinkBudget(1e10, 1.0, 1e91)


def test_rng_streams_are_reproducible():
    a = RngState(42)
    b = RngState(42)
    assert np.array_equal(a.standard_normal(16), b.standard_normal(16))
    assert np.array_equal(a.standard_normal(17), b.standard_normal(17))


def test_rng_algorithm_identifier_is_stable():
    assert RNG_ALGORITHM == "pcg64+box-muller"


def test_box_muller_matches_documented_construction():
    # Oracle: rebuild the documented transform straight from a PCG64 stream.
    gen = np.random.Generator(np.random.PCG64(42))
    u1 = 1.0 - gen.random(2)
    u2 = gen.random(2)
    radius = np.sqrt(-2.0 * np.log(u1))
    expected = np.empty(4)
    expected[0::2] = radius * np.cos(2 * np.pi * u2)
    expected[1::2] = radius * np.sin(2 * np.pi * u2)
    got = RngState(42).standard_normal(4)
    assert np.array_equal(got, expected)


def test_derive_matches_shifted_seed():
    derived = RngState(10).derive(5)
    fresh = RngState(15)
    assert derived.seed == 15
    assert np.array_equal(derived.standard_normal(8), fresh.standard_normal(8))


def test_box_muller_moments():
    z = RngState(7).standard_normal(10**6)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_rayleigh_mean_gain_converges():
    rng = RngState(11)
    h = rayleigh_fades(rng, 1.0, 10**6)
    assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 0.01
    h4 = rayleigh_fades(rng, 4.0, 10**6)
    assert abs(np.mean(np.abs(h4) ** 2) - 4.0) < 0.04


def test_rayleigh_phase_uniform():
    h = rayleigh_fades(RngState(3), 1.0, 10**6)
    phases = np.angle(h)  # (-pi, pi]
    counts, _ = np.histogram(phases, bins=16, range=(-np.pi, np.pi))
    result = stats.chisquare(counts)
    assert result.pvalue > 0.001


def test_rayleigh_rejects_bad_parameters():
    with pytest.raises(ValueError):
        rayleigh_fades(RngState(0), 0.0, 4)
    with pytest.raises(ValueError, match="^size must be nonnegative$"):
        RngState(0).standard_normal(-1)


class _GivenNormals:
    """A stream stub that hands out fixed normals, exact +-0 among them."""

    def __init__(self, z):
        self.z = np.asarray(z, dtype=float)

    def standard_normal(self, size):
        assert size == self.z.size
        return self.z.copy()


def _split_complex_fades(z, mean_gain):
    """rayleigh_fades built from separate real and imaginary halves."""
    return math.sqrt(mean_gain / 2.0) * (z[0::2] + 1j * z[1::2])


@pytest.mark.parametrize("mean_gain", [1.0, 4.0, 1e-100, 1e100, 5e-324])
def test_rayleigh_fades_equal_the_split_complex_form(mean_gain):
    # Pairs of signed zeros and normals from a real stream: the fades must be
    # equal and |h|^2, which the sweep averages, equal bit for bit.
    zeros = [0.0, 0.0, -0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 1.5, -0.0, -0.0, -2.25]
    given = np.concatenate([zeros, RngState(9).standard_normal(2 * 1001)])
    cases = [
        (rayleigh_fades(_GivenNormals(given), mean_gain, given.size // 2), given),
        (rayleigh_fades(RngState(21), mean_gain, 6000), RngState(21).standard_normal(12000)),
    ]
    for fades, z in cases:
        expected = _split_complex_fades(z, mean_gain)
        assert fades.dtype == np.complex128 and np.array_equal(fades, expected)
        power = (np.abs(fades) ** 2).view(np.int64)
        assert power.tolist() == (np.abs(expected) ** 2).view(np.int64).tolist()
