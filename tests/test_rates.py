import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramasim.channel import DB_LIMIT, MAX_PG, LinkBudget, db_to_linear, from_db
from ramasim.rates import (
    SCHEMES,
    RatePair,
    Scheme,
    case2_holds,
    case2_sufficient,
    noma_rates,
    noma_sum_symmetric,
    oma_rates,
    rama1_rates,
    rama1_sum_symmetric,
    rama2_rates,
    reconfig_noma_rates,
    superposition,
)
from ramasim.transceiver import PowerAllocation


def _alloc(p, frac):
    return PowerAllocation.from_fraction(p, frac)


def test_rate_pair_validation():
    with pytest.raises(ValueError, match="r1"):
        RatePair(-0.1, 0.0, Scheme.NOMA)
    with pytest.raises(ValueError, match="r2"):
        RatePair(0.0, math.nan, Scheme.NOMA)


def test_scheme_prints_as_its_cli_name():
    assert len(Scheme) == 5
    for scheme in Scheme:
        assert str(scheme) == "%s" % scheme == f"{scheme}" == scheme.value
        assert repr(scheme) == f"<Scheme.{scheme.name}: {scheme.value!r}>"
        assert Scheme(scheme.value) is scheme


def test_noma_all_power_to_user_one():
    lb = from_db(15.0, 15.0)
    pair = noma_rates(_alloc(1.0, 1.0), lb)
    assert math.isclose(pair.r1, math.log2(1 + 10**1.5), rel_tol=1e-12)
    assert pair.r2 == 0.0


def test_noma_symmetric_sum_is_split_independent():
    lb = from_db(15.0, 15.0)
    total = math.log2(1 + 10**1.5)  # oracle: telescoped product
    for frac in (0.1, 0.25, 0.5, 0.9):
        pair = noma_rates(_alloc(1.0, frac), lb)
        assert abs(pair.sum_rate - total) <= 1e-12


def test_noma_asymmetric_anchor_30_0():
    lb = from_db(30.0, 0.0)
    pair = noma_rates(_alloc(1.0, 0.255), lb)
    # p1*g1 = 255 exactly, so r1 inverts to a power of two
    assert abs(2**pair.r1 - 256.0) <= 1e-9
    assert math.isclose(pair.r2, math.log2(1 + 0.745 / 1.255), rel_tol=1e-12)
    assert abs(pair.r2 - 0.672) <= 1e-3


def test_noma_pair_ordered_mirrors_swapped_budget():
    noma = SCHEMES[Scheme.NOMA]
    r1, r2 = noma(1.0, 0.3, 0.7, 1.0, 100.0, None)
    m1, m2 = noma(1.0, 0.7, 0.3, 100.0, 1.0, None)
    assert float(r1) == float(m2)
    assert float(r2) == float(m1)
    # tie: user 1 treated as strong, interference lands on user 2
    t1, t2 = noma(1.0, 0.3, 0.7, 5.0, 5.0, None)
    assert float(t1) == float(np.log2(1 + 0.3 * 5.0))
    assert float(t2) < float(np.log2(1 + 0.7 * 5.0))


def test_scalar_noma_follows_sic_order():
    # user 2 is the strong one here: it decodes interference free
    pair = noma_rates(_alloc(1.0, 0.25), from_db(0.0, 30.0))
    assert math.isclose(pair.r2, math.log2(1 + 0.75 * 1000.0), rel_tol=1e-12)
    assert abs(pair.r2 - 9.553) <= 1e-3
    rng = np.random.default_rng(13)
    for _ in range(200):
        g1, g2 = sorted(10 ** rng.uniform(-2, 4, size=2), reverse=True)
        p = 10 ** rng.uniform(-1, 1)
        p1 = p * rng.uniform(0.01, 0.99)
        alloc, swapped = PowerAllocation(p, p1, p - p1), PowerAllocation(p, p - p1, p1)
        lb, mirror = LinkBudget(p, g1, g2), LinkBudget(p, g2, g1)
        pair, flipped = noma_rates(alloc, lb), noma_rates(swapped, mirror)
        # gamma1 >= gamma2: the user-1-strong closed forms, bit for bit
        assert pair.r1 == float(np.log2(1.0 + alloc.p1 * g1))
        assert pair.r2 == float(np.log2(1.0 + alloc.p2 * g2 / (alloc.p1 * g2 + 1.0)))
        assert (flipped.r1, flipped.r2) == (pair.r2, pair.r1)
        alpha = rng.uniform(0.05, 0.95)
        cut = reconfig_noma_rates(alloc, lb, alpha)
        cut_flipped = reconfig_noma_rates(swapped, mirror, 1.0 - alpha)
        assert math.isclose(cut_flipped.r1, cut.r2, rel_tol=1e-12)
        assert math.isclose(cut_flipped.r2, cut.r1, rel_tol=1e-12)


def test_reconfig_known_value():
    lb = LinkBudget(1.0, 10.0, 10.0)
    pair = reconfig_noma_rates(_alloc(1.0, 0.5), lb, 0.5)
    assert math.isclose(pair.r1, 1.8073549220576042, rel_tol=1e-12)  # log2(3.5)
    assert math.isclose(pair.r2, 0.7776075786635522, rel_tol=1e-12)  # log2(12/7)


def test_reconfig_strictly_below_noma():
    rng = np.random.default_rng(31)
    for _ in range(200):
        g1, g2 = sorted(10 ** rng.uniform(-2, 4, size=2), reverse=True)
        lb = LinkBudget(1.0, g1, g2)
        alloc = _alloc(1.0, rng.uniform(0.05, 0.95))
        alpha = rng.uniform(0.05, 0.95)
        split_pair = reconfig_noma_rates(alloc, lb, alpha)
        full_pair = noma_rates(alloc, lb)
        assert split_pair.r1 < full_pair.r1
        assert split_pair.r2 < full_pair.r2


def test_reconfig_alpha_near_one_approaches_noma():
    lb = from_db(30.0, 0.0)
    alloc = _alloc(1.0, 0.255)
    pair = reconfig_noma_rates(alloc, lb, 0.999)
    full = noma_rates(alloc, lb)
    assert pair.r1 < full.r1
    assert full.r1 - pair.r1 < 0.01


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
def test_reconfig_rejects_degenerate_alpha(alpha):
    lb = from_db(0.0, 0.0)
    with pytest.raises(ValueError, match="alpha"):
        reconfig_noma_rates(_alloc(1.0, 0.5), lb, alpha)


def test_rama1_symmetric_value():
    lb = from_db(15.0, 15.0)
    pair = rama1_rates(lb.p, lb)
    expected = math.log2(1 + 10**1.5 / 2)  # oracle: 4.071366963544554
    assert math.isclose(pair.r1, expected, rel_tol=1e-12)
    assert pair.r1 == pair.r2
    assert abs(pair.r1 - 4.071366963544554) <= 1e-12


def test_rama1_pair_sum_matches_closed_form():
    for db in (-10.0, 0.0, 15.0, 33.0):
        lb = from_db(db, db)
        pair = rama1_rates(lb.p, lb)
        assert abs(pair.sum_rate - rama1_sum_symmetric(lb.pg1)) <= 1e-12


def test_rama2_anchor_value():
    lb = from_db(30.0, 0.0)
    pair = rama2_rates(_alloc(1.0, 0.255), lb)
    assert abs(2**pair.r1 - 256.0) <= 1e-9
    assert math.isclose(pair.r2, math.log2(1.745), rel_tol=1e-12)
    assert abs(pair.r2 - 0.803) <= 1e-3


def test_rama2_weak_user_beats_noma_weak_user():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        g1, g2 = sorted(10 ** rng.uniform(-2, 4, size=2), reverse=True)
        lb = LinkBudget(1.0, g1, g2)
        alloc = _alloc(1.0, rng.uniform(0.01, 0.99))
        assert rama2_rates(alloc, lb).r2 > noma_rates(alloc, lb).r2


def test_oma_corner_and_half_band():
    lb = from_db(15.0, 15.0)
    corner = oma_rates(_alloc(1.0, 1.0), lb, 1.0)
    assert math.isclose(corner.r1, math.log2(1 + 10**1.5), rel_tol=1e-12)
    assert corner.r2 == 0.0
    half = oma_rates(_alloc(1.0, 0.5), lb, 0.5)
    # oracle: 0.5 * log2(1 + (p/2)*g / 0.5) = 0.5 * log2(1 + p*g)
    assert math.isclose(half.r1, 2.5139038366752597, rel_tol=1e-12)
    assert half.r1 == half.r2


def test_oma_zero_bandwidth_carries_zero_rate():
    lb = from_db(20.0, 20.0)
    pair = oma_rates(_alloc(1.0, 0.0), lb, 0.0)
    assert pair.r1 == 0.0
    assert math.isclose(pair.r2, math.log2(1 + 100.0), rel_tol=1e-12)


@pytest.mark.parametrize("beta", [-0.01, 1.01])
def test_oma_rejects_bad_beta(beta):
    lb = from_db(0.0, 0.0)
    with pytest.raises(ValueError, match="beta"):
        oma_rates(_alloc(1.0, 0.5), lb, beta)


def test_sum_symmetric_closed_forms():
    x = 10**1.5
    assert math.isclose(noma_sum_symmetric(x), 5.0278076733505195, rel_tol=1e-12)
    assert math.isclose(rama1_sum_symmetric(x), 8.142733927089106, rel_tol=1e-12)
    assert noma_sum_symmetric(0.0) == 0.0
    assert rama1_sum_symmetric(0.0) == 0.0
    assert math.isfinite(rama1_sum_symmetric(MAX_PG))
    for fn in (noma_sum_symmetric, rama1_sum_symmetric):
        for p_gamma in (-1.0, 1e200, math.inf, math.nan):
            with pytest.raises(ValueError, match="p_gamma"):
                fn(p_gamma)


def test_rama1_sum_strictly_dominates_symmetric_noma():
    rng = np.random.default_rng(23)
    for x in 10 ** rng.uniform(-2, 4, 1000):
        gap = rama1_sum_symmetric(x) - noma_sum_symmetric(x)
        # oracle for the gap: log2(1 + (x^2/4) / (1 + x))
        assert gap > 0.0
        assert abs(gap - math.log2(1 + 0.25 * x * x / (1 + x))) <= 1e-10


def test_case2_exact_inequality():
    lb = from_db(30.0, 0.0)
    # oracle, evaluated directly: lhs (1+250)(1+0.75) = 439.25 vs rhs 751.5
    assert case2_holds(_alloc(1.0, 0.25), lb)
    assert case2_holds(_alloc(1.0, 0.5), lb)  # equality boundary
    assert not case2_holds(_alloc(1.0, 0.9), lb)
    with pytest.raises(ValueError, match="ordering"):
        case2_holds(_alloc(1.0, 0.25), from_db(0.0, 30.0))


def test_case2_sufficient_threshold():
    assert case2_sufficient(_alloc(1.0, 0.5))
    assert case2_sufficient(_alloc(1.0, 0.1))
    assert not case2_sufficient(_alloc(1.0, 0.500001))


def test_case2_sufficient_implies_exact():
    rng = np.random.default_rng(41)
    for _ in range(2000):
        g1, g2 = sorted(10 ** rng.uniform(-2, 4, size=2), reverse=True)
        lb = LinkBudget(1.0, g1, g2)
        alloc = _alloc(1.0, 0.5 * (1.0 - rng.random()))  # (0, 0.5]
        assert case2_sufficient(alloc)
        assert case2_holds(alloc, lb)


def test_rates_monotone_in_power_and_gain():
    rng = np.random.default_rng(53)
    for _ in range(300):
        g1, g2 = sorted(10 ** rng.uniform(-2, 3, size=2), reverse=True)
        lb = LinkBudget(1.0, g1, g2)
        bigger = LinkBudget(1.0, g1 * 2, g2)
        frac = rng.uniform(0.1, 0.9)
        assert noma_rates(_alloc(1.0, frac), bigger).r1 >= noma_rates(_alloc(1.0, frac), lb).r1
        assert rama2_rates(_alloc(2.0, frac), lb).r1 >= rama2_rates(_alloc(1.0, frac), lb).r1
        assert rama1_rates(2.0, lb).r1 >= rama1_rates(1.0, lb).r1


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.floats(-DB_LIMIT, DB_LIMIT),
    st.one_of(st.none(), st.floats(-DB_LIMIT, DB_LIMIT)),  # None: symmetric channels
    st.floats(0.0, 1.0),
)
@example(15.0, None, 0.5)
@example(30.0, 0.0, 0.9)
@example(0.0, 30.0, 0.1)
def test_rama2_with_full_csi_reaches_every_noma_sum(g1_db, g2_db, split):
    lb = from_db(g1_db, g1_db if g2_db is None else g2_db)
    p, g1, g2 = lb.p, lb.gamma1, lb.gamma2
    t = np.append(np.linspace(0.0, 1.0, 101), split)
    n1, n2 = SCHEMES[Scheme.NOMA](p, t * p, (1.0 - t) * p, g1, g2, None)
    r1, r2 = SCHEMES[Scheme.RAMA2](p, t * p, (1.0 - t) * p, g1, g2, None)
    # RAMA-II is NOMA without the superposed interference: no user loses, at any split
    assert np.all(r1 >= n1) and np.all(r2 >= n2)
    # water-filling over the two interference-free links; rounding 1 + p*g
    # leaves each log2 an absolute error near 2**-53 / ln 2, which is all of
    # a rate below about -120 dB, hence the absolute floor
    p1 = min(max((p + 1.0 / g2 - 1.0 / g1) / 2.0, 0.0), p)
    w1, w2 = SCHEMES[Scheme.RAMA2](p, p1, p - p1, g1, g2, None)
    assert np.all(w1 + w2 >= (n1 + n2) * (1.0 - 1e-12) - 1e-15)


_GAINS = st.one_of(st.just(0.0), st.floats(-DB_LIMIT, DB_LIMIT).map(db_to_linear))
_UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(list(Scheme)),
    _GAINS,
    st.one_of(st.none(), _GAINS),  # None: a tie, g2 = g1
    _UNIT,  # power split p1/p
    _UNIT,  # beam or bandwidth share
)
@example(Scheme.NOMA, 0.0, None, 0.5, 0.5)
@example(Scheme.RECONFIG_NOMA, MAX_PG, MAX_PG, 1.0, 0.0)
@example(Scheme.RECONFIG_NOMA, 1.0 / MAX_PG, 0.0, 0.0, 1.0)
@example(Scheme.NOMA, 0.02058703408668366, None, 1.0, 0.5)  # math.log2 differs in the last bit
def test_scheme_table_on_floats_equals_one_element_arrays_bit_for_bit(
    scheme, g1, g2, split, share
):
    # The scalar API passes Python floats and the grids pass arrays; both
    # must give the same bits, including the sign of zero.
    g2 = g1 if g2 is None else g2
    args = (1.0, split, 1.0 - split, g1, g2, share)
    # OMA's p*g/share can overflow at a subnormal share; both forms then give inf.
    with np.errstate(over="ignore"):
        scalar = SCHEMES[scheme](*args)
        array = SCHEMES[scheme](*(np.array([a]) for a in args))
    for s, a in zip(scalar, array):
        assert np.shape(s) == () and np.shape(a) == (1,)
        assert float(s).hex() == float(a[0]).hex()


def _superposition_two_log2(p1, p2, g1, g2, a1, a2):
    """The array branch as both rates over every element, then np.where."""
    strong1, b1, b2 = g1 >= g2, a1 * g1, a2 * g2
    r1 = np.where(strong1, np.log2(1.0 + a1 * p1 * g1), np.log2(1.0 + p1 * b1 / (p2 * b1 + 1.0)))
    r2 = np.where(strong1, np.log2(1.0 + p2 * b2 / (p1 * b2 + 1.0)), np.log2(1.0 + a2 * p2 * g2))
    return r1, r2


@st.composite
def _gain_arrays(draw):
    """(g1, g2) arrays of 1, an odd count or over 128 gains, with ties and zeros."""
    size = draw(st.one_of(
        st.just(1), st.integers(1, 40).map(lambda k: 2 * k + 1), st.integers(129, 400)
    ))
    pool = np.array(draw(st.lists(_GAINS, min_size=1, max_size=8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    g1, g2 = pool[rng.integers(pool.size, size=(2, size))]
    return g1, np.where(rng.random(size) < draw(st.sampled_from([0.0, 0.5, 1.0])), g1, g2)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    _gain_arrays(),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),  # power split p1/p
    st.one_of(st.sampled_from([1.0, 0.5]), st.floats(0.0, 1.0)),  # user 1's beam share
)
def test_superposition_arrays_take_one_log2_per_user_bit_for_bit(gains, split, share):
    # Selecting each element's log2 argument before one log2 must keep every
    # bit of the two-log2 form, the sign of zero included.
    g1, g2 = gains
    a1, a2 = (1.0, 1.0) if share == 1.0 else (share, 1.0 - share)
    got = superposition(split, 1.0 - split, g1, g2, a1, a2)
    expected = _superposition_two_log2(split, 1.0 - split, g1, g2, a1, a2)
    for r, e in zip(got, expected):
        assert r.dtype == e.dtype == np.float64 and r.shape == g1.shape
        assert r.view(np.int64).tolist() == e.view(np.int64).tolist()
