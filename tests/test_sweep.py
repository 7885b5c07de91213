import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ramasim.channel import DB_LIMIT, RngState, db_to_linear, rayleigh_fades
from ramasim import sweep
from ramasim.rates import Scheme
from ramasim.sweep import (
    DEFAULT_SPLITS,
    MAX_FADING_SAMPLES,
    PLANE_BUFFER_ELEMENTS,
    FadingConfig,
    SweepConfig,
    SweepRow,
    X_AXIS_RATIO,
    X_AXIS_SYMMETRIC,
    _sum_rate,
    default_grid,
    run_sweep,
)


def _rows_by_key(result, scheme):
    return {(row.x_db, row.split): row for row in result.rows if row.scheme is scheme}


def test_default_grids():
    sym = default_grid(X_AXIS_SYMMETRIC)
    ratio = default_grid(X_AXIS_RATIO)
    assert sym[0] == -10.0 and sym[-1] == 40.0 and len(sym) == 51
    assert ratio[0] == 0.0 and ratio[-1] == 40.0 and len(ratio) == 41
    assert all(b - a == 1.0 for a, b in zip(sym, sym[1:]))


def test_config_validation_messages_name_fields():
    with pytest.raises(ValueError, match="schemes"):
        SweepConfig(schemes=())
    with pytest.raises(ValueError, match="x_axis"):
        SweepConfig(schemes=(Scheme.NOMA,), x_axis="sideways")
    with pytest.raises(ValueError, match="grid_db"):
        SweepConfig(schemes=(Scheme.NOMA,), grid_db=())
    with pytest.raises(ValueError, match="grid_db"):
        SweepConfig(schemes=(Scheme.NOMA,), grid_db=(0.0, 0.0))
    with pytest.raises(ValueError, match="splits"):
        SweepConfig(schemes=(Scheme.NOMA,), splits=())
    with pytest.raises(ValueError, match="splits"):
        SweepConfig(schemes=(Scheme.NOMA,), splits=(1.5,))
    with pytest.raises(ValueError, match="grid_db: level 1000.5 dB outside"):
        SweepConfig(schemes=(Scheme.NOMA,), grid_db=(0.0, 1000.5))
    with pytest.raises(ValueError, match="ratio_anchor_db: level"):
        SweepConfig(schemes=(Scheme.NOMA,), ratio_anchor_db=-1000.5)
    with pytest.raises(ValueError, match="ratio_anchor_db: user 1 level 1010.0 dB"):
        SweepConfig(schemes=(Scheme.NOMA,), x_axis=X_AXIS_RATIO, ratio_anchor_db=970.0)
    with pytest.raises(ValueError, match="num_samples"):
        FadingConfig(0)
    assert FadingConfig(MAX_FADING_SAMPLES).num_samples == MAX_FADING_SAMPLES
    with pytest.raises(ValueError, match="above the cap"):
        FadingConfig(MAX_FADING_SAMPLES + 1)


def test_config_accepts_scheme_tokens():
    cfg = SweepConfig(schemes=("noma", "rama1"))
    assert cfg.schemes == (Scheme.NOMA, Scheme.RAMA1)
    assert cfg.splits == DEFAULT_SPLITS


def test_symmetric_zero_db_known_values():
    cfg = SweepConfig(schemes=("noma", "rama1"), grid_db=(0.0,), splits=(0.5,))
    rows = run_sweep(cfg).rows
    noma = next(r for r in rows if r.scheme is Scheme.NOMA)
    rama1 = next(r for r in rows if r.scheme is Scheme.RAMA1)
    assert abs(noma.sum_rate - 1.0) <= 1e-12  # oracle: log2(2)
    assert abs(rama1.sum_rate - 1.1699250014423124) <= 1e-12  # log2(2.25)
    assert noma.stderr == 0.0 and rama1.stderr == 0.0


def test_row_order_and_count():
    cfg = SweepConfig(
        schemes=("noma", "rama1"), grid_db=(0.0, 10.0), splits=(0.25, 0.75)
    )
    rows = run_sweep(cfg).rows
    assert len(rows) == 2 * 2 * 2
    assert [(r.x_db, r.scheme.value, r.split) for r in rows[:4]] == [
        (0.0, "noma", 0.25),
        (0.0, "noma", 0.75),
        (0.0, "rama1", 0.25),
        (0.0, "rama1", 0.75),
    ]


def test_result_columns_are_read_only_and_rows_follow_their_order():
    cfg = SweepConfig(schemes=("oma", "noma", "rama1"), grid_db=(-3.0, 0.0), splits=(0.0, 1.0))
    result = run_sweep(cfg)
    assert (result.grid, result.schemes, result.splits) == (cfg.grid_db, cfg.schemes, cfg.splits)
    for column in (result.means, result.errors):
        assert column.shape == (2, 3, 2) and column.dtype == np.float64
        assert not column.flags.writeable
    assert not result.errors.any()
    assert [row.sum_rate for row in result.rows] == result.means.ravel().tolist()
    assert result.rows[7] == SweepRow(0.0, Scheme.OMA, 1.0, result.means[1, 0, 1], 0.0)


def test_rama1_rows_ignore_split():
    cfg = SweepConfig(schemes=("rama1",), grid_db=(7.0,), splits=(0.1, 0.5, 0.9))
    sums = {row.sum_rate for row in run_sweep(cfg).rows}
    assert len(sums) == 1


def test_symmetric_dominance_and_monotone_gap():
    cfg = SweepConfig(schemes=("noma", "rama1"))
    result = run_sweep(cfg)
    noma = _rows_by_key(result, Scheme.NOMA)
    rama1 = _rows_by_key(result, Scheme.RAMA1)
    for key, row in noma.items():
        assert rama1[key].sum_rate > row.sum_rate
    gaps = [
        rama1[(x, 0.5)].sum_rate - noma[(x, 0.5)].sum_rate
        for x in default_grid(X_AXIS_SYMMETRIC)
    ]
    assert all(b > a for a, b in zip(gaps, gaps[1:]))


def test_ratio_mode_dominance_at_low_splits():
    cfg = SweepConfig(schemes=("noma", "rama1"), x_axis=X_AXIS_RATIO, splits=(0.25, 0.5))
    result = run_sweep(cfg)
    noma = _rows_by_key(result, Scheme.NOMA)
    rama1 = _rows_by_key(result, Scheme.RAMA1)
    for key, row in noma.items():
        assert rama1[key].sum_rate >= row.sum_rate


def test_ratio_mode_noma_can_win_at_high_split():
    cfg = SweepConfig(schemes=("noma", "rama1"), x_axis=X_AXIS_RATIO, splits=(0.75,))
    result = run_sweep(cfg)
    noma = _rows_by_key(result, Scheme.NOMA)
    rama1 = _rows_by_key(result, Scheme.RAMA1)
    wins = [x for (x, _s) in noma if noma[(x, 0.75)].sum_rate > rama1[(x, 0.75)].sum_rate]
    assert any(x >= 30.0 for x in wins)


def test_ratio_anchor_sets_weak_user_level():
    cfg = SweepConfig(
        schemes=("rama2",), x_axis=X_AXIS_RATIO, grid_db=(0.0,), splits=(0.0,),
        ratio_anchor_db=10.0,
    )
    row = run_sweep(cfg).rows[0]
    # all power to user 2 at the anchor level: log2(1 + 10)
    assert math.isclose(row.sum_rate, math.log2(11.0), rel_tol=1e-12)


def test_all_schemes_accepted_in_sweep():
    cfg = SweepConfig(
        schemes=("oma", "noma", "reconfig-noma", "rama1", "rama2"),
        grid_db=(10.0,),
        splits=(0.5,),
    )
    rows = run_sweep(cfg).rows
    assert len(rows) == 5
    by_scheme = {row.scheme: row.sum_rate for row in rows}
    # reconfig splits the beams, so it trails plain NOMA
    assert by_scheme[Scheme.RECONFIG_NOMA] < by_scheme[Scheme.NOMA]
    assert by_scheme[Scheme.RAMA1] > by_scheme[Scheme.NOMA]


def test_monotone_along_symmetric_grid_all_schemes():
    cfg = SweepConfig(
        schemes=("oma", "noma", "reconfig-noma", "rama1", "rama2"), splits=(0.3,)
    )
    result = run_sweep(cfg)
    for scheme in cfg.schemes:
        sums = [row.sum_rate for row in result.rows if row.scheme is scheme]
        assert all(b >= a for a, b in zip(sums, sums[1:]))


def test_no_fading_results_identical_across_runs():
    cfg = SweepConfig(schemes=("noma",), grid_db=(5.0,), splits=(0.25,))
    assert run_sweep(cfg).rows == run_sweep(cfg).rows


def test_fading_rows_are_deterministic():
    cfg = SweepConfig(
        schemes=("noma",),
        grid_db=(0.0, 10.0),
        splits=(0.5,),
        fading=FadingConfig(num_samples=2000, seed=99),
    )
    first = run_sweep(cfg)
    second = run_sweep(cfg)
    assert first.rows == second.rows


def test_fading_stderr_positive_and_single_sample_guard():
    cfg = SweepConfig(
        schemes=("noma",), grid_db=(10.0,), splits=(0.5,),
        fading=FadingConfig(num_samples=500, seed=1),
    )
    row = run_sweep(cfg).rows[0]
    assert row.stderr > 0.0
    one = SweepConfig(
        schemes=("noma",), grid_db=(10.0,), splits=(0.5,),
        fading=FadingConfig(num_samples=1, seed=1),
    )
    assert run_sweep(one).rows[0].stderr == 0.0


def test_fading_mean_below_deterministic_value():
    # averaging a concave rate over fading can only lose (Jensen)
    det = run_sweep(SweepConfig(schemes=("noma",), grid_db=(10.0,), splits=(0.5,)))
    faded = run_sweep(
        SweepConfig(
            schemes=("noma",), grid_db=(10.0,), splits=(0.5,),
            fading=FadingConfig(num_samples=10**5, seed=4),
        )
    )
    assert faded.rows[0].sum_rate < det.rows[0].sum_rate


def test_fading_mean_consistent_across_sample_counts():
    small = run_sweep(
        SweepConfig(
            schemes=("noma",), grid_db=(10.0,), splits=(0.5,),
            fading=FadingConfig(num_samples=10**5, seed=12),
        )
    ).rows[0]
    large = run_sweep(
        SweepConfig(
            schemes=("noma",), grid_db=(10.0,), splits=(0.5,),
            fading=FadingConfig(num_samples=10**6, seed=13),
        )
    ).rows[0]
    assert abs(large.sum_rate - small.sum_rate) <= 3.0 * small.stderr


def test_fading_realizations_shared_within_grid_point():
    cfg = SweepConfig(
        schemes=("noma", "rama1"), grid_db=(20.0,), splits=(0.5,),
        fading=FadingConfig(num_samples=400, seed=8),
    )
    rows = run_sweep(cfg).rows
    # same draws feed both schemes, so the equal-split dominance also holds
    # realization-by-realization and survives the averaging
    assert rows[1].sum_rate > rows[0].sum_rate


# --- the whole-grid evaluation against a per-point reference --------------------


def _per_point_sweep(cfg):
    """run_sweep's contract, one grid point at a time.

    Without fading: one scalar _sum_rate call per row. With fading: each
    point draws user 1's then user 2's fades from RngState(seed).derive(index),
    and each row takes the 1-D mean and standard error (0 when N = 1).
    """
    rows = []
    for index, x_db in enumerate(cfg.resolved_grid()):
        if cfg.x_axis == X_AXIS_SYMMETRIC:
            g1 = g2 = db_to_linear(x_db)
        else:
            g2 = db_to_linear(cfg.ratio_anchor_db)
            g1 = db_to_linear(x_db) * g2
        if cfg.fading is not None:
            count = cfg.fading.num_samples
            rng = RngState(cfg.fading.seed).derive(index)
            g1 = np.abs(rayleigh_fades(rng, g1, count)) ** 2
            g2 = np.abs(rayleigh_fades(rng, g2, count)) ** 2
        for scheme in cfg.schemes:
            for split in cfg.splits:
                if cfg.fading is None:
                    sum_rate, err = float(_sum_rate(scheme, g1, g2, split)), 0.0
                else:
                    values = np.asarray(_sum_rate(scheme, g1, g2, split), dtype=float)
                    sum_rate = float(values.mean())
                    err = float(values.std(ddof=1) / math.sqrt(count)) if count > 1 else 0.0
                rows.append(SweepRow(float(x_db), scheme, split, sum_rate, err))
    return tuple(rows)


@st.composite
def _configs(draw):
    x_axis = draw(st.sampled_from([X_AXIS_SYMMETRIC, X_AXIS_RATIO]))
    anchor, lo, hi = 0.0, -DB_LIMIT, DB_LIMIT
    if x_axis == X_AXIS_RATIO:
        anchor = draw(st.one_of(
            st.sampled_from([-DB_LIMIT, 0.0, DB_LIMIT]), st.floats(-DB_LIMIT, DB_LIMIT)
        ))
        lo, hi = max(lo, -DB_LIMIT - anchor), min(hi, DB_LIMIT - anchor)
    level = st.one_of(
        st.sampled_from([lo, hi]), st.floats(max(lo, -60.0), min(hi, 60.0)), st.floats(lo, hi)
    )
    fading = draw(st.one_of(st.none(), st.builds(
        FadingConfig,
        st.one_of(st.sampled_from([1, 2, 3]), st.integers(1, 200)),
        st.integers(0, 2**64 - 1),
    )))
    grid = sorted(set(draw(st.lists(level, min_size=1, max_size=10 if fading else 40))))
    schemes = draw(st.lists(st.sampled_from(list(Scheme)), min_size=1, max_size=5))
    splits = draw(st.lists(
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), min_size=1, max_size=4
    ))
    try:
        return SweepConfig(schemes, x_axis, tuple(grid), tuple(splits), fading, anchor)
    except ValueError:  # x + anchor rounded just past the dB domain
        assume(False)


def _fading(n, seed=7):
    return FadingConfig(num_samples=n, seed=seed)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_configs())
@example(SweepConfig(tuple(Scheme), X_AXIS_SYMMETRIC, (-DB_LIMIT, 0.0, DB_LIMIT), (0.0, 1.0)))
@example(SweepConfig(tuple(Scheme), X_AXIS_RATIO, (0.0, DB_LIMIT), (0.0, 1.0), None, -DB_LIMIT))
@example(SweepConfig(tuple(Scheme), X_AXIS_RATIO, (-DB_LIMIT, 0.0), (0.5,), None, DB_LIMIT))
@example(SweepConfig(tuple(Scheme), X_AXIS_SYMMETRIC, (-10.0, 0.0, 40.0), (0.0, 0.5), _fading(1)))
@example(SweepConfig(tuple(Scheme), X_AXIS_SYMMETRIC, (-DB_LIMIT, DB_LIMIT), (1.0,), _fading(2)))
@example(SweepConfig(tuple(Scheme), X_AXIS_RATIO, (0.0, 20.0), (0.25,), _fading(3, 2**64 - 1)))
@example(SweepConfig(tuple(Scheme), X_AXIS_RATIO, (0.0, 30.0), DEFAULT_SPLITS, _fading(200), 5.0))
# Bench size, and sizes past numpy's 128-element pairwise-sum blocks, where a
# reduction that summed in another order would change the last bits.
@example(SweepConfig(tuple(Scheme), X_AXIS_SYMMETRIC, (-10.0, 15.0, 40.0), DEFAULT_SPLITS,
                     _fading(6000, 0)))
@example(SweepConfig(tuple(Scheme), X_AXIS_RATIO, (0.0, 20.0), (0.0, 0.5, 1.0), _fading(1001)))
def test_whole_grid_sweep_equals_per_point_reference_bit_for_bit(cfg):
    # The CSV prints every sum rate, so the grid evaluation must keep each bit,
    # the sign of zero included; fading means and stderrs are pinned the same way.
    rows = run_sweep(cfg).rows
    reference = _per_point_sweep(cfg)
    assert rows == reference
    for field in ("sum_rate", "stderr"):
        assert [getattr(row, field).hex() for row in rows] == [
            getattr(row, field).hex() for row in reference
        ]


@pytest.mark.parametrize("elements", [1, 7, 3 * 6000])
@pytest.mark.parametrize("fading", [None, _fading(6000, 3)])
def test_cells_in_any_chunk_size_give_the_same_bits(monkeypatch, elements, fading):
    # Without fading (3 points), 1 and 7 elements give chunks of 1 and 2
    # cells. With fading, both give one-cell chunks, and 3 * 6000 gives
    # 3-cell chunks, so a point's 20 cells end in a 2-cell chunk.
    cfg = SweepConfig(tuple(Scheme), X_AXIS_SYMMETRIC, (-10.0, 0.0, 25.0), (0.0, 0.25, 0.5, 1.0),
                      fading)
    whole = run_sweep(cfg)
    monkeypatch.setattr(sweep, "PLANE_BUFFER_ELEMENTS", elements)
    chunked = run_sweep(cfg)
    for a, b in ((whole.means, chunked.means), (whole.errors, chunked.errors)):
        assert a.view(np.int64).tolist() == b.view(np.int64).tolist()


def _peak_bytes(cfg):
    tracemalloc.start()
    try:
        run_sweep(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fading_sweep_memory_does_not_grow_with_the_cell_count():
    # One point's realizations and per-cell temporaries take about 64 bytes
    # per sample (8 float64 planes). The cells share one buffer of at most
    # PLANE_BUFFER_ELEMENTS, or one cell when a plane is larger, and std
    # copies it once.
    buffer_bytes = 8 * PLANE_BUFFER_ELEMENTS
    n = 2 * 10**5  # one cell per chunk
    cfg = SweepConfig(tuple(Scheme), X_AXIS_SYMMETRIC, (10.0,), (0.0, 0.25, 0.5, 1.0), _fading(n))
    assert _peak_bytes(cfg) <= 64 * n + 2 * 2**20
    n = 2 * 10**4  # 13 cells per chunk
    few, many = (
        _peak_bytes(SweepConfig(tuple(Scheme), X_AXIS_SYMMETRIC, (10.0,), splits, _fading(n)))
        for splits in ((0.0, 0.25, 0.5, 1.0), tuple(k / 40 for k in range(41)))
    )
    assert many <= 64 * n + 2 * buffer_bytes
    assert many <= few + 2**16
