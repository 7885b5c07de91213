"""Sum-rate sweeps over deterministic dB grids, optionally fading-averaged.

Two x-axis modes, named as the CLI's `mode` values: `X_AXIS_SYMMETRIC`
("symmetric") drives both users' p*gamma through the same level,
`X_AXIS_RATIO` ("ratio") fixes user 2 at an anchor level and sweeps the
gain ratio (so user 1 is at least as strong for ratios >= 0 dB). Each grid
point's linear gains come from a scalar `db_to_linear`. `SweepConfig` holds
the `sweep` command's settings in its keys' encoding: `fading_samples` 0
means no fading, and a `grid_db` of None is stored as the mode's default
grid. One loop evaluates each (scheme, split) on planes of gains whose last
axis holds realizations. Without fading, one (G, 1) plane holds every
point's mean gains. With fading, each point gets an (N,) plane of
N = `fading_samples` Rayleigh realizations from a stream seeded
`seed + grid_index`, shared by every scheme and split. A
plane's cells are reduced in chunks: each cell's sum rates fill one row of
a buffer of at most `PLANE_BUFFER_ELEMENTS` (or one cell), and each chunk
takes one last-axis sum for its means and, in the same buffer, one sum of
squared deviations for its standard errors. Memory thus stays bounded per
point (`MAX_FADING_SAMPLES`) for any split count (`MAX_SPLITS`). The
result keeps the means and standard errors as (grid point, scheme, split)
arrays; the CLI formats each grid point's CSV rows from them with one
template, converting a bounded number of points at a time, and
`SweepResult.rows` builds the same rows as tuples for library callers.

Scheme parameters the sweep fixes: OMA ties the bandwidth share to the
power split, and reconfigurable-antenna NOMA uses an equal beam split.
"""

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import RngState, db_to_linear, rayleigh_fades
from .rates import SCHEMES, Scheme, _scheme

X_AXIS_SYMMETRIC = "symmetric"
X_AXIS_RATIO = "ratio"

DEFAULT_SPLITS = (0.25, 0.5, 0.75)

RECONFIG_SWEEP_ALPHA = 0.5

# Each grid point draws 4 * num_samples normals and evaluates rates on
# num_samples-element arrays; 10^6 keeps that near 100 MB.
MAX_FADING_SAMPLES = 1_000_000
MAX_GRID_POINTS = 10_000  # sweep grid points; each is one row per scheme and split
# Power splits per sweep: one grid point's CSV rows, at most five schemes
# times this, are formatted and written as one block.
MAX_SPLITS = 1024
# float64 elements of the buffer that holds one chunk of (scheme, split)
# cells over a plane: 2 MiB. A chunk holds at least one cell.
PLANE_BUFFER_ELEMENTS = 2**18


def build_grid(start: float, stop: float, step: float) -> tuple:
    """Levels start, start + step, ... up to stop dB, at most MAX_GRID_POINTS.

    Errors name the CLI keys grid_start_db, grid_stop_db and grid_step_db.
    """
    for key, value in (("grid_start_db", start), ("grid_stop_db", stop), ("grid_step_db", step)):
        if not math.isfinite(value):
            raise ValueError(f"{key}: {value!r} is not finite")
    if step <= 0.0:
        raise ValueError("grid_step_db must be positive")
    if stop < start:
        raise ValueError("grid_stop_db must be >= grid_start_db")
    span = (stop - start) / step + 1e-9  # may be huge or infinite: cap it before int()
    if span >= MAX_GRID_POINTS:
        raise ValueError(
            f"grid_step_db: {step!r} gives more than {MAX_GRID_POINTS} grid points "
            f"from {start!r} to {stop!r} dB"
        )
    count = int(math.floor(span)) + 1
    grid = tuple(min(start + i * step, stop) for i in range(count))  # rounding may overshoot
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(
            f"grid_step_db: {step!r} is below the float resolution of the levels "
            f"from {start!r} to {stop!r} dB, so grid points repeat"
        )
    return grid


def default_grid(x_axis: str) -> tuple[float, ...]:
    """1 dB steps: -10..40 dB for symmetric sweeps, 0..40 dB for ratio sweeps.

    Ratio sweeps start at 0 dB so user 1 never falls below user 2, matching
    the ordering the asymmetric dominance results assume.
    """
    return build_grid(-10.0 if x_axis == X_AXIS_SYMMETRIC else 0.0, 40.0, 1.0)


@dataclass(frozen=True)
class SweepConfig:
    schemes: tuple
    x_axis: str = X_AXIS_SYMMETRIC
    grid_db: tuple | None = None  # None stores default_grid(x_axis)
    splits: tuple = DEFAULT_SPLITS
    fading_samples: int = 0  # Rayleigh realizations per grid point; 0 = no fading
    seed: int = 0  # base seed of the fading stream
    ratio_anchor_db: float = 0.0

    def __post_init__(self):
        for key in ("fading_samples", "seed"):
            if not isinstance(getattr(self, key), numbers.Integral):
                raise ValueError(f"{key}: {getattr(self, key)!r} is not an integer")
        if self.fading_samples != 0 and self.fading_samples < 1:
            raise ValueError("fading_samples: fading num_samples must be >= 1")
        if self.fading_samples > MAX_FADING_SAMPLES:
            raise ValueError(
                f"fading_samples: fading num_samples {self.fading_samples} is above the cap of "
                f"{MAX_FADING_SAMPLES}"
            )
        if isinstance(self.schemes, str):  # a Scheme too: its characters are no schemes
            raise ValueError(f"schemes: {self.schemes!r} is one string, not a sequence of schemes")
        schemes = tuple(_scheme(s, "schemes") for s in self.schemes)
        if not schemes:
            raise ValueError("schemes must be nonempty")
        object.__setattr__(self, "schemes", schemes)
        if self.x_axis not in (X_AXIS_SYMMETRIC, X_AXIS_RATIO):
            raise ValueError(
                f"x_axis must be {X_AXIS_SYMMETRIC!r} or {X_AXIS_RATIO!r}, "
                f"got {self.x_axis!r}"
            )
        grid = self.grid_db
        grid = default_grid(self.x_axis) if grid is None else tuple(float(x) for x in grid)
        if not grid:
            raise ValueError("grid_db must be nonempty")
        if len(grid) > MAX_GRID_POINTS:
            raise ValueError(f"grid_db: {len(grid)} levels are above the cap of {MAX_GRID_POINTS}")
        if not all(a < b for a, b in zip(grid, grid[1:])):  # False for a NaN neighbour
            raise ValueError("grid_db must be strictly increasing")
        object.__setattr__(self, "grid_db", grid)
        splits = tuple(float(t) + 0.0 for t in self.splits)  # + 0.0: a -0 split is 0
        if not splits:
            raise ValueError("splits must be nonempty")
        if len(splits) > MAX_SPLITS:
            raise ValueError(f"splits: {len(splits)} splits are above the cap of {MAX_SPLITS}")
        if any(not 0.0 <= t <= 1.0 for t in splits):
            raise ValueError("splits must lie in [0, 1]")
        object.__setattr__(self, "splits", splits)
        # Every level run_sweep converts must lie in the dB domain. The grid
        # is increasing, so its ends bound it; in ratio mode user 1 sits at
        # x + ratio_anchor_db.
        ends = (grid[0], grid[-1])
        levels = [("grid_db:", x) for x in ends] + [("ratio_anchor_db:", self.ratio_anchor_db)]
        if self.x_axis == X_AXIS_RATIO:
            levels += [("ratio_anchor_db: user 1", x + self.ratio_anchor_db) for x in ends]
        for name, level in levels:
            try:
                db_to_linear(level)
            except ValueError as exc:
                raise ValueError(f"{name} {exc}") from None


class SweepRow(NamedTuple):
    """One sweep result. The field order is the sweep CSV's column order."""

    x_db: float
    scheme: Scheme
    split: float
    sum_rate: float
    stderr: float  # 0 when fading is disabled


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Sweep results as columns over the (grid point, scheme, split) axes.

    `means[i, j, k]` and `errors[i, j, k]` are the sum rate and its
    standard error at `grid[i]`, `schemes[j]` and `splits[k]`; both are
    read-only float64 arrays, and `errors` is all zeros without fading.
    """

    grid: tuple
    schemes: tuple
    splits: tuple
    means: np.ndarray
    errors: np.ndarray

    @property
    def rows(self) -> tuple:
        """One `SweepRow` per cell, in (grid point, scheme, split) order."""
        keys = itertools.product(self.grid, self.schemes, self.splits)  # the C order of means
        cells = zip(keys, self.means.ravel().tolist(), self.errors.ravel().tolist())
        return tuple(SweepRow(*key, m, e) for key, m, e in cells)


def _sum_rate(scheme: Scheme, g1, g2, split: float, out=None):
    """Array-capable sum rate at linear products (p*gamma1, p*gamma2), p = 1."""
    share = split if scheme is Scheme.OMA else RECONFIG_SWEEP_ALPHA
    r1, r2 = SCHEMES[scheme](1.0, split, 1.0 - split, g1, g2, share)
    return np.add(r1, r2, out=out)


def _point_gains(cfg: SweepConfig, x_db: float) -> tuple:
    """Linear (p*gamma1, p*gamma2) at one grid level, as Python floats."""
    if cfg.x_axis == X_AXIS_SYMMETRIC:
        g = db_to_linear(x_db)
        return g, g
    g2 = db_to_linear(cfg.ratio_anchor_db)
    return db_to_linear(x_db) * g2, g2


def _planes(cfg: SweepConfig, gains: list):
    """(grid index or slice, g1, g2) planes of linear gains; fading draws user 1 first."""
    count = cfg.fading_samples
    if not count:
        g1, g2 = np.array(list(zip(*gains)))[..., None]
        yield slice(None), g1, g2
        return
    base = RngState(cfg.seed)
    for index, (g1, g2) in enumerate(gains):
        rng = base.derive(index)
        fade1 = np.abs(rayleigh_fades(rng, g1, count)) ** 2
        fade2 = np.abs(rayleigh_fades(rng, g2, count)) ** 2
        yield index, fade1, fade2


def _mean_and_stderr(values) -> tuple:
    """Last-axis mean and standard error of `values`, which this overwrites.

    The steps are those of numpy's own `mean` and `std(ddof=1)`, one sum for
    the mean and one for the squared deviations, so the bits are the same;
    the deviations reuse the buffer where `std` would copy it. A last-axis
    reduction of a C-contiguous array gives each row's 1-D result bit for
    bit. One sample has a standard error of 0.
    """
    count = values.shape[-1]
    mean = np.add.reduce(values, axis=-1, keepdims=True)
    np.true_divide(mean, count, out=mean)
    if count == 1:
        return mean[..., 0], 0.0
    np.subtract(values, mean, out=values)
    np.square(values, out=values)
    variance = np.add.reduce(values, axis=-1) / (count - 1)
    return mean[..., 0], np.sqrt(variance) / math.sqrt(count)


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Evaluate the configured schemes over the grid; deterministic per seed."""
    grid = cfg.grid_db
    cells = list(itertools.product(cfg.schemes, cfg.splits))  # the C order of means
    shape = (len(grid), len(cfg.schemes), len(cfg.splits))
    means, errors = np.empty(shape), np.empty(shape)
    cell_means, cell_errors = means.reshape(len(grid), -1), errors.reshape(len(grid), -1)
    for pts, g1, g2 in _planes(cfg, [_point_gains(cfg, x_db) for x_db in grid]):
        count = g1.shape[-1]
        step = max(1, PLANE_BUFFER_ELEMENTS // g1.size)
        for start in range(0, len(cells), step):
            chunk = slice(start, start + step)
            values = np.empty(g1.shape[:-1] + (len(cells[chunk]), count))
            for c, (scheme, split) in enumerate(cells[chunk]):
                _sum_rate(scheme, g1, g2, split, out=values[..., c, :])
            cell_means[pts, chunk], cell_errors[pts, chunk] = _mean_and_stderr(values)
            del values  # before the next chunk's buffer is allocated
    means.flags.writeable = errors.flags.writeable = False
    return SweepResult(grid, cfg.schemes, cfg.splits, means, errors)
