"""Achievable-rate-region tracing, Pareto filtering and frontier lookup."""

import numbers
from dataclasses import dataclass

import numpy as np

from .channel import LinkBudget
from .rates import SCHEMES, Scheme, _scheme

# Allocation points one trace may evaluate: n^2 for OMA, n otherwise. Rates
# are streamed in blocks, and each pre-filter survivor costs about a dozen
# float64 planes in the exact pass. Peak RSS at the cap: OMA n = 2048 ~50 MB;
# NOMA and RAMA-II keep nearly every point, n = 2^22 ~0.4 GB.
MAX_REGION_POINTS = 2**22

# r1 bins of the dominance pre-filter that runs before the exact Pareto pass.
PREFILTER_BINS = 4096
# Allocation points per streamed block (OMA: rounded down to whole
# bandwidth-share rows); only the pre-filter's survivors outlive their block.
BLOCK_POINTS = 2**16


@dataclass(frozen=True, eq=False)
class RateRegion:
    """Pareto frontier of one scheme's achievable (R1, R2) pairs.

    `r1` and `r2` are read-only float arrays, r1 strictly increasing and r2
    nonincreasing, so `r1[-1]` is the largest user-1 rate and `r2[0]` the
    largest user-2 rate.
    """

    scheme: Scheme
    r1: np.ndarray
    r2: np.ndarray

    def __post_init__(self):
        r1 = np.array(self.r1, dtype=float)
        r2 = np.array(self.r2, dtype=float)
        if r1.ndim != 1 or r1.shape != r2.shape:
            raise ValueError("frontier r1 and r2 must be 1-D arrays of equal length")
        if r1.size == 0:
            raise ValueError("frontier must be nonempty")
        if not np.all(np.isfinite(r1) & np.isfinite(r2) & (r1 >= 0.0) & (r2 >= 0.0)):
            raise ValueError("frontier rates must be finite and nonnegative")
        if np.any(r1[1:] <= r1[:-1]):
            raise ValueError("frontier r1 values must be strictly increasing")
        if np.any(r2[1:] > r2[:-1]):
            raise ValueError("frontier r2 values must be nonincreasing")
        r1.flags.writeable = False
        r2.flags.writeable = False
        object.__setattr__(self, "r1", r1)
        object.__setattr__(self, "r2", r2)

    @property
    def max_r1(self) -> float:
        return float(self.r1[-1])

    @property
    def max_r2(self) -> float:
        return float(self.r2[0])


def _prefilter(r1: np.ndarray, r2: np.ndarray, scale: float, best: np.ndarray) -> np.ndarray:
    """Mask of points whose r2 beats every r1 bin above their own.

    The bin index min(floor(r1*scale), K-1) never falls as r1 grows, so a
    higher bin holds a strictly larger r1 and each dropped point is
    dominated by a real point: the filter is exact. `best` holds the K
    bins' largest r2 so far and is raised in place by this call's points.
    """
    bins = np.minimum(r1 * scale, best.size - 1).astype(np.intp)
    np.maximum.at(best, bins, r2)
    above = np.append(np.maximum.accumulate(best[:0:-1])[::-1], -np.inf)
    return r2 > above[bins]


def _frontier(scheme: Scheme, r1: np.ndarray, r2: np.ndarray) -> RateRegion:
    """Points not dominated (>= in both coordinates, > in one), r1 ascending.

    One sort by (r1, r2): the last point of each equal-r1 run holds that
    run's largest r2 and stays when it beats every r2 at a larger r1.
    Exact duplicates collapse to one point.
    """
    order = np.lexsort((r2, r1))
    s1, s2 = r1[order], r2[order]
    last = np.append(s1[1:] != s1[:-1], True)
    s1, s2 = s1[last], s2[last]
    above = np.append(np.maximum.accumulate(s2[:0:-1])[::-1], -np.inf)
    keep = s2 > above
    return RateRegion(scheme, s1[keep], s2[keep])


def trace_region(scheme, lb: LinkBudget, n: int) -> RateRegion:
    """Frontier from an n-point sweep of the scheme's allocation parameters.

    The power split p1/p runs over n points of [0, 1] (endpoints included).
    OMA sweeps the (bandwidth share, power split) product grid; RAMA-I has
    no free parameter and collapses to a single point. Reconfigurable NOMA
    adds a beam share to the split and has no region here.
    """
    scheme = _scheme(scheme, "scheme")
    if scheme is Scheme.RECONFIG_NOMA:
        raise ValueError(f"region tracing is not defined for scheme {scheme.value!r}")
    if not isinstance(n, numbers.Integral):
        raise ValueError(f"grid_n: grid resolution n = {n!r} is not an integer")
    if n < 2:
        raise ValueError("grid_n: grid resolution n must be >= 2")
    points = n * n if scheme is Scheme.OMA else n
    if points > MAX_REGION_POINTS:
        raise ValueError(
            f"grid_n: n = {n} gives {points} {scheme.value} allocation points, "
            f"above the cap of {MAX_REGION_POINTS}"
        )
    t = np.linspace(0.0, 1.0, n)
    if scheme is Scheme.OMA:  # (bandwidth share) x (power split) rows
        rows = max(1, BLOCK_POINTS // n)
        blocks = ((t[i : i + rows, None], t) for i in range(0, n, rows))
    else:
        blocks = ((None, t[i : i + BLOCK_POINTS]) for i in range(0, n, BLOCK_POINTS))
    hi = float(np.log2(1.0 + lb.pg1))  # bounds every scheme's r1; OMA's by concavity
    scale = PREFILTER_BINS / hi if 0.0 < hi < np.inf else 0.0  # 0: one bin, no pruning
    best = np.full(PREFILTER_BINS, -np.inf)
    kept1, kept2 = [], []
    for band, split in blocks:
        r1, r2 = SCHEMES[scheme](lb.p, split * lb.p, (1.0 - split) * lb.p,
                                 lb.gamma1, lb.gamma2, band)
        r1, r2 = np.ravel(r1), np.ravel(r2)
        keep = _prefilter(r1, r2, scale, best)
        kept1.append(r1[keep])
        kept2.append(r2[keep])
    r1, r2 = np.concatenate(kept1), np.concatenate(kept2)
    del kept1, kept2  # the exact pass needs only one copy of the survivors
    return _frontier(scheme, r1, r2)


def r2_at_r1(region: RateRegion, r1_target: float) -> float:
    """Frontier height at a target r1 by linear interpolation.

    Targets below the first frontier point fall back to the maximum r2
    (any rate below the frontier is achievable); targets beyond the
    frontier's reach are an error.
    """
    f1, f2 = region.r1, region.r2
    if not 0.0 <= r1_target <= f1[-1]:
        raise ValueError(
            f"r1_target {r1_target!r} outside the frontier range [0, {f1[-1]!r}]"
        )
    return float(np.interp(r1_target, f1, f2))
