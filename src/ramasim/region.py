"""Achievable-rate-region tracing, Pareto filtering and frontier lookup."""

from dataclasses import dataclass

import numpy as np

from .channel import LinkBudget
from .rates import SCHEMES, Scheme

# Allocation points one trace may evaluate: n^2 for OMA, n otherwise. Each
# point costs about a dozen float64 planes (OMA n = 2048: ~0.4 GB peak RSS).
MAX_REGION_POINTS = 2**22


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
    grid_resolution: int

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


def _pareto_mask(r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Mask of points not dominated (>= in both coordinates, > in one).

    Exact duplicates do not dominate each other, so they all survive.
    """
    n = r1.size
    order = np.lexsort((-r2, -r1))  # r1 descending, r2 descending within ties
    s1 = r1[order]
    s2 = r2[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    np.not_equal(s1[1:], s1[:-1], out=new_group[1:])
    group_id = np.cumsum(new_group) - 1
    group_max = s2[new_group]  # first point of each r1 group has that group's max r2
    best_before = np.concatenate(([-np.inf], np.maximum.accumulate(group_max)[:-1]))
    keep = (s2 == group_max[group_id]) & (group_max[group_id] > best_before[group_id])
    mask = np.zeros(n, dtype=bool)
    mask[order[keep]] = True
    return mask


def _frontier(scheme: Scheme, r1: np.ndarray, r2: np.ndarray, n: int) -> RateRegion:
    mask = _pareto_mask(r1, r2)
    f1 = r1[mask]
    f2 = r2[mask]
    order = np.argsort(f1, kind="stable")
    f1 = f1[order]
    f2 = f2[order]
    keep = np.empty(f1.size, dtype=bool)
    keep[0] = True
    np.not_equal(f1[1:], f1[:-1], out=keep[1:])  # collapse exact duplicates
    return RateRegion(scheme, f1[keep], f2[keep], n)


def trace_region(scheme, lb: LinkBudget, n: int = 1000) -> RateRegion:
    """Frontier from an n-point sweep of the scheme's allocation parameters.

    The power split p1/p runs over n points of [0, 1] (endpoints included).
    OMA sweeps the (bandwidth share, power split) product grid; RAMA-I has
    no free parameter and collapses to a single point. Reconfigurable NOMA
    adds a beam share to the split and has no region here.
    """
    scheme = Scheme(scheme)
    if scheme is Scheme.RECONFIG_NOMA:
        raise ValueError(f"region tracing is not defined for scheme {scheme.value!r}")
    if n < 2:
        raise ValueError("grid resolution n must be >= 2")
    points = n * n if scheme is Scheme.OMA else n
    if points > MAX_REGION_POINTS:
        raise ValueError(
            f"n = {n} gives {points} {scheme.value} allocation points, "
            f"above the cap of {MAX_REGION_POINTS}"
        )
    p = lb.p
    t = np.linspace(0.0, 1.0, n)
    band = None
    if scheme is Scheme.OMA:
        band, t = np.meshgrid(t, t, indexing="ij")
    r1, r2 = SCHEMES[scheme](p, t * p, (1.0 - t) * p, lb.gamma1, lb.gamma2, band)
    return _frontier(scheme, np.ravel(r1), np.ravel(r2), n)


def r2_at_r1(region: RateRegion, r1_target: float) -> float:
    """Frontier height at a target r1 by linear interpolation.

    Targets below the first frontier point fall back to the maximum r2
    (any rate below the frontier is achievable); targets beyond the
    frontier's reach are an error.
    """
    f1, f2 = region.r1, region.r2
    if r1_target < 0.0 or r1_target > f1[-1]:
        raise ValueError(
            f"r1_target {r1_target!r} outside the frontier range [0, {f1[-1]!r}]"
        )
    if r1_target <= f1[0]:
        return float(f2[0])
    return float(np.interp(r1_target, f1, f2))
