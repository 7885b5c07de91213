"""PSK and QAM constellations plus inter-symbol relations.

A `Constellation` is its points alone; its order is `len(points)`. Every
one is normalized to unit average power and stored in a fixed, documented
order so identical inputs always give identical output downstream: PSK
points sit at angles 2*pi*k/M for k = 0..M-1 (increasing angle from the
positive real axis), QAM points walk the odd-integer coordinate grid
row-major (real part ascending in the outer loop, imaginary part
ascending in the inner loop).
"""

import cmath
import math
import numbers
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

# Tolerance of the unit average power check.
_POWER_TOL = 1e-12

# Largest order make_psk and make_qam build. The all-pairs chain check holds
# about a dozen order^2 float planes (qam-1024 rama2: ~1.7 s, ~110 MB peak RSS).
MAX_ORDER = 1024


@dataclass(frozen=True)
class Constellation:
    """Distinct, finite, nonzero symbols with E[|s|^2] = 1 under uniform signaling."""

    points: tuple[complex, ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("points must be nonempty")
        for s in self.points:
            if not cmath.isfinite(s):
                raise ValueError(f"constellation point {s!r} is not finite")
        power = self.average_power()
        if abs(power - 1.0) > _POWER_TOL:
            raise ValueError(f"average power {power!r} is not 1 within {_POWER_TOL}")
        if 0 in self.points:  # relate divides by |s1|
            raise ValueError("constellation points must not include the origin")
        if len(set(self.points)) != len(self.points):
            raise ValueError("constellation points must be pairwise distinct")

    def average_power(self) -> float:
        return math.fsum(abs(s) ** 2 for s in self.points) / len(self.points)


@dataclass(frozen=True)
class SymbolRelation:
    """Amplitude ratio and phase offset mapping one symbol onto another."""

    delta_theta: float  # radians, normalized to [0, 2*pi)
    s_bar: float        # |s2| / |s1|

    def __post_init__(self):
        if not 0.0 <= self.delta_theta < TWO_PI:
            raise ValueError("delta_theta must lie in [0, 2*pi)")
        if not self.s_bar >= 0.0:
            raise ValueError("amplitude ratio must be nonnegative")

    def apply(self, s1: complex) -> complex:
        """Reconstruct the target symbol: s1 * s_bar * e^(j*delta_theta)."""
        return s1 * self.s_bar * cmath.exp(1j * self.delta_theta)


def _check_order(order: int) -> None:
    if not isinstance(order, numbers.Integral):
        raise ValueError(f"order: {order!r} is not an integer")
    if order > MAX_ORDER:
        raise ValueError(f"order: {order} is above the cap of {MAX_ORDER}")


def make_psk(order: int) -> Constellation:
    """Unit-circle constellation with `order` equally spaced phases."""
    _check_order(order)
    if order < 2:
        raise ValueError(f"order: PSK order must be >= 2, got {order}")
    points = tuple(cmath.exp(1j * TWO_PI * k / order) for k in range(order))
    return Constellation(points)


def make_qam(order: int) -> Constellation:
    """Square QAM on the odd-integer grid, scaled to unit average power.

    For order m^2 the raw coordinates are {-(m-1), ..., -1, +1, ..., m-1}
    per axis; the common scale factor is 1/sqrt(mean raw power), e.g.
    1/sqrt(10) for 16-QAM.
    """
    _check_order(order)
    if order < 4 or math.isqrt(order) ** 2 != order:
        raise ValueError(f"order: QAM order must be a perfect square >= 4, got {order}")
    root = math.isqrt(order)
    coords = range(-(root - 1), root, 2)
    # Integer arithmetic keeps the normalization target exact.
    mean_raw = sum(a * a + b * b for a in coords for b in coords) / order
    scale = math.sqrt(mean_raw)
    points = tuple(complex(re, im) / scale for re in coords for im in coords)
    return Constellation(points)


def relate(s1: complex, s2: complex) -> SymbolRelation:
    """Express s2 as s1 scaled by |s2|/|s1| and rotated by the phase difference."""
    if s1 == 0:
        raise ValueError("amplitude ratio is undefined for a zero reference symbol")
    s_bar = abs(s2) / abs(s1)
    if abs(s_bar - 1.0) < 1e-12:
        # Equal-modulus pairs must report a ratio of exactly one so pure-rotation
        # chains can rely on `s_bar == 1.0`.
        s_bar = 1.0
    delta = (cmath.phase(s2) - cmath.phase(s1)) % TWO_PI
    if delta >= TWO_PI:  # float wrap: tiny negative inputs can round up to 2*pi
        delta -= TWO_PI
    return SymbolRelation(delta, s_bar)
