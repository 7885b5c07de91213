"""dB link budgets and seeded Rayleigh fading.

Randomness contract: uniform draws come from numpy's PCG64 stream and
Gaussian draws from an explicit Box-Muller transform over those uniforms,
so a (algorithm, seed, call order) triple pins down every sample. The
algorithm identifier written into CSV metadata is `RNG_ALGORITHM`.
Parallel consumers must not share a stream; derive one per worker with
``RngState.derive(worker_index)`` (base seed + index, mod 2^64).
"""

import math
from dataclasses import dataclass

import numpy as np

RNG_ALGORITHM = "pcg64+box-muller"

_TWO_PI = 2.0 * math.pi

# Largest |level| accepted for any p*gamma given in dB. At 1000 dB a gain is
# 1e100, so every rate stays finite, OMA's p*g/band included on any grid
# that fits in memory; 10**(x/10) itself overflows above about 3082.5 dB.
DB_LIMIT = 1000.0
# Largest p*gamma_i a LinkBudget accepts: DB_LIMIT in linear terms (1e100).
MAX_PG = 10.0 ** (DB_LIMIT / 10.0)


@dataclass(frozen=True)
class LinkBudget:
    """Total power plus normalized per-user gains.

    Rates depend only on the products p*gamma_i, so budgets built from dB
    levels normalize p to 1 and fold everything into the gains. Each
    product is bounded by MAX_PG, the DB_LIMIT scale, so every rate is
    finite.
    """

    p: float
    gamma1: float
    gamma2: float

    def __post_init__(self):
        if not 0.0 < self.p < math.inf:
            raise ValueError("total power p must be positive and finite")
        for name in ("gamma1", "gamma2"):
            g = getattr(self, name)
            if not (math.isfinite(g) and g >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative")
            if not self.p * g <= MAX_PG:
                raise ValueError(f"{name}: p*{name} = {self.p * g!r} is above {MAX_PG:g}")

    @property
    def pg1(self) -> float:
        return self.p * self.gamma1

    @property
    def pg2(self) -> float:
        return self.p * self.gamma2


def db_to_linear(level_db: float) -> float:
    """10**(level/10) for a level within +-DB_LIMIT dB; ValueError otherwise."""
    if not -DB_LIMIT <= level_db <= DB_LIMIT:
        raise ValueError(f"level {level_db!r} dB outside [-{DB_LIMIT:g}, {DB_LIMIT:g}] dB")
    return 10.0 ** (level_db / 10.0)


def from_db(p_gamma1_db: float, p_gamma2_db: float) -> LinkBudget:
    """Budget from per-user p*|h|^2/sigma^2 levels given in dB."""
    return LinkBudget(1.0, db_to_linear(p_gamma1_db), db_to_linear(p_gamma2_db))


class RngState:
    """Deterministic random stream: PCG64 uniforms, Box-Muller gaussians."""

    def __init__(self, seed: int):
        self.seed = int(seed) % 2**64
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def derive(self, offset: int) -> "RngState":
        """Stream for a worker or grid index: (seed + offset) mod 2^64."""
        return RngState((self.seed + int(offset)) % 2**64)

    def standard_normal(self, size: int) -> np.ndarray:
        """N(0, 1) samples via Box-Muller.

        Each uniform pair (u1, u2) yields the consecutive pair
        (r*cos(2*pi*u2), r*sin(2*pi*u2)) with r = sqrt(-2*ln(1 - u1)).
        """
        n = int(size)
        if n < 0:
            raise ValueError("size must be nonnegative")
        pairs = (n + 1) // 2
        u1 = 1.0 - self._gen.random(pairs)  # shift onto (0, 1] so the log stays finite
        u2 = self._gen.random(pairs)
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = _TWO_PI * u2
        z = np.empty(2 * pairs)
        np.multiply(radius, np.cos(angle), out=z[0::2])
        np.multiply(radius, np.sin(angle), out=z[1::2])
        return z[:n]


def rayleigh_fades(rng: RngState, mean_gain: float, size: int) -> np.ndarray:
    """Circularly-symmetric complex gains with E[|h|^2] = mean_gain."""
    if mean_gain <= 0.0:
        raise ValueError("mean_gain must be positive")
    z = rng.standard_normal(2 * int(size))  # (re, im) pairs, as complex128 lays them out
    return math.sqrt(mean_gain / 2.0) * z.view(np.complex128)
