"""Closed-form achievable rates for every supported scheme.

Two layers. The formula layer is two log2 forms plus OMA, composed into
one vectorized rate-pair function per scheme in `SCHEMES`; the region and
sweep grids evaluate that table, and the scalar API reads it with the
typed config objects and returns `RatePair`. Everything works in the
linear power domain; dB conversions stay at the edges (`from_db`).
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .channel import MAX_PG, LinkBudget
from .transceiver import PowerAllocation


class Scheme(str, enum.Enum):
    """A supported scheme; it prints as its CLI name, the value."""

    __str__ = str.__str__

    NOMA = "noma"
    RECONFIG_NOMA = "reconfig-noma"
    RAMA1 = "rama1"
    RAMA2 = "rama2"
    OMA = "oma"


@dataclass(frozen=True)
class RatePair:
    """Per-user rates in bits/s/Hz for one scheme evaluation."""

    r1: float
    r2: float
    scheme: Scheme

    def __post_init__(self):
        for name, r in (("r1", self.r1), ("r2", self.r2)):
            if not (math.isfinite(r) and r >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, got {r!r}")

    @property
    def sum_rate(self) -> float:
        return self.r1 + self.r2


# --- formula layer ---------------------------------------------------------
# Arguments are linear-domain powers and normalized gains; all helpers accept
# scalars or broadcastable numpy arrays.


# The log2 arguments of `free` and `masked`, kept apart so that
# `superposition` can pick each element's argument before one log2.
def _free_arg(p, g):
    return 1.0 + p * g


def _masked_arg(p_strong, p_weak, g):
    return 1.0 + p_weak * g / (p_strong * g + 1.0)


def free(p, g):
    """Interference-free rate: log2(1 + p*g)."""
    return np.log2(_free_arg(p, g))


def masked(p_strong, p_weak, g):
    """Rate with the strong user's superposed signal treated as noise."""
    return np.log2(_masked_arg(p_strong, p_weak, g))


def oma(p, g, band):
    """band * log2(1 + p*g/band); a zero share carries zero rate."""
    band = np.asarray(band, dtype=float)
    safe = np.where(band > 0.0, band, 1.0)
    return np.where(band > 0.0, band * np.log2(1.0 + p * g / safe), 0.0)


def superposition(p1, p2, g1, g2, a1, a2):
    """(R1, R2) under SIC at the stronger user; ties make user 1 strong.

    User i's gain is scaled by its beam share a_i: plain NOMA passes
    (1, 1), beam-divided NOMA (alpha, 1 - alpha).
    """
    if isinstance(g1, float) and isinstance(g2, float):  # one known order: no 0-d np.where
        if g1 >= g2:
            return free(a1 * p1, g1), masked(p1, p2, a2 * g2)
        return masked(p2, p1, a1 * g1), free(a2 * p2, g2)
    strong1 = g1 >= g2
    r1 = np.log2(np.where(strong1, _free_arg(a1 * p1, g1), _masked_arg(p2, p1, a1 * g1)))
    r2 = np.log2(np.where(strong1, _masked_arg(p1, p2, a2 * g2), _free_arg(a2 * p2, g2)))
    return r1, r2


# Scheme -> (p, p1, p2, g1, g2, share) -> (R1, R2), vectorized. p is the
# total power and p1/p2 the per-user powers; share is user 1's share of the
# resource the scheme divides (beam share alpha for reconfig-NOMA,
# bandwidth share beta for OMA) and is ignored by the other schemes.
SCHEMES = {
    Scheme.NOMA: lambda p, p1, p2, g1, g2, share: superposition(p1, p2, g1, g2, 1.0, 1.0),
    Scheme.RECONFIG_NOMA: lambda p, p1, p2, g1, g2, share: superposition(
        p1, p2, g1, g2, share, 1.0 - share
    ),
    Scheme.RAMA1: lambda p, p1, p2, g1, g2, share: (free(0.5 * p, g1), free(0.5 * p, g2)),
    Scheme.RAMA2: lambda p, p1, p2, g1, g2, share: (free(p1, g1), free(p2, g2)),
    Scheme.OMA: lambda p, p1, p2, g1, g2, share: (
        oma(p1, g1, share),
        oma(p2, g2, 1.0 - share),
    ),
}


# --- scalar API ------------------------------------------------------------


def _pair(scheme: Scheme, p, p1, p2, lb: LinkBudget, share=None) -> RatePair:
    r1, r2 = SCHEMES[scheme](p, p1, p2, lb.gamma1, lb.gamma2, share)
    return RatePair(float(r1), float(r2), scheme)


def noma_rates(alloc: PowerAllocation, lb: LinkBudget) -> RatePair:
    """Superposition-coding rates; the stronger user decodes with SIC."""
    return _pair(Scheme.NOMA, alloc.p, alloc.p1, alloc.p2, lb)


def reconfig_noma_rates(alloc: PowerAllocation, lb: LinkBudget, alpha: float) -> RatePair:
    """Superposition coding with the waveform split alpha/(1-alpha) across beams."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("power-division factor alpha must lie strictly inside (0, 1)")
    return _pair(Scheme.RECONFIG_NOMA, alloc.p, alloc.p1, alloc.p2, lb, alpha)


def rama1_rates(p: float, lb: LinkBudget) -> RatePair:
    """Both users interference-free at half the total power each."""
    return _pair(Scheme.RAMA1, p, 0.5 * p, 0.5 * p, lb)


def rama2_rates(alloc: PowerAllocation, lb: LinkBudget) -> RatePair:
    """Both users interference-free at their allocated powers."""
    return _pair(Scheme.RAMA2, alloc.p, alloc.p1, alloc.p2, lb)


def oma_rates(alloc: PowerAllocation, lb: LinkBudget, beta: float) -> RatePair:
    """Orthogonal baseline: user 1 gets bandwidth share beta, user 2 the rest."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError("bandwidth share beta must lie in [0, 1]")
    return _pair(Scheme.OMA, alloc.p, alloc.p1, alloc.p2, lb, beta)


def _check_p_gamma(p_gamma: float) -> None:
    if not 0.0 <= p_gamma <= MAX_PG:
        raise ValueError(f"p_gamma {p_gamma!r} outside [0, {MAX_PG:g}]")


def noma_sum_symmetric(p_gamma: float) -> float:
    """NOMA sum rate at equal per-user SNR; the split telescopes away."""
    _check_p_gamma(p_gamma)
    return math.log2(1.0 + p_gamma)


def rama1_sum_symmetric(p_gamma: float) -> float:
    """Equal-split interference-free sum rate at equal per-user SNR."""
    _check_p_gamma(p_gamma)
    return math.log2(1.0 + p_gamma + 0.25 * p_gamma * p_gamma)


def case2_holds(alloc: PowerAllocation, lb: LinkBudget) -> bool:
    """Exact asymmetric-channel dominance test for the equal-split chain.

    Compares the interference-free NOMA product bound against the equal
    split: (1 + p1*g1)(1 + p2*g2) <= (1 + p*g1/2)(1 + p*g2/2).
    """
    if lb.gamma1 < lb.gamma2:
        raise ValueError("asymmetric ordering violated: gamma1 >= gamma2 required")
    lhs = (1.0 + alloc.p1 * lb.gamma1) * (1.0 + alloc.p2 * lb.gamma2)
    rhs = (1.0 + 0.5 * alloc.p * lb.gamma1) * (1.0 + 0.5 * alloc.p * lb.gamma2)
    return lhs <= rhs


def case2_sufficient(alloc: PowerAllocation) -> bool:
    """Sufficient condition for `case2_holds`: at most half the power to user 1."""
    return alloc.p1 <= 0.5 * alloc.p
