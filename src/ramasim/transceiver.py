"""Symbol-level transmit chains.

Covers classic superposition coding, beam power division, and the
phase-rotation chains that synthesize the second user's symbol on its own
antenna beam from a single upconverted reference symbol. Amplitudes here
are exact algebra on complex scalars; acceptance checks hold the chain
outputs to 1e-12 of the directly encoded symbols.
"""

import math
from dataclasses import dataclass

from .constellations import relate


@dataclass(frozen=True)
class PowerAllocation:
    """Total transmit power and its per-user split (p1 + p2 = p)."""

    p: float
    p1: float
    p2: float

    def __post_init__(self):
        if self.p1 < 0.0 or self.p2 < 0.0:
            raise ValueError("per-user powers must be nonnegative")
        if abs(self.p1 + self.p2 - self.p) > 1e-12 * max(1.0, self.p):
            raise ValueError("p1 + p2 must equal the total power p")

    @classmethod
    def from_fraction(cls, p: float, fraction1: float) -> "PowerAllocation":
        """Give user 1 the share `fraction1` of p; the remainder goes to user 2."""
        if not 0.0 <= fraction1 <= 1.0:
            raise ValueError("fraction1 must lie in [0, 1]")
        p1 = fraction1 * p
        return cls(p, p1, p - p1)

    @property
    def fraction1(self) -> float:
        return self.p1 / self.p


@dataclass(frozen=True)
class TxSignal:
    """Per-beam transmit symbols, one per antenna feed.

    The power budget holds in expectation over the constellation, not per
    symbol: full-CSI amplitude scaling makes |tsa1|^2 + |tsa2|^2 fluctuate
    around p for QAM while averaging back to p under uniform signaling.
    """

    tsa1: complex
    tsa2: complex

    def total_power(self) -> float:
        return abs(self.tsa1) ** 2 + abs(self.tsa2) ** 2


def superpose(s1: complex, s2: complex, alloc: PowerAllocation) -> complex:
    """Both users on one waveform: sqrt(p1)*s1 + sqrt(p2)*s2."""
    return math.sqrt(alloc.p1) * s1 + math.sqrt(alloc.p2) * s2


def reconfig_noma_split(x: complex, alpha: float) -> TxSignal:
    """Divide one waveform across two beams with power shares alpha and 1-alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("power-division factor alpha must lie strictly inside (0, 1)")
    return TxSignal(math.sqrt(alpha) * x, math.sqrt(1.0 - alpha) * x)


def rama1_transmit(s1: complex, s2: complex, p: float) -> TxSignal:
    """Partial-CSI chain: equal power split, beam 2 phase-rotated onto s2.

    Only equal-modulus (PSK-style) pairs are accepted: a pure rotation under
    an equal split cannot realize an amplitude difference.
    """
    rel = relate(s1, s2)
    if rel.s_bar != 1.0:
        raise ValueError(
            "PSK-modulus symbols required: |s1| != |s2|, and an equal power "
            "split with a pure phase rotation cannot change amplitude"
        )
    amp = math.sqrt(0.5 * p)
    return TxSignal(amp * s1, amp * rel.apply(s1))


def rama2_transmit(s1: complex, s2: complex, alloc: PowerAllocation) -> TxSignal:
    """Full-CSI chain: per-user powers, beam 2 amplitude-scaled and rotated.

    Beam 2 carries sqrt(p2) * s1 * s_bar * e^(j*delta_theta), which equals
    sqrt(p2) * s2 exactly, so arbitrary QAM pairs are supported.
    """
    rel = relate(s1, s2)
    return TxSignal(math.sqrt(alloc.p1) * s1, math.sqrt(alloc.p2) * rel.apply(s1))


def rama2_presplit(s1: complex, s2: complex, alloc: PowerAllocation) -> complex:
    """Single-RF-chain signal ahead of the beam split: sqrt(p1 + p2*s_bar^2)*s1."""
    rel = relate(s1, s2)
    return math.sqrt(alloc.p1 + alloc.p2 * rel.s_bar**2) * s1
