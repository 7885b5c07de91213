"""Symbol-level transmit chains.

Covers classic superposition coding and the phase-rotation chains that
synthesize the second user's symbol on its own antenna beam from a single
upconverted reference symbol. Amplitudes here
are exact algebra on complex scalars; acceptance checks hold the chain
outputs to 1e-12 of the directly encoded symbols. `verify_chain` runs the
RAMA chains over every ordered symbol pair of a constellation at once, on
numpy float planes, with the same bits as the scalar chains.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import constellations
from .channel import MAX_PG
from .constellations import TWO_PI, Constellation, relate

# signal-check's default power splits p1/p. They also size rama2's cap:
# verify_chain's work, splits * M^2, may not pass that of qam-1024 (MAX_ORDER)
# with these splits. The total power is capped at channel.MAX_PG (1e100), as
# the gains are: verify_chain squares chain amplitudes up to about 1e3 * p
# (qam-1024's largest squared amplitude ratio is 961), so every square stays finite.
DEFAULT_CHAIN_SPLITS = (0.1, 0.3, 0.5, 0.7, 0.9)

RAMA1_MODULUS_ERROR = (
    "PSK-modulus symbols required: |s1| != |s2|, and an equal power "
    "split with a pure phase rotation cannot change amplitude"
)


@dataclass(frozen=True)
class PowerAllocation:
    """Total transmit power and its per-user split (p1 + p2 = p)."""

    p: float
    p1: float
    p2: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.p, self.p1, self.p2))):
            raise ValueError("powers p, p1 and p2 must be finite")
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


def rama1_transmit(s1: complex, s2: complex, p: float) -> TxSignal:
    """Partial-CSI chain: equal power split, beam 2 phase-rotated onto s2.

    Only equal-modulus (PSK-style) pairs are accepted: a pure rotation under
    an equal split cannot realize an amplitude difference.
    """
    rel = relate(s1, s2)
    if rel.s_bar != 1.0:
        raise ValueError(RAMA1_MODULUS_ERROR)
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


# --- all-pairs chain check ----------------------------------------------------
# Row i of every M x M plane holds s1 = points[i], column k holds s2 =
# points[k]. The report prints errors near 1e-16, so each step repeats the
# scalar chain's floating-point operations exactly. numpy's complex abs and
# product, arctan2 and array-exponent power round differently from Python's,
# and Python's x ** 2 (libm pow) is not always x * x. Hence moduli and
# phases come from Python per point, products are spelled out in real
# planes, |.| is np.hypot, and squares go through Python's ** one row at a
# time.


def _scale(a, re, im):
    """Real-by-complex product as Python forms it: (a + 0j) * (re + j*im).

    IEEE + and * commute, so this is also (re + j*im) * (a + 0j).
    """
    return a * re - 0.0 * im, a * im + 0.0 * re


def _max_gap(amp, re, im, re2, im2) -> float:
    """max |amp*(re + j*im) - amp*s2| over all pairs; s2 = re2 + j*im2 per column."""
    tr, ti = _scale(amp, re, im)
    dr, di = _scale(amp, re2, im2)
    return float(np.hypot(tr - dr, ti - di).max())


def verify_chain(constellation: Constellation, scheme, splits, p: float) -> tuple:
    """Worst chain and power errors of a RAMA scheme over all M^2 symbol pairs.

    For 'rama2' this returns one (max |tsa2 - direct|, |mean power - p|) pair
    per split p1/p: tsa2 from `rama2_transmit`, direct = sqrt(p2)*s2, and the
    mean of |`rama2_presplit`|^2. For 'rama1' the split is fixed at one half,
    `splits` is unused, and the single pair uses `rama1_transmit` and its
    `total_power`; a pair of unequal moduli raises the same ValueError as
    `rama1_transmit`. Every value equals the scalar chains' result bit for bit.
    p must lie in (0, channel.MAX_PG]; NaN is refused too. For 'rama2',
    `splits` must be nonempty, each split in [0, 1] (not NaN), and
    len(splits) * M^2 must not pass len(DEFAULT_CHAIN_SPLITS) * MAX_ORDER^2.
    """
    if scheme not in ("rama1", "rama2"):
        raise ValueError(f"no transmit chain to verify for scheme {scheme!r}")
    if not p > 0.0:
        raise ValueError("total_power must be positive")
    if p > MAX_PG:
        raise ValueError(f"total_power: {p!r} is above the cap of {MAX_PG:g}")
    points = constellation.points
    pairs = len(points) ** 2
    cap = len(DEFAULT_CHAIN_SPLITS) * constellations.MAX_ORDER**2
    if scheme == "rama2":
        if not splits:
            raise ValueError("splits: split list must be nonempty")
        for split in splits:
            if not 0.0 <= split <= 1.0:  # False for NaN
                raise ValueError(f"splits: split {split!r} outside [0, 1]")
        if len(splits) * pairs > cap:
            raise ValueError(
                f"splits: {len(splits)} splits of {pairs} symbol pairs each are "
                f"{len(splits) * pairs} pair checks, above the cap of {cap}"
            )
    re = np.array([s.real for s in points])
    im = np.array([s.imag for s in points])
    re1, im1 = re[:, None], im[:, None]
    modulus = np.array([abs(s) for s in points])
    phase = np.array([cmath.phase(s) for s in points])

    # relate(s1, s2) on every pair
    s_bar = modulus / modulus[:, None]
    s_bar[np.abs(s_bar - 1.0) < 1e-12] = 1.0
    delta = np.mod(phase - phase[:, None], TWO_PI)
    delta[delta >= TWO_PI] -= TWO_PI
    if scheme == "rama1" and not np.all(s_bar == 1.0):
        raise ValueError(RAMA1_MODULUS_ERROR)

    # rel.apply(s1) = (s1 * s_bar) * (cos(delta) + j*sin(delta))
    x, y = _scale(s_bar, re1, im1)
    cos, sin = np.cos(delta), np.sin(delta)
    ar, ai = x * cos - y * sin, x * sin + y * cos
    del x, y, cos, sin, delta

    if scheme == "rama1":
        amp = math.sqrt(0.5 * p)
        chain = _max_gap(amp, ar, ai, re, im)
        tsa1_power = [abs(amp * s) ** 2 for s in points]
        tsa2_abs = np.hypot(*_scale(amp, ar, ai))
        total = math.fsum(
            a + v**2 for a, row in zip(tsa1_power, tsa2_abs) for v in row.tolist()
        )
        return ((chain, abs(total / pairs - p)),)

    s_bar_sq = np.empty_like(s_bar)
    for out, row in zip(s_bar_sq, s_bar):
        out[:] = [v**2 for v in row.tolist()]
    errors = []
    for split in splits:
        alloc = PowerAllocation.from_fraction(p, split)
        chain = _max_gap(math.sqrt(alloc.p2), ar, ai, re, im)
        presplit_amp = np.sqrt(alloc.p1 + alloc.p2 * s_bar_sq)
        presplit_abs = np.hypot(*_scale(presplit_amp, re1, im1))
        total = math.fsum(v**2 for row in presplit_abs for v in row.tolist())
        errors.append((chain, abs(total / pairs - p)))
    return tuple(errors)
