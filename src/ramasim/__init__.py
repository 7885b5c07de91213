"""Two-user downlink multiple-access simulator.

Rate formulas, symbol-level transmit chains, achievable-rate-region
tracing, and sum-rate sweeps for five schemes: superposition-coded NOMA,
reconfigurable-antenna NOMA (power divided across two beams), RAMA-I
(partial CSI, equal split plus per-beam phase rotation), RAMA-II (full
CSI, per-user powers plus amplitude scaling), and an OFDMA baseline.
"""

__version__ = "0.1.0"

from .channel import RNG_ALGORITHM, LinkBudget, RngState, from_db, rayleigh_fades
from .constellations import Constellation, SymbolRelation, make_psk, make_qam, relate
from .rates import (
    RatePair,
    Scheme,
    noma_rates,
    noma_sum_symmetric,
    rama1_rates,
    rama1_sum_symmetric,
    rama2_rates,
    reconfig_noma_rates,
)
from .region import RateRegion, r2_at_r1, trace_region
from .sweep import (
    SweepConfig,
    SweepResult,
    SweepRow,
    default_grid,
    run_sweep,
)
from .transceiver import (
    PowerAllocation,
    TxSignal,
    rama1_transmit,
    rama2_presplit,
    rama2_transmit,
    superpose,
)

__all__ = [
    "RNG_ALGORITHM",
    "Constellation",
    "LinkBudget",
    "PowerAllocation",
    "RatePair",
    "RateRegion",
    "RngState",
    "Scheme",
    "SweepConfig",
    "SweepResult",
    "SweepRow",
    "SymbolRelation",
    "TxSignal",
    "default_grid",
    "from_db",
    "make_psk",
    "make_qam",
    "noma_rates",
    "noma_sum_symmetric",
    "r2_at_r1",
    "rama1_rates",
    "rama1_sum_symmetric",
    "rama1_transmit",
    "rama2_presplit",
    "rama2_rates",
    "rama2_transmit",
    "rayleigh_fades",
    "reconfig_noma_rates",
    "relate",
    "run_sweep",
    "superpose",
    "trace_region",
]
