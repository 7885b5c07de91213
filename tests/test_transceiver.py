import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramasim.channel import MAX_PG
from ramasim.constellations import Constellation, make_psk, make_qam
from ramasim.transceiver import (
    PowerAllocation,
    TxSignal,
    rama1_transmit,
    rama2_presplit,
    rama2_transmit,
    superpose,
    verify_chain,
)


def test_allocation_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        PowerAllocation(1.0, -0.1, 1.1)
    with pytest.raises(ValueError, match="total power"):
        PowerAllocation(1.0, 0.6, 0.6)
    with pytest.raises(ValueError, match="fraction1"):
        PowerAllocation.from_fraction(1.0, 1.5)
    with pytest.raises(ValueError, match="finite"):
        PowerAllocation(math.nan, math.nan, math.nan)
    with pytest.raises(ValueError, match="finite"):
        PowerAllocation.from_fraction(math.inf, 0.5)  # p2 = inf - inf = nan


def test_allocation_from_fraction_sums_exactly():
    alloc = PowerAllocation.from_fraction(2.5, 0.3)
    assert alloc.p1 + alloc.p2 == 2.5


def test_superpose_known_value():
    alloc = PowerAllocation.from_fraction(1.0, 0.25)
    x = superpose(1 + 0j, 1 + 0j, alloc)
    # oracle: sqrt(0.25) + sqrt(0.75)
    assert abs(x - (0.5 + 0.8660254037844386)) <= 1e-12


def test_superpose_antipodal_cancellation():
    alloc = PowerAllocation.from_fraction(4.0, 0.5)
    assert superpose(1 + 0j, -1 + 0j, alloc) == 0j


@pytest.mark.parametrize("p", [1.0, 2.5])
def test_superpose_average_power_over_psk_pairs(p):
    const = make_psk(8)
    alloc = PowerAllocation.from_fraction(p, 0.3)
    total = math.fsum(
        abs(superpose(s1, s2, alloc)) ** 2 for s1 in const.points for s2 in const.points
    )
    assert abs(total / 64 - p) <= 1e-12


@pytest.mark.parametrize("p", [1.0, 3.7])
def test_rama1_all_psk_pairs_match_direct_encoding(p):
    const = make_psk(8)
    amp = math.sqrt(0.5 * p)
    worst = 0.0
    for s1 in const.points:
        for s2 in const.points:
            tx = rama1_transmit(s1, s2, p)
            worst = max(worst, abs(tx.tsa1 - amp * s1), abs(tx.tsa2 - amp * s2))
            assert abs(tx.total_power() - p) <= 1e-12 * max(1.0, p)
    assert worst <= 1e-12


def test_rama1_identical_symbols():
    tx = rama1_transmit(1j, 1j, 2.0)
    assert abs(tx.tsa1 - 1j) <= 1e-12
    assert abs(tx.tsa2 - 1j) <= 1e-12


def test_rama1_rejects_amplitude_mismatch():
    const = make_qam(16)
    inner = const.points[5]   # (-1-1j)/sqrt(10)
    outer = const.points[0]   # (-3-3j)/sqrt(10)
    with pytest.raises(ValueError, match="PSK-modulus"):
        rama1_transmit(inner, outer, 1.0)


def test_rama1_accepts_equal_modulus_qam_pair():
    # the guard is on amplitudes, not on the constellation label
    const = make_qam(16)
    a = complex(1, 3) / math.sqrt(10)
    b = complex(3, 1) / math.sqrt(10)
    assert a in const.points and b in const.points
    tx = rama1_transmit(a, b, 1.0)
    assert abs(tx.tsa2 - math.sqrt(0.5) * b) <= 1e-12


@pytest.mark.parametrize("split", [0.0, 0.1, 0.5, 0.9, 1.0])
def test_rama2_all_qam_pairs_match_direct_encoding(split):
    const = make_qam(16)
    alloc = PowerAllocation.from_fraction(1.0, split)
    amp2 = math.sqrt(alloc.p2)
    worst = 0.0
    for s1 in const.points:
        for s2 in const.points:
            tx = rama2_transmit(s1, s2, alloc)
            worst = max(worst, abs(tx.tsa2 - amp2 * s2))
    assert worst <= 1e-12


def test_rama2_presplit_power_identity():
    const = make_qam(16)
    alloc = PowerAllocation.from_fraction(1.0, 0.3)
    worst = 0.0
    for s1 in const.points:
        for s2 in const.points:
            x = rama2_presplit(s1, s2, alloc)
            direct = alloc.p1 * abs(s1) ** 2 + alloc.p2 * abs(s2) ** 2
            worst = max(worst, abs(abs(x) ** 2 - direct))
    assert worst <= 1e-12


def test_rama2_presplit_average_power_is_p():
    const = make_qam(16)
    for p, split in [(1.0, 0.3), (2.0, 0.7)]:
        alloc = PowerAllocation.from_fraction(p, split)
        total = math.fsum(
            abs(rama2_presplit(s1, s2, alloc)) ** 2
            for s1 in const.points
            for s2 in const.points
        )
        assert abs(total / 256 - p) <= 1e-12 * max(1.0, p)


def test_rama2_rejects_zero_reference_symbol():
    alloc = PowerAllocation.from_fraction(1.0, 0.5)
    with pytest.raises(ValueError, match="zero reference"):
        rama2_transmit(0j, 1 + 0j, alloc)


def test_tx_signal_total_power():
    tx = TxSignal(3 + 0j, 4j)
    assert math.isclose(tx.total_power(), 25.0, rel_tol=1e-12)


# --- verify_chain against the scalar chains -----------------------------------


def _scalar_chain(const, scheme, splits, p):
    """verify_chain's contract as a loop of scalar chain calls over every pair."""
    pairs = [(s1, s2) for s1 in const.points for s2 in const.points]
    if scheme == "rama1":
        amp = math.sqrt(0.5 * p)
        chain = max(abs(rama1_transmit(s1, s2, p).tsa2 - amp * s2) for s1, s2 in pairs)
        total = math.fsum(rama1_transmit(s1, s2, p).total_power() for s1, s2 in pairs)
        return ((chain, abs(total / len(pairs) - p)),)
    errors = []
    for split in splits:
        alloc = PowerAllocation.from_fraction(p, split)
        amp2 = math.sqrt(alloc.p2)
        chain = max(abs(rama2_transmit(s1, s2, alloc).tsa2 - amp2 * s2) for s1, s2 in pairs)
        total = math.fsum(abs(rama2_presplit(s1, s2, alloc)) ** 2 for s1, s2 in pairs)
        errors.append((chain, abs(total / len(pairs) - p)))
    return tuple(errors)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@st.composite
def _chain_setups(draw):
    if draw(st.booleans()):
        const = make_psk(draw(st.integers(2, 256)))
    else:
        const = make_qam((2 * draw(st.integers(1, 8))) ** 2)  # 4, 16, ..., 256
    scheme = draw(st.sampled_from(["rama1", "rama2"]))
    splits = draw(st.lists(
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), min_size=1, max_size=3
    ))
    return const, scheme, tuple(splits), draw(st.floats(0.01, 100.0))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_chain_setups())
# s_bar ** 2 as s_bar * s_bar changes the power error of this one.
@example((make_qam(64), "rama2", (0.15,), 23.2))
# A phase difference of -1e-17 rounds up to 2*pi mod 2*pi: both chains wrap it.
@example((Constellation((1 + 0j, complex(1.0, 1e-17))), "rama1", (0.1, 0.5, 0.9), 1.0))
@example((Constellation((1 + 0j, complex(1.0, 1e-17))), "rama2", (0.1, 0.5, 0.9), 1.0))
def test_verify_chain_equals_scalar_chains_bit_for_bit(setup):
    # Exact equality: the signal-check report prints these ~1e-16 errors.
    # rama1 on QAM above order 4 mixes moduli, so both must raise alike.
    assert _outcome(verify_chain, *setup) == _outcome(_scalar_chain, *setup)


@pytest.mark.parametrize("order", [16, 64])
def test_verify_chain_rama1_rejects_unequal_moduli_like_rama1_transmit(order):
    const = make_qam(order)
    with pytest.raises(ValueError) as scalar:
        rama1_transmit(const.points[0], const.points[1], 1.0)
    with pytest.raises(ValueError) as vectorized:
        verify_chain(const, "rama1", (0.5,), 1.0)
    assert str(vectorized.value) == str(scalar.value)


def test_verify_chain_rejects_schemes_without_a_chain():
    with pytest.raises(ValueError, match="noma"):
        verify_chain(make_psk(4), "noma", (0.5,), 1.0)


@pytest.mark.parametrize(
    "splits, message",
    [((), "split list must be nonempty"), ((1.5,), "split 1.5 outside"),
     ((0.5, -0.25), "split -0.25 outside"), ((math.nan,), "split nan outside")],
)
def test_verify_chain_refuses_bad_rama2_splits_by_name(splits, message):
    with pytest.raises(ValueError, match=f"^splits: {message}"):
        verify_chain(make_qam(4), "rama2", splits, 1.0)


def test_verify_chain_total_power_bounds():
    const = make_qam(16)
    assert verify_chain(const, "rama2", (0.5,), MAX_PG)[0][0] >= 0.0
    for p in (0.0, -1.0, -math.inf, math.nan):
        with pytest.raises(ValueError, match="^total_power must be positive$"):
            verify_chain(const, "rama2", (0.5,), p)
    for p in (1e308, math.inf):
        with pytest.raises(ValueError, match=re.escape(f"total_power: {p!r} is above the cap")):
            verify_chain(const, "rama2", (0.5,), p)
