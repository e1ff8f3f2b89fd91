"""Tests for noise channels: Kraus completeness and semantics."""

import math

import numpy as np
import pytest

from repro.circuits import (
    amplitude_damp,
    bit_flip,
    depolarize,
    phase_damp,
    phase_flip,
)
from repro.protocols import has_kraus, is_channel, kraus


ALL_CHANNELS = [
    bit_flip(0.1),
    phase_flip(0.2),
    depolarize(0.3),
    amplitude_damp(0.4),
    phase_damp(0.5),
]


@pytest.mark.parametrize("channel", ALL_CHANNELS)
def test_kraus_completeness(channel):
    """sum_k K^dag K = I (trace preservation)."""
    total = sum(k.conj().T @ k for k in kraus(channel))
    np.testing.assert_allclose(total, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("channel", ALL_CHANNELS)
def test_channel_classification(channel):
    assert has_kraus(channel)
    assert is_channel(channel)
    assert channel._unitary_() is None


@pytest.mark.parametrize("factory", [bit_flip, phase_flip, depolarize])
def test_probability_validation(factory):
    with pytest.raises(ValueError):
        factory(-0.1)
    with pytest.raises(ValueError):
        factory(1.1)


def test_bit_flip_zero_probability_is_identity():
    ks = kraus(bit_flip(0.0))
    np.testing.assert_allclose(ks[0], np.eye(2), atol=1e-12)
    np.testing.assert_allclose(ks[1], np.zeros((2, 2)), atol=1e-12)


def test_bit_flip_effect_on_density_matrix():
    """rho = |0><0| under bit flip p: diag(1-p, p)."""
    p = 0.3
    rho = np.diag([1.0, 0.0]).astype(complex)
    out = sum(k @ rho @ k.conj().T for k in kraus(bit_flip(p)))
    np.testing.assert_allclose(np.diag(out).real, [1 - p, p], atol=1e-12)


def test_depolarize_fully_mixes():
    """p=3/4 depolarizing on any pure state gives the maximally mixed state."""
    rho = np.array([[1, 1], [1, 1]], dtype=complex) / 2  # |+><+|
    out = sum(k @ rho @ k.conj().T for k in kraus(depolarize(0.75)))
    np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-12)


def test_amplitude_damp_fixed_point():
    """|0><0| is a fixed point of amplitude damping."""
    rho = np.diag([1.0, 0.0]).astype(complex)
    out = sum(k @ rho @ k.conj().T for k in kraus(amplitude_damp(0.9)))
    np.testing.assert_allclose(out, rho, atol=1e-12)


def test_amplitude_damp_decays_excited_state():
    g = 0.4
    rho = np.diag([0.0, 1.0]).astype(complex)
    out = sum(k @ rho @ k.conj().T for k in kraus(amplitude_damp(g)))
    np.testing.assert_allclose(np.diag(out).real, [g, 1 - g], atol=1e-12)


def test_phase_damp_kills_coherences_not_populations():
    g = 0.5
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    out = sum(k @ rho @ k.conj().T for k in kraus(phase_damp(g)))
    np.testing.assert_allclose(np.diag(out).real, [0.5, 0.5], atol=1e-12)
    assert abs(out[0, 1]) < 0.5


def test_channel_equality():
    assert bit_flip(0.1) == bit_flip(0.1)
    assert bit_flip(0.1) != bit_flip(0.2)
    assert bit_flip(0.1) != phase_flip(0.1)


@pytest.mark.parametrize("p", [0.0, 0.1, 0.3, 2 / 3, 0.75, 1.0])
def test_pauli_kraus_operators_are_exact_scaled_paulis(p):
    """The Pauli channels derive ``sqrt(p_i) * P_i`` from their mixture;
    the matrices must equal the written-out operators bit for bit, so
    seeded trajectories do not depend on how they are built."""
    i2, x = np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.diag([1, -1]).astype(complex)
    expected = {
        bit_flip(p): [math.sqrt(1 - p) * i2, math.sqrt(p) * x],
        phase_flip(p): [math.sqrt(1 - p) * i2, math.sqrt(p) * z],
        depolarize(p): [math.sqrt(1 - p) * i2]
        + [math.sqrt(p / 3) * pauli for pauli in (x, y, z)],
    }
    for channel, ops in expected.items():
        got = kraus(channel)
        assert len(got) == len(ops)
        for k, ref in zip(got, ops):
            assert k.dtype == ref.dtype and k.tobytes() == ref.tobytes(), channel


def test_channels_are_single_qubit():
    for channel in ALL_CHANNELS:
        assert channel.num_qubits() == 1
