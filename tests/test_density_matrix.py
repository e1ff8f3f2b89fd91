"""Tests for the density-matrix simulation state."""

import itertools

import numpy as np
import pytest

from repro import circuits as cirq
from repro.protocols import act_on, kraus
from repro.states import DensityMatrixSimulationState, StateVectorSimulationState


@pytest.fixture
def qubits():
    return cirq.LineQubit.range(2)


class TestInitialization:
    def test_basis_state(self, qubits):
        s = DensityMatrixSimulationState(qubits, initial_state=0b10)
        rho = s.density_matrix()
        assert rho[2, 2] == pytest.approx(1.0)
        assert np.trace(rho) == pytest.approx(1.0)

    def test_from_pure_vector(self, qubits):
        vec = np.zeros(4, dtype=complex)
        vec[1] = 1.0
        s = DensityMatrixSimulationState(qubits, initial_state=vec)
        assert s.probability_of([0, 1]) == pytest.approx(1.0)

    def test_from_density_matrix(self, qubits):
        rho = np.eye(4, dtype=complex) / 4
        s = DensityMatrixSimulationState(qubits, initial_state=rho)
        np.testing.assert_allclose(s.diagonal_probabilities(), [0.25] * 4)

    def test_rejects_traceless(self, qubits):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrixSimulationState(qubits, initial_state=np.eye(4))


class TestUnitaryEvolution:
    def test_matches_pure_state_on_unitary_circuits(self):
        qs = cirq.LineQubit.range(3)
        circ = cirq.generate_random_circuit(qs, 12, random_state=4)
        sv = StateVectorSimulationState(qs)
        dm = DensityMatrixSimulationState(qs)
        for op in circ.all_operations():
            act_on(op, sv)
            act_on(op, dm)
        psi = sv.state_vector()
        np.testing.assert_allclose(
            dm.density_matrix(), np.outer(psi, psi.conj()), atol=1e-9
        )

    def test_trace_preserved(self):
        qs = cirq.LineQubit.range(3)
        circ = cirq.generate_random_circuit(qs, 10, random_state=5)
        dm = DensityMatrixSimulationState(qs)
        for op in circ.all_operations():
            act_on(op, dm)
        assert np.trace(dm.density_matrix()).real == pytest.approx(1.0)


class TestChannels:
    def test_exact_channel_application(self, qubits):
        dm = DensityMatrixSimulationState(qubits)
        act_on(cirq.H(qubits[0]), dm)
        act_on(cirq.bit_flip(0.3)(qubits[1]), dm)
        np.testing.assert_allclose(
            dm.diagonal_probabilities(), [0.35, 0.15, 0.35, 0.15], atol=1e-9
        )

    def test_depolarize_diagonal(self, qubits):
        dm = DensityMatrixSimulationState(qubits)
        act_on(cirq.depolarize(0.75)(qubits[0]), dm)
        np.testing.assert_allclose(
            dm.diagonal_probabilities(), [0.5, 0.0, 0.5, 0.0], atol=1e-9
        )

    def test_manual_kraus_sum_agreement(self, qubits):
        channel = cirq.amplitude_damp(0.4)
        dm = DensityMatrixSimulationState(qubits)
        act_on(cirq.H(qubits[0]), dm)
        rho_before = dm.density_matrix()
        act_on(channel(qubits[0]), dm)
        ks = [np.kron(k, np.eye(2)) for k in kraus(channel)]
        expected = sum(k @ rho_before @ k.conj().T for k in ks)
        np.testing.assert_allclose(dm.density_matrix(), expected, atol=1e-9)

    def test_exact_channels_flag(self, qubits):
        assert DensityMatrixSimulationState(qubits)._exact_channels_


class TestProbabilities:
    def test_candidate_probabilities_match_loop(self):
        qs = cirq.LineQubit.range(4)
        dm = DensityMatrixSimulationState(qs)
        circ = cirq.generate_random_circuit(qs, 8, random_state=6)
        for op in circ.all_operations():
            act_on(op, dm)
        act_on(cirq.depolarize(0.2)(qs[1]), dm)
        bits = [1, 0, 0, 1]
        for support in ([0], [1, 3], [2, 0]):
            (fast,) = dm.candidate_probabilities_many([bits], support)
            for idx, cand in enumerate(
                itertools.product([0, 1], repeat=len(support))
            ):
                full = list(bits)
                for axis, b in zip(support, cand):
                    full[axis] = b
                assert fast[idx] == pytest.approx(
                    dm.probability_of(full), abs=1e-12
                )

    def test_diagonal_sums_to_one(self, qubits):
        dm = DensityMatrixSimulationState(qubits)
        act_on(cirq.H(qubits[0]), dm)
        act_on(cirq.phase_damp(0.5)(qubits[0]), dm)
        assert dm.diagonal_probabilities().sum() == pytest.approx(1.0)


class TestMeasurement:
    def test_deterministic(self, qubits):
        dm = DensityMatrixSimulationState(qubits, initial_state=0b01, seed=0)
        assert dm.measure([0, 1]) == [0, 1]

    def test_collapse_correlations(self, qubits):
        for seed in range(20):
            dm = DensityMatrixSimulationState(qubits, seed=seed)
            act_on(cirq.H(qubits[0]), dm)
            act_on(cirq.CNOT(qubits[0], qubits[1]), dm)
            a = dm.measure([0])[0]
            b = dm.measure([1])[0]
            assert a == b

    def test_project(self, qubits):
        dm = DensityMatrixSimulationState(qubits)
        act_on(cirq.H(qubits[0]), dm)
        dm.project([0], [1])
        assert dm.probability_of([1, 0]) == pytest.approx(1.0)
        assert np.trace(dm.density_matrix()).real == pytest.approx(1.0)

    def test_project_impossible_raises(self, qubits):
        dm = DensityMatrixSimulationState(qubits)
        with pytest.raises(ValueError):
            dm.project([0], [1])

    def test_mixed_state_measure_statistics(self):
        qs = cirq.LineQubit.range(1)
        ones = 0
        for seed in range(300):
            dm = DensityMatrixSimulationState(qs, seed=seed)
            act_on(cirq.bit_flip(0.25)(qs[0]), dm)
            ones += dm.measure([0])[0]
        assert 0.15 < ones / 300 < 0.35


def test_copy_independent(qubits):
    dm = DensityMatrixSimulationState(qubits)
    c = dm.copy()
    act_on(cirq.X(qubits[0]), c)
    assert dm.probability_of([0, 0]) == pytest.approx(1.0)
    assert c.probability_of([1, 0]) == pytest.approx(1.0)
