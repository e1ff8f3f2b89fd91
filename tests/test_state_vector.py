"""Tests for the dense state-vector simulation state."""

import itertools

import numpy as np
import pytest

from repro import circuits as cirq
from repro.protocols import act_on, unitary
from repro.states import StateVectorSimulationState


@pytest.fixture
def qubits():
    return cirq.LineQubit.range(3)


class TestInitialization:
    def test_default_zero_state(self, qubits):
        s = StateVectorSimulationState(qubits)
        vec = s.state_vector()
        assert vec[0] == 1.0
        assert np.count_nonzero(vec) == 1

    def test_integer_initial_state_big_endian(self, qubits):
        s = StateVectorSimulationState(qubits, initial_state=0b110)
        assert s.state_vector()[6] == 1.0

    def test_vector_initial_state(self, qubits):
        vec = np.zeros(8, dtype=complex)
        vec[3] = 1.0
        s = StateVectorSimulationState(qubits, initial_state=vec)
        assert s.state_vector()[3] == 1.0

    def test_unnormalized_vector_rejected(self, qubits):
        with pytest.raises(ValueError, match="normalized"):
            StateVectorSimulationState(qubits, initial_state=np.ones(8))

    def test_wrong_length_rejected(self, qubits):
        with pytest.raises(ValueError):
            StateVectorSimulationState(qubits, initial_state=np.ones(4))

    def test_duplicate_qubits_rejected(self):
        q = cirq.LineQubit(0)
        with pytest.raises(ValueError):
            StateVectorSimulationState([q, q])


class TestGateApplication:
    def test_x_flips(self, qubits):
        s = StateVectorSimulationState(qubits)
        s.apply_unitary(unitary(cirq.X), [1])
        assert s.probability_of([0, 1, 0]) == pytest.approx(1.0)

    def test_h_superposes(self, qubits):
        s = StateVectorSimulationState(qubits)
        s.apply_unitary(unitary(cirq.H), [0])
        assert s.probability_of([0, 0, 0]) == pytest.approx(0.5)
        assert s.probability_of([1, 0, 0]) == pytest.approx(0.5)

    def test_cnot_on_nonadjacent_axes(self, qubits):
        s = StateVectorSimulationState(qubits)
        s.apply_unitary(unitary(cirq.X), [0])
        s.apply_unitary(unitary(cirq.CNOT), [0, 2])
        assert s.probability_of([1, 0, 1]) == pytest.approx(1.0)

    def test_cnot_reversed_axes(self, qubits):
        s = StateVectorSimulationState(qubits)
        s.apply_unitary(unitary(cirq.X), [2])
        s.apply_unitary(unitary(cirq.CNOT), [2, 0])
        assert s.probability_of([1, 0, 1]) == pytest.approx(1.0)

    def test_matches_circuit_final_state(self):
        qs = cirq.LineQubit.range(4)
        circ = cirq.generate_random_circuit(qs, 15, random_state=8)
        s = StateVectorSimulationState(qs)
        for op in circ.all_operations():
            act_on(op, s)
        np.testing.assert_allclose(
            s.state_vector(), circ.final_state_vector(qubit_order=qs), atol=1e-9
        )

    def test_act_on_dispatch_unitary(self, qubits):
        s = StateVectorSimulationState(qubits)
        act_on(cirq.X(qubits[2]), s)
        assert s.probability_of([0, 0, 1]) == pytest.approx(1.0)


class TestCandidateProbabilities:
    def _random_state(self, n, seed):
        qs = cirq.LineQubit.range(n)
        circ = cirq.generate_random_circuit(qs, 10, random_state=seed)
        s = StateVectorSimulationState(qs)
        for op in circ.all_operations():
            act_on(op, s)
        return s

    @pytest.mark.parametrize("support", [[0], [2], [0, 1], [1, 3], [3, 0]])
    def test_matches_per_candidate_loop(self, support):
        s = self._random_state(4, seed=2)
        bits = [1, 0, 1, 1]
        (fast,) = s.candidate_probabilities_many([bits], support)
        for idx, cand_bits in enumerate(
            itertools.product([0, 1], repeat=len(support))
        ):
            full = list(bits)
            for axis, b in zip(support, cand_bits):
                full[axis] = b
            assert fast[idx] == pytest.approx(s.probability_of(full), abs=1e-12)

    def test_candidate_order_is_big_endian_in_support_order(self):
        qs = cirq.LineQubit.range(2)
        s = StateVectorSimulationState(qs, initial_state=0b01)
        # support (1, 0): candidate index 0b10 means qubit1=1, qubit0=0.
        (probs,) = s.candidate_probabilities_many([[0, 0]], [1, 0])
        assert probs[0b10] == pytest.approx(1.0)

    def test_sums_to_marginal(self):
        s = self._random_state(4, seed=3)
        bits = [0, 1, 0, 0]
        (probs,) = s.candidate_probabilities_many([bits], [1, 2])
        # Marginal of the fixed complement bits:
        full = np.abs(s.state_vector()) ** 2
        total = sum(
            full[int(f"{b0}{b1}{b2}{b3}", 2)]
            for b0 in (0,)
            for b1 in (0, 1)
            for b2 in (0, 1)
            for b3 in (0,)
        )
        assert probs.sum() == pytest.approx(total, abs=1e-12)


class TestMeasurementAndProjection:
    def test_deterministic_measure(self, qubits):
        s = StateVectorSimulationState(qubits, initial_state=0b101, seed=0)
        assert s.measure([0, 1, 2]) == [1, 0, 1]

    def test_collapse_after_measure(self, qubits):
        s = StateVectorSimulationState(qubits, seed=1)
        s.apply_unitary(unitary(cirq.H), [0])
        s.apply_unitary(unitary(cirq.CNOT), [0, 1])
        (bit,) = s.measure([0])
        # Entangled partner must have collapsed identically.
        assert s.measure([1]) == [bit]

    def test_measure_statistics(self, qubits):
        counts = [0, 0]
        for seed in range(300):
            s = StateVectorSimulationState(qubits, seed=seed)
            s.apply_unitary(unitary(cirq.H), [1])
            counts[s.measure([1])[0]] += 1
        assert 100 < counts[0] < 200

    def test_project(self, qubits):
        s = StateVectorSimulationState(qubits)
        s.apply_unitary(unitary(cirq.H), [0])
        s.project([0], [1])
        assert s.probability_of([1, 0, 0]) == pytest.approx(1.0)

    def test_project_zero_probability_raises(self, qubits):
        s = StateVectorSimulationState(qubits)
        with pytest.raises(ValueError, match="zero-probability"):
            s.project([0], [1])

    def test_renormalize(self, qubits):
        s = StateVectorSimulationState(qubits)
        s.tensor = s.tensor * 0.5
        s.renormalize()
        assert np.linalg.norm(s.state_vector()) == pytest.approx(1.0)


class TestCopy:
    def test_copy_independent(self, qubits):
        s = StateVectorSimulationState(qubits)
        c = s.copy()
        c.apply_unitary(unitary(cirq.X), [0])
        assert s.probability_of([0, 0, 0]) == pytest.approx(1.0)
        assert c.probability_of([1, 0, 0]) == pytest.approx(1.0)

    def test_copy_preserves_register(self, qubits):
        s = StateVectorSimulationState(qubits)
        assert s.copy().qubits == s.qubits
