"""Tests for the born module: scalar functions and their candidate oracles."""

import numpy as np
import pytest

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.mps import MPSState
from repro.states import (
    CliffordTableauSimulationState,
    DensityMatrixSimulationState,
    StabilizerChFormSimulationState,
    StateVectorSimulationState,
    registry,
)


def evolved(state_cls, circuit, qubits, **kw):
    state = state_cls(qubits, **kw)
    for op in circuit.all_operations():
        bgls.act_on(op, state)
    return state


@pytest.fixture
def qubits():
    return cirq.LineQubit.range(3)


@pytest.fixture
def clifford_circuit(qubits):
    return cirq.random_clifford_circuit(qubits, 15, random_state=0)


class TestScalarFunctions:
    def test_all_backends_agree(self, qubits, clifford_circuit):
        sv = evolved(StateVectorSimulationState, clifford_circuit, qubits)
        dm = evolved(DensityMatrixSimulationState, clifford_circuit, qubits)
        ch = evolved(StabilizerChFormSimulationState, clifford_circuit, qubits)
        mps = evolved(MPSState, clifford_circuit, qubits)
        for idx in range(8):
            bits = [(idx >> (2 - j)) & 1 for j in range(3)]
            p = born.compute_probability_state_vector(sv, bits)
            assert born.compute_probability_density_matrix(dm, bits) == pytest.approx(p, abs=1e-9)
            assert born.compute_probability_stabilizer_state(ch, bits) == pytest.approx(p, abs=1e-9)
            assert born.compute_probability_mps(mps, bits) == pytest.approx(p, abs=1e-9)

    def test_mps_bitstring_probability_alias(self, qubits, clifford_circuit):
        mps = evolved(MPSState, clifford_circuit, qubits)
        assert born.mps_bitstring_probability(mps, [0, 0, 0]) == pytest.approx(
            born.compute_probability_mps(mps, [0, 0, 0])
        )

    def test_probabilities_normalized(self, qubits, clifford_circuit):
        sv = evolved(StateVectorSimulationState, clifford_circuit, qubits)
        total = sum(
            born.compute_probability_state_vector(
                sv, [(i >> (2 - j)) & 1 for j in range(3)]
            )
            for i in range(8)
        )
        assert total == pytest.approx(1.0)


class TestBatchedFunctions:
    @pytest.mark.parametrize(
        "scalar,batched",
        [
            (born.compute_probability_state_vector,
             StateVectorSimulationState.candidate_probabilities_many),
            (born.compute_probability_density_matrix,
             DensityMatrixSimulationState.candidate_probabilities_many),
            (born.compute_probability_stabilizer_state,
             StabilizerChFormSimulationState.candidate_probabilities_many),
            (born.compute_probability_mps, MPSState.candidate_probabilities_many),
            (born.mps_bitstring_probability, MPSState.candidate_probabilities_many),
        ],
    )
    def test_candidate_function_mapping(
        self, scalar, batched, qubits, clifford_circuit
    ):
        """A shipped scalar function brings its backend's own row-block
        oracle: the mapped function answers exactly as the state method."""
        state_type = registry.capabilities_for_probability_fn(scalar).state_type
        assert state_type.candidate_probabilities_many is batched
        state = evolved(state_type, clifford_circuit, qubits)
        bits_list = [[1, 0, 1], [0, 1, 1], [1, 0, 1]]
        oracle = born.many_candidate_function_for(scalar)
        np.testing.assert_array_equal(
            oracle(state, bits_list, [2, 0]), batched(state, bits_list, [2, 0])
        )

    def test_unknown_function_maps_to_none(self):
        assert born.many_candidate_function_for(lambda s, b: 0.0) is None

    def test_batched_matches_scalar_all_backends(self, qubits, clifford_circuit):
        """Every row of every backend's oracle is the scalar Born oracle of
        each candidate: one row, duplicate rows, unsorted support."""
        backends = [
            (StateVectorSimulationState, born.compute_probability_state_vector),
            (DensityMatrixSimulationState, born.compute_probability_density_matrix),
            (StabilizerChFormSimulationState, born.compute_probability_stabilizer_state),
            (CliffordTableauSimulationState, born.compute_probability_tableau),
            (MPSState, born.compute_probability_mps),
        ]
        queries = [
            ([[1, 0, 1]], [0, 2]),
            ([[1, 0, 1], [0, 1, 0], [1, 0, 1]], [2, 0]),
            ([[0, 1, 1], [1, 1, 0]], [1]),
        ]
        for cls, scalar in backends:
            state = evolved(cls, clifford_circuit, qubits)
            oracle = born.many_candidate_function_for(scalar)
            for bits_list, support in queries:
                rows = oracle(state, bits_list, support)
                k = len(support)
                assert rows.shape == (len(bits_list), 2**k), cls
                for row, bits in zip(rows, bits_list):
                    for idx in range(2**k):
                        full = list(bits)
                        for pos, axis in enumerate(support):
                            full[axis] = (idx >> (k - 1 - pos)) & 1
                        assert row[idx] == pytest.approx(
                            scalar(state, full), abs=1e-9
                        ), cls
