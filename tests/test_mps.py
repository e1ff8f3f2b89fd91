"""Tests for the MPS simulation state."""

import itertools

import numpy as np
import pytest

from repro import circuits as cirq
from repro.mps import MPSOptions, MPSState
from repro.protocols import act_on
from repro.states import StateVectorSimulationState


def evolve(state, circuit):
    for op in circuit.all_operations():
        act_on(op, state)
    return state


class TestOptions:
    def test_defaults(self):
        opts = MPSOptions()
        assert opts.max_bond is None
        assert opts.renormalize

    def test_validation(self):
        with pytest.raises(ValueError):
            MPSOptions(max_bond=0)
        with pytest.raises(ValueError):
            MPSOptions(cutoff=-1)


class TestExactEvolution:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dense_on_random_circuits(self, seed):
        qs = cirq.LineQubit.range(4)
        circ = cirq.generate_random_circuit(qs, 12, random_state=seed)
        sv = evolve(StateVectorSimulationState(qs), circ)
        mps = evolve(MPSState(qs), circ)
        np.testing.assert_allclose(
            mps.state_vector(), sv.state_vector(), atol=1e-8
        )

    def test_nonadjacent_two_qubit_gates(self):
        qs = cirq.LineQubit.range(5)
        circ = cirq.Circuit(
            cirq.H(qs[0]), cirq.CNOT(qs[0], qs[4]), cirq.CNOT(qs[4], qs[2])
        )
        sv = evolve(StateVectorSimulationState(qs), circ)
        mps = evolve(MPSState(qs), circ)
        np.testing.assert_allclose(
            mps.state_vector(), sv.state_vector(), atol=1e-9
        )

    def test_initial_basis_state(self):
        qs = cirq.LineQubit.range(3)
        mps = MPSState(qs, initial_state=0b101)
        assert mps.probability_of([1, 0, 1]) == pytest.approx(1.0)

    def test_three_qubit_gate_rejected(self):
        qs = cirq.LineQubit.range(3)
        mps = MPSState(qs)
        with pytest.raises(ValueError, match="1- and 2-qubit"):
            act_on(cirq.CCX(*qs), mps)

    def test_norm_preserved(self):
        qs = cirq.LineQubit.range(5)
        circ = cirq.generate_random_circuit(qs, 15, random_state=3)
        mps = evolve(MPSState(qs), circ)
        assert mps.norm_squared() == pytest.approx(1.0, abs=1e-9)


class TestAmplitudes:
    def test_amplitude_matches_dense(self):
        qs = cirq.LineQubit.range(4)
        circ = cirq.generate_random_circuit(qs, 10, random_state=5)
        sv = evolve(StateVectorSimulationState(qs), circ)
        mps = evolve(MPSState(qs), circ)
        dense = sv.state_vector()
        for idx in range(16):
            bits = [(idx >> (3 - j)) & 1 for j in range(4)]
            assert mps.amplitude_of(bits) == pytest.approx(dense[idx], abs=1e-9)

    @pytest.mark.parametrize("support", [[0], [1, 3], [3, 1], [2, 0]])
    def test_candidate_amplitudes_match_loop(self, support):
        qs = cirq.LineQubit.range(4)
        circ = cirq.generate_random_circuit(qs, 10, random_state=6)
        mps = evolve(MPSState(qs), circ)
        bits = [1, 0, 1, 0]
        fast = mps.candidate_amplitudes(bits, support)
        for idx, cand in enumerate(
            itertools.product([0, 1], repeat=len(support))
        ):
            full = list(bits)
            for axis, b in zip(support, cand):
                full[axis] = b
            assert fast[idx] == pytest.approx(mps.amplitude_of(full), abs=1e-9)

    def test_candidate_probabilities_are_squared_amps(self):
        qs = cirq.LineQubit.range(3)
        circ = cirq.generate_random_circuit(qs, 8, random_state=7)
        mps = evolve(MPSState(qs), circ)
        amps = mps.candidate_amplitudes([0, 0, 0], [1])
        probs = mps.candidate_probabilities_many([[0, 0, 0]], [1])
        np.testing.assert_allclose(probs, [np.abs(amps) ** 2], atol=1e-12)


class TestBondStructure:
    def test_ghz_chain_bond_dimension_two(self):
        qs = cirq.LineQubit.range(6)
        circ = cirq.Circuit(cirq.H(qs[0]))
        for a, b in zip(qs, qs[1:]):
            circ.append(cirq.CNOT(a, b))
        mps = evolve(MPSState(qs), circ)
        assert mps.max_bond_dimension() == 2

    def test_product_state_has_no_bonds(self):
        qs = cirq.LineQubit.range(4)
        circ = cirq.Circuit([cirq.H(q) for q in qs])
        mps = evolve(MPSState(qs), circ)
        assert mps.max_bond_dimension() == 1

    def test_cutoff_trims_unentangling_gates(self):
        """CNOT twice = identity: the second SVD re-splits to bond dim 1."""
        qs = cirq.LineQubit.range(2)
        mps = MPSState(qs)
        act_on(cirq.H(qs[0]), mps)
        act_on(cirq.CNOT(qs[0], qs[1]), mps)
        assert mps.bond_dimension(0) == 2
        act_on(cirq.CNOT(qs[0], qs[1]), mps)
        assert mps.bond_dimension(0) == 1


class TestTruncation:
    def test_max_bond_caps_dimension(self):
        qs = cirq.LineQubit.range(6)
        circ = cirq.generate_random_circuit(qs, 25, op_density=0.9, random_state=1)
        mps = evolve(MPSState(qs, options=MPSOptions(max_bond=2)), circ)
        assert mps.max_bond_dimension() <= 2

    def test_truncation_tracks_fidelity(self):
        qs = cirq.LineQubit.range(6)
        circ = cirq.generate_random_circuit(qs, 25, op_density=0.9, random_state=1)
        exact = evolve(MPSState(qs), circ)
        truncated = evolve(MPSState(qs, options=MPSOptions(max_bond=2)), circ)
        assert exact.estimated_fidelity == pytest.approx(1.0, abs=1e-9)
        assert truncated.estimated_fidelity < 1.0

    def test_renormalize_keeps_unit_norm_under_truncation(self):
        qs = cirq.LineQubit.range(5)
        circ = cirq.generate_random_circuit(qs, 20, op_density=0.9, random_state=2)
        mps = evolve(MPSState(qs, options=MPSOptions(max_bond=2)), circ)
        assert mps.norm_squared() == pytest.approx(1.0, abs=1e-6)

    def test_ghz_unaffected_by_small_bond_cap(self):
        """GHZ needs only chi=2, so max_bond=2 is lossless."""
        qs = cirq.LineQubit.range(6)
        circ = cirq.Circuit(cirq.H(qs[0]))
        for a, b in zip(qs, qs[1:]):
            circ.append(cirq.CNOT(a, b))
        mps = evolve(MPSState(qs, options=MPSOptions(max_bond=2)), circ)
        assert mps.estimated_fidelity == pytest.approx(1.0, abs=1e-9)
        assert mps.probability_of([0] * 6) == pytest.approx(0.5, abs=1e-9)


class TestMeasurementAndChannels:
    def test_measure_ghz_correlations(self):
        qs = cirq.LineQubit.range(4)
        circ = cirq.Circuit(cirq.H(qs[0]))
        for a, b in zip(qs, qs[1:]):
            circ.append(cirq.CNOT(a, b))
        outcomes = set()
        for seed in range(30):
            mps = evolve(MPSState(qs, seed=seed), circ)
            bits = tuple(mps.measure([0, 1, 2, 3]))
            outcomes.add(bits)
        assert outcomes == {(0, 0, 0, 0), (1, 1, 1, 1)}

    def test_project(self):
        qs = cirq.LineQubit.range(2)
        mps = MPSState(qs)
        act_on(cirq.H(qs[0]), mps)
        act_on(cirq.CNOT(qs[0], qs[1]), mps)
        mps.project([0], [1])
        assert mps.probability_of([1, 1]) == pytest.approx(1.0, abs=1e-9)
        assert mps.norm_squared() == pytest.approx(1.0, abs=1e-9)

    def test_project_impossible_raises(self):
        qs = cirq.LineQubit.range(1)
        mps = MPSState(qs)
        with pytest.raises(ValueError):
            mps.project([0], [1])


def test_copy_independent():
    qs = cirq.LineQubit.range(2)
    mps = MPSState(qs)
    act_on(cirq.H(qs[0]), mps)
    clone = mps.copy()
    act_on(cirq.X(qs[1]), clone)
    assert mps.probability_of([0, 0]) == pytest.approx(0.5)
    assert clone.probability_of([0, 1]) == pytest.approx(0.5)


def test_i_str_naming():
    qs = cirq.LineQubit.range(3)
    mps = MPSState(qs)
    assert mps.i_str(0) == "i0"
    assert mps.i_str(2) == "i2"


class TestCrossGateEnvironmentCache:
    """Environment caches persist across gates with bond-range invalidation."""

    @staticmethod
    def _evolved(n_qubits, depth, seed=0):
        qs = cirq.LineQubit.range(n_qubits)
        mps = MPSState(qs)
        circuit = cirq.random_clifford_circuit(qs, depth, random_state=seed)
        for op in circuit.all_operations():
            act_on(op, mps)
        return qs, mps

    def test_caches_survive_untouched_gates(self):
        qs, mps = self._evolved(6, 12)
        front = [[0] * 6, [1, 0, 1, 0, 1, 0], [1] * 6]
        mps.candidate_probabilities_many(front, [4, 5])
        populated_left = set(mps._left_env_cache)
        assert populated_left  # prefixes over sites 0..3 were cached
        # A gate at the right end of the chain keeps every left prefix.
        act_on(cirq.X(qs[5]), mps)
        assert set(mps._left_env_cache) == populated_left
        # A gate at site 1 keeps only the length-1 prefixes.
        act_on(cirq.X(qs[1]), mps)
        assert all(len(key) <= 1 for key in mps._left_env_cache)

    def test_right_cache_invalidation_mirrors_left(self):
        qs, mps = self._evolved(6, 12)
        front = [[0] * 6, [1, 1, 0, 0, 1, 1]]
        mps.candidate_probabilities_many(front, [0, 1])
        assert mps._right_env_cache  # suffixes over sites 2..5
        act_on(cirq.X(qs[4]), mps)
        # Entries covering site 4 (length >= n - 4 = 2) are gone.
        assert all(len(key) < 2 for key in mps._right_env_cache)

    def test_second_call_reuses_environments(self):
        _, mps = self._evolved(8, 16)
        front = [[int(b) for b in f"{i:08b}"] for i in (0, 5, 37, 255)]
        mps.candidate_probabilities_many(front, [3, 4])
        misses_first = mps.env_cache_misses
        mps.env_cache_hits = 0
        mps.candidate_probabilities_many(front, [3, 4])
        # Identical call: every environment lookup is now a hit.
        assert mps.env_cache_misses == misses_first
        assert mps.env_cache_hits > 0

    def test_results_match_fresh_state_after_gates(self):
        """Correctness under invalidation: cached answers equal cold ones."""
        qs, mps = self._evolved(6, 10, seed=3)
        rng = np.random.default_rng(0)
        front = [list(rng.integers(0, 2, 6)) for _ in range(5)]
        for step in range(4):
            support = [int(rng.integers(0, 5))]
            support.append(support[0] + 1)
            warm = mps.candidate_probabilities_many(front, support)
            cold = mps.copy().candidate_probabilities_many(front, support)
            np.testing.assert_allclose(warm, cold, atol=1e-12)
            # Mutate somewhere and keep going.
            act_on(cirq.H(qs[step % 6]), mps)

    def test_copy_starts_with_empty_caches(self):
        _, mps = self._evolved(5, 8)
        mps.candidate_probabilities_many([[0] * 5], [2])
        assert mps._left_env_cache or mps._right_env_cache
        clone = mps.copy()
        assert not clone._left_env_cache and not clone._right_env_cache

    def test_channel_clears_caches(self):
        """The Simulator applies a chosen Kraus branch through
        ``apply_unitary`` (a non-unitary linear map); no environment
        cached before it may survive stale."""
        qs, mps = self._evolved(4, 6)
        front = [[0] * 4, [1, 0, 1, 1]]
        for support in ([1], [3]):
            mps.candidate_probabilities_many(front, support)
        assert mps._left_env_cache or mps._right_env_cache
        mps.apply_unitary(cirq.amplitude_damp(0.5)._kraus_()[0], [2])
        for support in ([0], [1], [2], [3]):
            warm = mps.candidate_probabilities_many(front, support)
            cold = mps.copy().candidate_probabilities_many(front, support)
            np.testing.assert_allclose(warm, cold, atol=1e-12)
