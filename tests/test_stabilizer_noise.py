"""Tests for stochastic-Pauli noise on stabilizer states.

The ground truth for every comparison is the exact density-matrix
evolution of the same noisy circuit.
"""

import numpy as np
import pytest

from repro import born
from repro import circuits as cirq
from repro.circuits import channels
from repro.circuits.channels import PauliChannel
from repro.protocols import act_on
from repro.sampler import (
    Simulator,
    act_on_near_clifford_with_pauli_noise,
    act_on_with_pauli_noise,
)
from repro.states import (
    CliffordTableauSimulationState,
    DensityMatrixSimulationState,
    StabilizerChFormSimulationState,
)


def exact_diagonal(circuit, qubits):
    rho = DensityMatrixSimulationState(qubits, seed=0)
    for op in circuit.without_measurements().all_operations():
        act_on(op, rho)
    return rho.diagonal_probabilities()


def histogram(bits, n):
    h = np.zeros(2**n)
    for row in bits:
        h[int("".join(str(b) for b in row), 2)] += 1
    return h / len(bits)


def noisy_ghz(qubits, p=0.15):
    circuit = cirq.Circuit(cirq.H.on(qubits[0]))
    for a, b in zip(qubits, qubits[1:]):
        circuit.append(cirq.CNOT.on(a, b))
        circuit.append(channels.depolarize(p).on(b))
    circuit.append(cirq.measure(*qubits, key="z"))
    return circuit


class TestPauliMixture:
    def test_bit_flip_mixture(self):
        mix = channels.bit_flip(0.2)._pauli_mixture_()
        assert mix == [(0.8, "I"), (0.2, "X")]

    def test_phase_flip_mixture(self):
        mix = channels.phase_flip(0.3)._pauli_mixture_()
        assert mix == [(0.7, "I"), (0.3, "Z")]

    def test_depolarize_mixture_sums_to_one(self):
        mix = channels.depolarize(0.3)._pauli_mixture_()
        assert sum(w for w, _ in mix) == pytest.approx(1.0)
        assert [name for _, name in mix] == ["I", "X", "Y", "Z"]

    def test_non_pauli_channel_is_none(self):
        assert not isinstance(channels.amplitude_damp(0.1), PauliChannel)

    def test_unitary_gate_is_none(self):
        assert not isinstance(cirq.X, PauliChannel)


class TestNoisyCliffordSampling:
    @pytest.mark.parametrize(
        "state_cls",
        [StabilizerChFormSimulationState, CliffordTableauSimulationState],
    )
    def test_noisy_ghz_matches_density_matrix(self, state_cls):
        n = 3
        qubits = cirq.LineQubit.range(n)
        circuit = noisy_ghz(qubits)
        exact = exact_diagonal(circuit, qubits)

        compute = (
            born.compute_probability_stabilizer_state
            if state_cls is StabilizerChFormSimulationState
            else born.compute_probability_tableau
        )
        sim = Simulator(
            initial_state=state_cls(qubits),
            apply_op=act_on_with_pauli_noise,
            compute_probability=compute,
            seed=3,
        )
        reps = 3000
        bits = sim.sample_bitstrings(circuit, repetitions=reps)
        tv = 0.5 * np.abs(histogram(bits, n) - exact).sum()
        assert tv < 0.05

    def test_bit_flip_on_deterministic_circuit(self):
        qubits = cirq.LineQubit.range(1)
        circuit = cirq.Circuit(
            channels.bit_flip(0.25).on(qubits[0]),
            cirq.measure(*qubits, key="z"),
        )
        sim = Simulator(
            initial_state=StabilizerChFormSimulationState(qubits),
            apply_op=act_on_with_pauli_noise,
            compute_probability=born.compute_probability_stabilizer_state,
            seed=5,
        )
        bits = sim.sample_bitstrings(circuit, repetitions=4000)
        assert np.mean(bits) == pytest.approx(0.25, abs=0.03)

    def test_phase_flip_invisible_in_z_basis(self):
        qubits = cirq.LineQubit.range(1)
        circuit = cirq.Circuit(
            channels.phase_flip(0.5).on(qubits[0]),
            cirq.measure(*qubits, key="z"),
        )
        sim = Simulator(
            initial_state=StabilizerChFormSimulationState(qubits),
            apply_op=act_on_with_pauli_noise,
            compute_probability=born.compute_probability_stabilizer_state,
            seed=6,
        )
        bits = sim.sample_bitstrings(circuit, repetitions=200)
        assert np.all(bits == 0)

    def test_amplitude_damping_still_rejected(self):
        qubits = cirq.LineQubit.range(1)
        circuit = cirq.Circuit(
            channels.amplitude_damp(0.2).on(qubits[0]),
            cirq.measure(*qubits, key="z"),
        )
        sim = Simulator(
            initial_state=StabilizerChFormSimulationState(qubits),
            apply_op=act_on_with_pauli_noise,
            compute_probability=born.compute_probability_stabilizer_state,
            seed=7,
        )
        with pytest.raises(ValueError, match="Clifford|channels"):
            sim.sample_bitstrings(circuit, repetitions=2)

    @pytest.mark.parametrize(
        "state_cls, compute",
        [
            pytest.param(
                StabilizerChFormSimulationState,
                born.compute_probability_stabilizer_state,
                id="ch_form",
            ),
            pytest.param(
                CliffordTableauSimulationState,
                born.compute_probability_tableau,
                id="tableau",
            ),
        ],
    )
    def test_plain_act_on_rejects_pauli_channel_at_compile(
        self, state_cls, compute
    ):
        """Without the noise apply_op nothing owns the channel, and a
        stabilizer state cannot take the Simulator's Kraus branch: the
        typed error fires when the circuit compiles."""
        qubits = cirq.LineQubit.range(1)
        circuit = cirq.Circuit(
            channels.depolarize(0.1).on(qubits[0]),
            cirq.measure(*qubits, key="z"),
        )
        sim = Simulator(state_cls(qubits), act_on, compute, seed=7)
        with pytest.raises(ValueError, match="channel.*act_on_with_pauli_noise"):
            sim.compile(circuit)


class TestDenseStateFallback:
    def test_pauli_noise_apply_op_on_dense_state(self):
        """The same apply_op works on a dense backend (generic unitary path)."""
        from repro.states import StateVectorSimulationState

        n = 2
        qubits = cirq.LineQubit.range(n)
        circuit = noisy_ghz(qubits, p=0.2)
        exact = exact_diagonal(circuit, qubits)
        sim = Simulator(
            initial_state=StateVectorSimulationState(qubits),
            apply_op=act_on_with_pauli_noise,
            compute_probability=born.compute_probability_state_vector,
            seed=4,
        )
        bits = sim.sample_bitstrings(circuit, repetitions=3000)
        tv = 0.5 * np.abs(histogram(bits, n) - exact).sum()
        assert tv < 0.05


class TestNoisyNearClifford:
    def test_noisy_t_circuit_runs_and_is_close(self):
        """Clifford+T with depolarizing noise through the full stack."""
        n = 2
        qubits = cirq.LineQubit.range(n)
        circuit = cirq.Circuit(
            cirq.H.on(qubits[0]),
            cirq.T.on(qubits[0]),
            channels.depolarize(0.1).on(qubits[0]),
            cirq.CNOT.on(qubits[0], qubits[1]),
            cirq.measure(*qubits, key="z"),
        )
        exact = exact_diagonal(circuit, qubits)
        sim = Simulator(
            initial_state=StabilizerChFormSimulationState(qubits),
            apply_op=act_on_near_clifford_with_pauli_noise,
            compute_probability=born.compute_probability_stabilizer_state,
            seed=8,
        )
        reps = 6000
        bits = sim.sample_bitstrings(circuit, repetitions=reps)
        tv = 0.5 * np.abs(histogram(bits, n) - exact).sum()
        # Sum-over-Cliffords adds systematic branch noise on top of
        # sampling noise; the distribution must still be recognizably close.
        assert tv < 0.15

    def test_pure_clifford_path_unaffected(self):
        qubits = cirq.LineQubit.range(2)
        circuit = cirq.Circuit(
            cirq.H.on(qubits[0]),
            cirq.CNOT.on(qubits[0], qubits[1]),
            cirq.measure(*qubits, key="z"),
        )
        sim = Simulator(
            initial_state=StabilizerChFormSimulationState(qubits),
            apply_op=act_on_near_clifford_with_pauli_noise,
            compute_probability=born.compute_probability_stabilizer_state,
            seed=9,
        )
        rows = {
            tuple(r)
            for r in sim.run(circuit, repetitions=300).measurements["z"]
        }
        assert rows == {(0, 0), (1, 1)}
