"""Failure-injection tests: every subsystem must fail loudly and precisely.

These tests target error paths not covered by the per-module suites —
inconsistent user-supplied probability functions, broken channel sets,
malformed tensors, and API misuse that silent acceptance would turn into
wrong physics.
"""

import numpy as np
import pytest

from repro import born
from repro import circuits as cirq
from repro.circuits import channels
from repro.mps import MPSState
from repro.protocols import act_on
from repro.sampler import Simulator
from repro.states import StateVectorSimulationState
from repro.tensornet import Tensor, TensorNetwork


class TestSimulatorMisuse:
    def test_zero_probability_function_reported(self):
        """A compute_probability returning 0 everywhere is inconsistent."""
        qs = cirq.LineQubit.range(1)
        sim = Simulator(
            initial_state=StateVectorSimulationState(qs),
            apply_op=lambda op, s: act_on(op, s),
            compute_probability=lambda state, bits: 0.0,
            seed=0,
        )
        circuit = cirq.Circuit(cirq.H.on(qs[0]), cirq.measure(qs[0], key="z"))
        with pytest.raises(ValueError, match="vanished"):
            sim.run(circuit, repetitions=1)

    def test_nan_probability_function_reported(self):
        qs = cirq.LineQubit.range(1)
        sim = Simulator(
            initial_state=StateVectorSimulationState(qs),
            apply_op=lambda op, s: act_on(op, s),
            compute_probability=lambda state, bits: float("nan"),
            seed=0,
        )
        circuit = cirq.Circuit(cirq.H.on(qs[0]), cirq.measure(qs[0], key="z"))
        with pytest.raises(ValueError, match="vanished"):
            sim.run(circuit, repetitions=1)

    def test_unresolved_parameters_rejected(self):
        qs = cirq.LineQubit.range(1)
        sim = Simulator(
            initial_state=StateVectorSimulationState(qs),
            apply_op=lambda op, s: act_on(op, s),
            compute_probability=born.compute_probability_state_vector,
        )
        circuit = cirq.Circuit(
            cirq.Rz(cirq.Symbol("t")).on(qs[0]), cirq.measure(qs[0], key="z")
        )
        with pytest.raises(ValueError, match="unresolved"):
            sim.run(circuit, repetitions=1)

    def test_run_without_measurements_rejected(self):
        qs = cirq.LineQubit.range(1)
        sim = Simulator(
            initial_state=StateVectorSimulationState(qs),
            apply_op=lambda op, s: act_on(op, s),
            compute_probability=born.compute_probability_state_vector,
        )
        with pytest.raises(ValueError, match="no measurements"):
            sim.run(cirq.Circuit(cirq.X.on(qs[0])), repetitions=1)


class TestBrokenChannels:
    def test_annihilating_kraus_set_rejected(self):
        """A 'channel' whose operators all map the state to zero."""

        class ZeroChannel(channels.KrausChannel):
            def _kraus_(self):
                return [np.zeros((2, 2), dtype=np.complex128)]

        qs = cirq.LineQubit.range(1)
        circuit = cirq.Circuit(
            ZeroChannel(0.5).on(qs[0]), cirq.measure(*qs, key="m")
        )
        for mode in ("serial", "batched"):
            sim = Simulator(
                initial_state=StateVectorSimulationState(qs),
                apply_op=act_on,
                compute_probability=born.compute_probability_state_vector,
                seed=0,
                trajectory_mode=mode,
            )
            with pytest.raises(ValueError, match="annihilated"):
                sim.run(circuit, repetitions=4)

    def test_channel_probability_validated(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            channels.bit_flip(1.2)
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            channels.depolarize(-0.1)

    def test_gate_without_unitary_or_kraus_rejected(self):
        class Opaque(cirq.Gate):
            def num_qubits(self):
                return 1

        qs = cirq.LineQubit.range(1)
        state = StateVectorSimulationState(qs)
        with pytest.raises(TypeError, match="no unitary or Kraus"):
            act_on(Opaque().on(qs[0]), state)


class TestMPSMisuse:
    def test_three_qubit_gate_rejected(self):
        qs = cirq.LineQubit.range(3)
        state = MPSState(qs)
        with pytest.raises(ValueError, match="1- and 2-qubit"):
            state.apply_unitary(np.eye(8), [0, 1, 2])

    def test_project_zero_probability_outcome(self):
        qs = cirq.LineQubit.range(1)
        state = MPSState(qs)  # |0>
        with pytest.raises(ValueError, match="zero-probability"):
            state.project([0], [1])

    def test_renormalize_zero_state_rejected(self):
        qs = cirq.LineQubit.range(1)
        state = MPSState(qs)
        state._apply_one_qubit(np.zeros((2, 2), dtype=np.complex128), 0)
        with pytest.raises(ValueError, match="zero state"):
            state.renormalize()


class TestTensorNetworkMisuse:
    def test_triple_index_rejected(self):
        t1 = Tensor(np.zeros(2), ("a",))
        t2 = Tensor(np.zeros(2), ("a",))
        t3 = Tensor(np.zeros(2), ("a",))
        with pytest.raises(ValueError, match="more than twice"):
            TensorNetwork([t1, t2, t3])

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError, match="Empty"):
            TensorNetwork([]).contract()

    def test_tensor_index_count_mismatch(self):
        with pytest.raises(ValueError, match="index names"):
            Tensor(np.zeros((2, 2)), ("a",))

    def test_tensor_duplicate_index_names(self):
        with pytest.raises(ValueError, match="Duplicate"):
            Tensor(np.zeros((2, 2)), ("a", "a"))

    def test_isel_out_of_range(self):
        t = Tensor(np.zeros(2), ("a",))
        with pytest.raises(IndexError, match="out of range"):
            t.isel({"a": 5})

    def test_isel_unknown_index(self):
        t = Tensor(np.zeros(2), ("a",))
        with pytest.raises(KeyError, match="no indices"):
            t.isel({"b": 0})


class TestStateVectorMisuse:
    def test_unnormalized_initial_state_rejected(self):
        qs = cirq.LineQubit.range(1)
        with pytest.raises(ValueError, match="not normalized"):
            StateVectorSimulationState(qs, initial_state=np.array([1.0, 1.0]))

    def test_wrong_length_initial_vector_rejected(self):
        qs = cirq.LineQubit.range(2)
        with pytest.raises(ValueError, match="amplitudes"):
            StateVectorSimulationState(qs, initial_state=np.array([1.0, 0.0]))

    def test_project_zero_probability_rejected(self):
        qs = cirq.LineQubit.range(1)
        state = StateVectorSimulationState(qs)
        with pytest.raises(ValueError, match="zero-probability"):
            state.project([0], [1])

    def test_duplicate_register_qubits_rejected(self):
        q = cirq.LineQubit(0)
        with pytest.raises(ValueError, match="Duplicate"):
            StateVectorSimulationState([q, q])


class TestCircuitMisuse:
    def test_overlapping_moment_rejected(self):
        q = cirq.LineQubit(0)
        with pytest.raises(ValueError, match="Overlapping"):
            cirq.Moment([cirq.X.on(q), cirq.Y.on(q)])

    def test_gate_arity_mismatch_rejected(self):
        qs = cirq.LineQubit.range(2)
        with pytest.raises(ValueError, match="acts on"):
            cirq.CNOT.on(qs[0])

    def test_duplicate_operation_qubits_rejected(self):
        q = cirq.LineQubit(0)
        with pytest.raises(ValueError, match="Duplicate"):
            cirq.CNOT.on(q, q)

    def test_qasm_garbage_rejected(self):
        with pytest.raises(cirq.QasmError):
            cirq.circuit_from_qasm("OPENQASM 3.0;")
