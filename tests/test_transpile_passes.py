"""Tests for the transpiler pass framework and light-cone reduction.

The invariant every pass must satisfy: the rewritten circuit produces the
same sampling distribution over measurement keys (checked against exact
final-state probabilities, and statistically through the BGLS sampler).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import born
from repro import circuits as cirq
from repro.protocols import act_on
from repro.sampler import Simulator
from repro.states import StateVectorSimulationState
from repro.transpile import (
    CancelAdjacentInverses,
    DecomposeMultiQubitGates,
    DropEmptyMoments,
    DropNegligibleGates,
    LightConeReduction,
    MergeRotations,
    PassPipeline,
    PassStats,
    default_pipeline,
    light_cone_qubits,
    reduce_to_light_cone,
    transpile,
)


def final_probabilities(circuit, qubits):
    state = StateVectorSimulationState(qubits)
    for op in circuit.without_measurements().all_operations():
        act_on(op, state)
    return np.abs(state.state_vector()) ** 2


def assert_same_distribution(circuit_a, circuit_b, qubits, atol=1e-8):
    np.testing.assert_allclose(
        final_probabilities(circuit_a, qubits),
        final_probabilities(circuit_b, qubits),
        atol=atol,
    )


class TestLightCone:
    def test_unrelated_branch_is_dropped(self):
        qs = cirq.LineQubit.range(4)
        circuit = cirq.Circuit(
            cirq.H.on(qs[0]),
            cirq.CNOT.on(qs[0], qs[1]),
            cirq.H.on(qs[2]),          # outside cone
            cirq.CNOT.on(qs[2], qs[3]),  # outside cone
            cirq.measure(qs[0], qs[1], key="z"),
        )
        reduced = reduce_to_light_cone(circuit)
        assert reduced.num_operations() == 3
        assert light_cone_qubits(circuit) == {qs[0], qs[1]}

    def test_interacting_branch_is_kept(self):
        qs = cirq.LineQubit.range(3)
        circuit = cirq.Circuit(
            cirq.H.on(qs[2]),
            cirq.CNOT.on(qs[2], qs[1]),
            cirq.CNOT.on(qs[1], qs[0]),
            cirq.measure(qs[0], key="z"),
        )
        reduced = reduce_to_light_cone(circuit)
        assert reduced.num_operations() == 4

    def test_gate_after_measurement_on_other_qubit_dropped(self):
        qs = cirq.LineQubit.range(2)
        circuit = cirq.Circuit(
            cirq.H.on(qs[0]),
            cirq.measure(qs[0], key="z"),
        )
        circuit.append(cirq.X.on(qs[1]))
        reduced = reduce_to_light_cone(circuit)
        assert reduced.num_operations() == 2

    def test_no_measurements_keeps_everything(self):
        qs = cirq.LineQubit.range(2)
        circuit = cirq.Circuit(cirq.H.on(qs[0]), cirq.X.on(qs[1]))
        reduced = reduce_to_light_cone(circuit)
        assert reduced.num_operations() == 2
        assert light_cone_qubits(circuit) == set(qs)

    def test_mid_circuit_measurement_cone_preserved(self):
        qs = cirq.LineQubit.range(3)
        circuit = cirq.Circuit(
            cirq.H.on(qs[2]),
            cirq.measure(qs[2], key="mid"),
            cirq.H.on(qs[0]),
            cirq.measure(qs[0], key="z"),
        )
        reduced = reduce_to_light_cone(circuit)
        # The H feeding the mid-circuit measurement must survive.
        assert reduced.num_operations() == 4

    def test_measured_marginal_unchanged(self):
        qs = cirq.LineQubit.range(5)
        circuit = cirq.random_clifford_circuit(qs, n_moments=8, random_state=3)
        circuit.append(cirq.measure(qs[0], qs[1], key="z"))
        reduced = reduce_to_light_cone(circuit)

        def marginal(c):
            probs = final_probabilities(c, qs).reshape((2,) * 5)
            return probs.sum(axis=(2, 3, 4))

        np.testing.assert_allclose(marginal(circuit), marginal(reduced), atol=1e-8)


class TestDropNegligible:
    def test_drops_identity_and_phase(self):
        qs = cirq.LineQubit.range(1)
        circuit = cirq.Circuit(
            cirq.I.on(qs[0]),
            cirq.ZPowGate(exponent=2.0).on(qs[0]),  # = identity up to phase
            cirq.X.on(qs[0]),
        )
        out = DropNegligibleGates()(circuit)
        assert out.num_operations() == 1

    def test_keeps_measurements(self):
        qs = cirq.LineQubit.range(1)
        circuit = cirq.Circuit(cirq.I.on(qs[0]), cirq.measure(qs[0], key="z"))
        out = DropNegligibleGates()(circuit)
        assert out.has_measurements()

    def test_distribution_preserved(self):
        qs = cirq.LineQubit.range(3)
        circuit = cirq.generate_random_circuit(qs, 6, random_state=11)
        out = DropNegligibleGates()(circuit)
        assert_same_distribution(circuit, out, qs)


class TestCancelAdjacentInverses:
    def test_cancels_double_h(self):
        q = cirq.LineQubit(0)
        circuit = cirq.Circuit(cirq.H.on(q), cirq.H.on(q), cirq.X.on(q))
        out = CancelAdjacentInverses()(circuit)
        assert out.num_operations() == 1

    def test_cascading_cancellation(self):
        q = cirq.LineQubit(0)
        circuit = cirq.Circuit(
            cirq.X.on(q), cirq.H.on(q), cirq.H.on(q), cirq.X.on(q)
        )
        out = CancelAdjacentInverses()(circuit)
        assert out.num_operations() == 0

    def test_cancels_s_sdag(self):
        q = cirq.LineQubit(0)
        circuit = cirq.Circuit(cirq.S.on(q), cirq.S_DAG.on(q))
        out = CancelAdjacentInverses()(circuit)
        assert out.num_operations() == 0

    def test_cancels_cnot_pair(self):
        qs = cirq.LineQubit.range(2)
        circuit = cirq.Circuit(
            cirq.CNOT.on(qs[0], qs[1]), cirq.CNOT.on(qs[0], qs[1])
        )
        out = CancelAdjacentInverses()(circuit)
        assert out.num_operations() == 0

    def test_no_cancel_through_blocking_op(self):
        qs = cirq.LineQubit.range(2)
        circuit = cirq.Circuit(
            cirq.H.on(qs[0]),
            cirq.CNOT.on(qs[0], qs[1]),
            cirq.H.on(qs[0]),
        )
        out = CancelAdjacentInverses()(circuit)
        assert out.num_operations() == 3

    def test_measurement_blocks_cancellation(self):
        q = cirq.LineQubit(0)
        circuit = cirq.Circuit(
            cirq.H.on(q), cirq.measure(q, key="m"), cirq.H.on(q)
        )
        out = CancelAdjacentInverses()(circuit)
        assert out.num_operations() == 3

    def test_distribution_preserved_random(self):
        qs = cirq.LineQubit.range(3)
        circuit = cirq.generate_random_circuit(qs, 10, random_state=5)
        out = CancelAdjacentInverses()(circuit)
        assert_same_distribution(circuit, out, qs)


class TestDecomposeMultiQubit:
    def _check(self, circuit, qs):
        out = DecomposeMultiQubitGates()(circuit)
        for op in out.all_operations():
            assert len(op.qubits) <= 2
        assert_same_distribution(circuit, out, qs)
        return out

    def test_toffoli_lowered(self):
        qs = cirq.LineQubit.range(3)
        circuit = cirq.Circuit(
            cirq.H.on(qs[0]), cirq.H.on(qs[1]), cirq.TOFFOLI.on(*qs)
        )
        self._check(circuit, qs)

    def test_ccz_lowered(self):
        qs = cirq.LineQubit.range(3)
        circuit = cirq.Circuit(
            cirq.H.on(qs[0]), cirq.H.on(qs[1]), cirq.H.on(qs[2]),
            cirq.CCZ.on(*qs),
        )
        self._check(circuit, qs)

    def test_cswap_lowered(self):
        qs = cirq.LineQubit.range(3)
        circuit = cirq.Circuit(
            cirq.H.on(qs[0]), cirq.X.on(qs[1]), cirq.CSWAP.on(*qs)
        )
        self._check(circuit, qs)

    def test_matrix_gate_lowered_via_qsd(self):
        import scipy.stats

        qs = cirq.LineQubit.range(3)
        u = scipy.stats.unitary_group.rvs(8, random_state=1)
        circuit = cirq.Circuit(cirq.MatrixGate(u).on(*qs))
        self._check(circuit, qs)

    def test_iswap_lowered_to_cliffords(self):
        qs = cirq.LineQubit.range(2)
        circuit = cirq.Circuit(cirq.H.on(qs[0]), cirq.ISWAP.on(*qs))
        out = self._check(circuit, qs)
        for op in out.all_operations():
            assert op._stabilizer_sequence_() is not None

    def test_swap_kept_by_default(self):
        qs = cirq.LineQubit.range(2)
        circuit = cirq.Circuit(cirq.SWAP.on(*qs))
        out = DecomposeMultiQubitGates()(circuit)
        assert out.num_operations() == 1
        out = DecomposeMultiQubitGates(decompose_swaps=True)(circuit)
        assert out.num_operations() == 3

    def test_measurements_pass_through(self):
        qs = cirq.LineQubit.range(3)
        circuit = cirq.Circuit(cirq.TOFFOLI.on(*qs), cirq.measure(*qs, key="z"))
        out = DecomposeMultiQubitGates()(circuit)
        assert out.has_measurements()


class TestPassManager:
    """The default pass pipeline, end to end."""

    def test_default_pipeline_distribution_preserved(self):
        qs = cirq.LineQubit.range(4)
        circuit = cirq.generate_random_circuit(qs, 12, random_state=7)
        circuit.append(cirq.measure(*qs, key="z"))
        out = default_pipeline().run(circuit)
        assert_same_distribution(circuit, out, qs)

    def test_default_pipeline_shrinks_wasteful_circuit(self):
        qs = cirq.LineQubit.range(4)
        circuit = cirq.Circuit()
        for _ in range(5):
            circuit.append(cirq.H.on(qs[0]))
            circuit.append(cirq.T.on(qs[0]))
        circuit.append(cirq.H.on(qs[3]))  # outside the cone
        circuit.append(cirq.measure(qs[0], key="z"))
        out = default_pipeline().run(circuit)
        assert out.num_operations() < circuit.num_operations()

    def test_pipeline_without_light_cone(self):
        qs = cirq.LineQubit.range(2)
        circuit = cirq.Circuit(
            cirq.H.on(qs[1]),  # would be pruned with light_cone=True
            cirq.measure(qs[0], key="z"),
        )
        out = default_pipeline(light_cone=False).run(circuit)
        assert out.num_operations() == 2

    def test_sampling_agrees_end_to_end(self):
        qs = cirq.LineQubit.range(3)
        circuit = cirq.Circuit(
            cirq.H.on(qs[0]),
            cirq.CNOT.on(qs[0], qs[1]),
            cirq.T.on(qs[1]),
            cirq.T_DAG.on(qs[1]),
            cirq.H.on(qs[2]),
            cirq.H.on(qs[2]),
            cirq.measure(qs[0], qs[1], key="z"),
        )
        optimized = default_pipeline().run(circuit)
        sim = Simulator(
            initial_state=StateVectorSimulationState(qs),
            apply_op=lambda op, s: act_on(op, s),
            compute_probability=born.compute_probability_state_vector,
            seed=3,
        )
        res = sim.run(optimized, repetitions=300)
        rows = {tuple(r) for r in res.measurements["z"]}
        assert rows == {(0, 0), (1, 1)}


def assert_same_unitary_action(circuit_a, circuit_b, qubits, atol=1e-8):
    """Final states agree up to a global phase."""
    a = circuit_a.without_measurements().final_state_vector(qubit_order=qubits)
    b = circuit_b.without_measurements().final_state_vector(qubit_order=qubits)
    np.testing.assert_allclose(abs(np.vdot(a, b)), 1.0, atol=atol)


class TestMergeRotations:
    def test_same_axis_run_collapses(self):
        q = cirq.LineQubit.range(1)
        circuit = cirq.Circuit(
            cirq.XPowGate(exponent=0.25).on(q[0]),
            cirq.XPowGate(exponent=0.25).on(q[0]),
        )
        out = MergeRotations()(circuit)
        (op,) = list(out.all_operations())
        assert isinstance(op.gate, cirq.XPowGate)
        assert op.gate.exponent == 0.75 * 0 + 0.5

    def test_global_phase_exact_for_rz_run(self):
        # Rz carries global_shift=-0.5; the merged gate must reproduce
        # the accumulated phase exactly, not just the distribution.
        q = cirq.LineQubit.range(1)
        circuit = cirq.Circuit(
            cirq.Rz(0.3).on(q[0]), cirq.Rz(0.5).on(q[0]), cirq.Rz(0.1).on(q[0])
        )
        out = MergeRotations()(circuit)
        assert out.num_operations() == 1
        u_in = np.eye(2)
        for op in circuit.all_operations():
            u_in = op.gate._unitary_() @ u_in
        (op,) = list(out.all_operations())
        np.testing.assert_allclose(op.gate._unitary_(), u_in, atol=1e-12)

    def test_identity_run_dropped(self):
        q = cirq.LineQubit.range(1)
        circuit = cirq.Circuit(
            cirq.Rz(np.pi / 2).on(q[0]),
            cirq.Rz(np.pi / 2).on(q[0]),
            cirq.Rz(np.pi / 2).on(q[0]),
            cirq.Rz(np.pi / 2).on(q[0]),
        )
        out = MergeRotations()(circuit)
        assert out.num_operations() == 0

    def test_different_axes_do_not_merge(self):
        q = cirq.LineQubit.range(1)
        circuit = cirq.Circuit(
            cirq.XPowGate(exponent=0.5).on(q[0]),
            cirq.YPowGate(exponent=0.5).on(q[0]),
        )
        out = MergeRotations()(circuit)
        assert out.num_operations() == 2

    def test_phased_x_same_phase_merges(self):
        q = cirq.LineQubit.range(1)
        circuit = cirq.Circuit(
            cirq.PhasedXPowGate(phase_exponent=0.25, exponent=0.25).on(q[0]),
            cirq.PhasedXPowGate(phase_exponent=0.25, exponent=0.25).on(q[0]),
        )
        out = MergeRotations()(circuit)
        (op,) = list(out.all_operations())
        assert isinstance(op.gate, cirq.PhasedXPowGate)
        assert op.gate.phase_exponent == 0.25
        assert op.gate.exponent == 0.5

    def test_phased_x_different_phase_does_not_merge(self):
        q = cirq.LineQubit.range(1)
        circuit = cirq.Circuit(
            cirq.PhasedXPowGate(phase_exponent=0.25, exponent=0.25).on(q[0]),
            cirq.PhasedXPowGate(phase_exponent=0.5, exponent=0.25).on(q[0]),
        )
        out = MergeRotations()(circuit)
        assert out.num_operations() == 2

    def test_two_qubit_gate_is_barrier(self):
        qs = cirq.LineQubit.range(2)
        circuit = cirq.Circuit(
            cirq.XPowGate(exponent=0.25).on(qs[0]),
            cirq.CNOT.on(qs[0], qs[1]),
            cirq.XPowGate(exponent=0.25).on(qs[0]),
        )
        out = MergeRotations()(circuit)
        assert out.num_operations() == 3
        assert_same_unitary_action(circuit, out, qs)

    def test_measurement_is_barrier(self):
        q = cirq.LineQubit.range(1)
        circuit = cirq.Circuit(
            cirq.XPowGate(exponent=1.0).on(q[0]),
            cirq.measure(q[0], key="a"),
            cirq.XPowGate(exponent=1.0).on(q[0]),
        )
        out = MergeRotations()(circuit)
        assert out.num_operations() == 3

    def test_parameterized_ops_pass_through(self):
        q = cirq.LineQubit.range(1)
        theta = cirq.Symbol("theta")
        circuit = cirq.Circuit(
            cirq.XPowGate(exponent=0.25).on(q[0]),
            cirq.Rx(theta).on(q[0]),
            cirq.XPowGate(exponent=0.25).on(q[0]),
        )
        out = MergeRotations()(circuit)
        assert out.num_operations() == 3

    def test_single_gates_untouched(self):
        q = cirq.LineQubit.range(1)
        circuit = cirq.Circuit(cirq.XPowGate(exponent=0.3).on(q[0]))
        out = MergeRotations()(circuit)
        (op,) = list(out.all_operations())
        assert op.gate == cirq.XPowGate(exponent=0.3)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["x", "y", "z", "h", "px", "px2"]),
                st.floats(-2.0, 2.0),
                st.sampled_from([0.0, -0.5, 0.25]),
            ),
            min_size=1,
            max_size=12,
        ),
        st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_unitary_equivalence_property(self, spec, barrier_at):
        """Merging preserves the circuit's action up to a global phase."""
        qs = cirq.LineQubit.range(2)
        gate_for = {
            "x": lambda t, s: cirq.XPowGate(exponent=t, global_shift=s),
            "y": lambda t, s: cirq.YPowGate(exponent=t, global_shift=s),
            "z": lambda t, s: cirq.ZPowGate(exponent=t, global_shift=s),
            "h": lambda t, s: cirq.HPowGate(exponent=t, global_shift=s),
            "px": lambda t, s: cirq.PhasedXPowGate(
                phase_exponent=0.25, exponent=t, global_shift=s
            ),
            "px2": lambda t, s: cirq.PhasedXPowGate(
                phase_exponent=0.75, exponent=t, global_shift=s
            ),
        }
        circuit = cirq.Circuit(cirq.H.on(qs[0]), cirq.H.on(qs[1]))
        for i, (kind, t, s) in enumerate(spec):
            if i == barrier_at:
                circuit.append(cirq.CZ.on(qs[0], qs[1]))
            circuit.append(gate_for[kind](t, s).on(qs[i % 2]))
        merged = MergeRotations()(circuit)
        assert merged.num_operations() <= circuit.num_operations()
        assert_same_unitary_action(circuit, merged, qs, atol=1e-7)


class TestPassPipeline:
    def _wasteful_circuit(self):
        qs = cirq.LineQubit.range(2)
        circuit = cirq.Circuit(
            cirq.XPowGate(exponent=0.25).on(qs[0]),
            cirq.XPowGate(exponent=0.25).on(qs[0]),
            cirq.H.on(qs[1]),
            cirq.H.on(qs[1]),
            cirq.measure(*qs, key="z"),
        )
        return qs, circuit

    def test_stats_record_ops_depth_and_time(self):
        # MergeRotations: the X^0.25 pair fuses to X^0.5 and the H pair
        # (exponent sum 2 = identity) is dropped, leaving 2 ops.
        qs, circuit = self._wasteful_circuit()
        pipe = PassPipeline([MergeRotations(), CancelAdjacentInverses()])
        out = pipe.run(circuit)
        assert out.num_operations() == 2
        assert len(pipe.stats) == 2
        first = pipe.stats[0]
        assert isinstance(first, PassStats)
        assert first.name == "MergeRotations"
        assert first.ops_before == 5
        assert first.ops_after == 2
        assert first.depth_before >= first.depth_after
        assert first.seconds >= 0.0

    def test_stats_records_counts(self):
        qs = cirq.LineQubit.range(2)
        circuit = cirq.Circuit(
            cirq.H.on(qs[0]), cirq.H.on(qs[0]), cirq.measure(*qs, key="z")
        )
        pipe = PassPipeline([CancelAdjacentInverses(), DropEmptyMoments()])
        out = pipe.run(circuit)
        assert out.num_operations() == 1
        first = pipe.stats[0]
        assert (first.name, first.ops_before, first.ops_after) == (
            "CancelAdjacentInverses", 3, 1,
        )

    def test_pipeline_is_composable_as_a_pass(self):
        qs, circuit = self._wasteful_circuit()
        inner = PassPipeline([MergeRotations()])
        outer = PassPipeline([inner, CancelAdjacentInverses()])
        out = outer.run(circuit)
        assert out.num_operations() == 2
        assert outer.stats[0].name == "PassPipeline"

    def test_transpile_default_equals_default_pipeline(self):
        qs, circuit = self._wasteful_circuit()
        a = transpile(circuit)
        b = default_pipeline().run(circuit)
        assert repr(a) == repr(b)

    def test_transpile_accepts_pass_list(self):
        qs, circuit = self._wasteful_circuit()
        out = transpile(circuit, [MergeRotations()])
        assert out.num_operations() == 2
        assert_same_distribution(circuit, out, qs)

    def test_transpile_accepts_prebuilt_pipeline(self):
        qs, circuit = self._wasteful_circuit()
        pipe = PassPipeline([LightConeReduction(), MergeRotations()])
        out = transpile(circuit, pipe)
        assert [s.name for s in pipe.stats] == [
            "LightConeReduction",
            "MergeRotations",
        ]
        assert_same_distribution(circuit, out, qs)

    def test_transpile_light_cone_toggle(self):
        qs = cirq.LineQubit.range(2)
        circuit = cirq.Circuit(
            cirq.H.on(qs[1]), cirq.measure(qs[0], key="z")
        )
        assert transpile(circuit).num_operations() == 1
        assert transpile(circuit, light_cone=False).num_operations() == 2
