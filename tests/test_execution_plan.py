"""Tests for the compiled execution plan (sampler/plan.py)."""

import numpy as np
import pytest

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.protocols import act_on
from repro.sampler.plan import compile_plan
from repro.states import (
    CliffordTableauSimulationState,
    StabilizerChFormSimulationState,
    StateVectorSimulationState,
)

from test_sampling_statistics import assert_matches_exact, exact_distribution


@pytest.fixture
def qubits():
    return cirq.LineQubit.range(3)


class TestCompilePlan:
    def test_records_cache_support_and_metadata(self, qubits):
        a, b, c = qubits
        circuit = cirq.Circuit(
            cirq.H(a), cirq.CNOT(a, b), cirq.T(c), cirq.measure(a, b, key="m")
        )
        state = StateVectorSimulationState(qubits)
        plan = compile_plan(circuit, state, act_on)
        assert plan.num_qubits == 3
        assert not plan.needs_trajectories
        # Moment packing puts T(c) alongside H(a) in the first moment.
        assert [rec.support for rec in plan.records] == [(0,), (2,), (0, 1), (0, 1)]
        h, t, cnot, m = plan.records
        assert h.unitary is not None and h.stab_seq is not None
        assert t.stab_seq is None  # T is not Clifford
        assert m.is_measurement and m.measurement_key == "m"
        assert plan.key_axes == {"m": (0, 1)}

    def test_diagonal_flag_computed_once_and_cached(self, qubits):
        a = qubits[0]
        circuit = cirq.Circuit(cirq.T(a), cirq.H(a))
        state = StateVectorSimulationState(qubits)
        plan = compile_plan(circuit, state, act_on)
        t_rec, h_rec = plan.records
        assert t_rec._diagonal is None  # lazy until first query
        assert t_rec.is_diagonal() and t_rec._diagonal is True
        assert not h_rec.is_diagonal()
        # Cached: mutating the stored unitary no longer changes the answer.
        t_rec.unitary = np.zeros((2, 2))
        assert t_rec.is_diagonal()

    def test_duplicate_measurement_key_raises(self, qubits):
        a, b, _ = qubits
        circuit = cirq.Circuit(
            cirq.measure(a, key="k"), cirq.measure(b, key="k")
        )
        state = StateVectorSimulationState(qubits)
        with pytest.raises(ValueError, match="Duplicate measurement key"):
            compile_plan(circuit, state, act_on)

    def test_unknown_qubit_raises(self, qubits):
        stranger = cirq.LineQubit(99)
        circuit = cirq.Circuit(cirq.X(stranger))
        state = StateVectorSimulationState(qubits)
        with pytest.raises(ValueError, match="not in state register"):
            compile_plan(circuit, state, act_on)

    def test_trajectory_triggers(self, qubits):
        a, b, _ = qubits
        state = StateVectorSimulationState(qubits)
        unitary = cirq.Circuit(cirq.H(a), cirq.measure(a, key="m"))
        assert not compile_plan(unitary, state, act_on).needs_trajectories

        noisy = cirq.Circuit(cirq.H(a), cirq.depolarize(0.1)(a))
        noisy_plan = compile_plan(noisy, state, act_on)
        assert noisy_plan.needs_trajectories
        assert noisy_plan.records[1].kraus is not None
        assert noisy_plan.records[1].needs_branching

        mid = cirq.Circuit(cirq.measure(a, key="e"), cirq.H(a))
        assert compile_plan(mid, state, act_on).needs_trajectories

        def stochastic(op, state):  # pragma: no cover - never called
            act_on(op, state)

        stochastic._bgls_stochastic_ = True
        assert compile_plan(unitary, state, stochastic).needs_trajectories

    def test_density_matrix_channels_do_not_branch(self, qubits):
        from repro.states import DensityMatrixSimulationState

        a = qubits[0]
        circuit = cirq.Circuit(cirq.H(a), cirq.depolarize(0.1)(a))
        state = DensityMatrixSimulationState(qubits)
        plan = compile_plan(circuit, state, act_on)
        assert not plan.records[1].needs_branching

    def test_noise_apply_op_owns_only_pauli_channels(self, qubits):
        """The noise apply_ops declare ``_bgls_owns_channel_ =
        PauliChannel``: a Pauli channel is theirs to sample, any other
        channel branches in the Simulator."""
        from repro.sampler import act_on_with_pauli_noise

        a = qubits[0]
        circuit = cirq.Circuit(
            cirq.H(a), cirq.depolarize(0.1)(a), cirq.amplitude_damp(0.1)(a)
        )
        state = StateVectorSimulationState(qubits)
        plan = compile_plan(circuit, state, act_on_with_pauli_noise)
        assert not plan.records[1].needs_branching
        assert plan.records[2].needs_branching

    def test_fast_paths_selected_per_state(self, qubits):
        circuit = cirq.Circuit(cirq.H(qubits[0]))
        sv_plan = compile_plan(circuit, StateVectorSimulationState(qubits), act_on)
        assert sv_plan.fast_unitary and not sv_plan.fast_stab
        ch_plan = compile_plan(
            circuit, StabilizerChFormSimulationState(qubits), act_on
        )
        assert ch_plan.fast_stab and not ch_plan.fast_unitary
        tab_plan = compile_plan(
            circuit, CliffordTableauSimulationState(qubits), act_on
        )
        assert tab_plan.fast_stab

        def custom(op, state):  # pragma: no cover - never called
            act_on(op, state)

        custom_plan = compile_plan(
            circuit, StateVectorSimulationState(qubits), custom
        )
        assert not custom_plan.fast_unitary and not custom_plan.fast_stab


class TestPlannedExecutionMatchesBackends:
    """All three backends sample the same GHZ distribution via their plans."""

    def test_ghz_sampling_agreement(self, qubits):
        circuit = cirq.Circuit(
            cirq.H(qubits[0]),
            cirq.CNOT(qubits[0], qubits[1]),
            cirq.CNOT(qubits[1], qubits[2]),
            cirq.measure(*qubits, key="z"),
        )
        reps = 400
        for make_state, prob_fn in [
            (StateVectorSimulationState, born.compute_probability_state_vector),
            (
                StabilizerChFormSimulationState,
                born.compute_probability_stabilizer_state,
            ),
            (CliffordTableauSimulationState, born.compute_probability_tableau),
        ]:
            sim = bgls.Simulator(make_state(qubits), bgls.act_on, prob_fn, seed=9)
            result = sim.run(circuit, repetitions=reps)
            rows = result.measurements["z"]
            assert rows.shape == (reps, 3)
            as_ints = rows @ np.array([4, 2, 1])
            assert set(np.unique(as_ints)) == {0, 7}
            frac = float(np.mean(as_ints == 0))
            assert 0.35 < frac < 0.65

    def test_skip_diagonal_updates_still_correct(self, qubits):
        a = qubits[0]
        circuit = cirq.Circuit(
            cirq.H(a), cirq.T(a), cirq.Z(a), cirq.measure(a, key="m")
        )
        sim = bgls.Simulator(
            StateVectorSimulationState(qubits),
            bgls.act_on,
            born.compute_probability_state_vector,
            seed=2,
            skip_diagonal_updates=True,
        )
        result = sim.run(circuit, repetitions=300)
        frac = float(result.measurements["m"].mean())
        assert 0.35 < frac < 0.65


class TestMomentFusion:
    """Moments of disjoint single-qubit Clifford gates compile fused."""

    def test_moment_of_singles_fuses_into_one_record(self):
        from repro.sampler.plan import FusedOpRecord

        qs = cirq.LineQubit.range(4)
        circuit = cirq.Circuit(
            [cirq.H(qs[0]), cirq.S(qs[1]), cirq.X(qs[2]), cirq.Z(qs[3])]
        )
        plan = compile_plan(circuit, StateVectorSimulationState(qs), act_on)
        assert len(plan.records) == 1
        rec = plan.records[0]
        assert type(rec) is FusedOpRecord
        assert rec.support == (0, 1, 2, 3)
        assert not rec.is_diagonal()  # H and X are not diagonal

    def test_diagonal_only_group_reports_diagonal(self):
        qs = cirq.LineQubit.range(2)
        circuit = cirq.Circuit([cirq.Z(qs[0]), cirq.S(qs[1])])
        plan = compile_plan(circuit, StateVectorSimulationState(qs), act_on)
        assert plan.records[0].is_diagonal()

    def test_group_size_is_capped(self):
        from repro.sampler.plan import MAX_FUSED_SUPPORT, FusedOpRecord

        n = MAX_FUSED_SUPPORT + 3
        qs = cirq.LineQubit.range(n)
        circuit = cirq.Circuit([cirq.H(q) for q in qs])
        plan = compile_plan(circuit, StateVectorSimulationState(qs), act_on)
        assert len(plan.records) == 2
        assert type(plan.records[0]) is FusedOpRecord
        assert len(plan.records[0].records) == MAX_FUSED_SUPPORT
        assert len(plan.records[1].records) == 3

    def test_non_clifford_and_multiqubit_ops_stay_unfused(self):
        from repro.sampler.plan import FusedOpRecord

        qs = cirq.LineQubit.range(4)
        circuit = cirq.Circuit(
            [cirq.H(qs[0]), cirq.T(qs[1]), cirq.CNOT(qs[2], qs[3])]
        )
        plan = compile_plan(circuit, StateVectorSimulationState(qs), act_on)
        assert not any(type(r) is FusedOpRecord for r in plan.records)
        assert len(plan.records) == 3

    def test_fusion_disabled_flags(self):
        from repro.sampler.plan import FusedOpRecord

        qs = cirq.LineQubit.range(3)
        circuit = cirq.Circuit([cirq.H(q) for q in qs])

        def custom(op, state):  # pragma: no cover - never called
            act_on(op, state)

        plan = compile_plan(circuit, StateVectorSimulationState(qs), custom)
        assert not any(type(r) is FusedOpRecord for r in plan.records)

    @pytest.mark.parametrize(
        "make_state",
        [
            StateVectorSimulationState,
            StabilizerChFormSimulationState,
            CliffordTableauSimulationState,
        ],
    )
    def test_fused_apply_reaches_same_state(self, make_state):
        """plan.apply on fused records == sequential per-gate application."""
        qs = cirq.LineQubit.range(5)
        circuit = cirq.Circuit(
            [cirq.H(qs[0]), cirq.S(qs[1]), cirq.Y(qs[2]), cirq.Z(qs[3]),
             cirq.X(qs[4])]
        )
        fused_state = make_state(qs)
        plain_state = make_state(qs)
        plan = compile_plan(circuit, fused_state, act_on)
        for rec in plan.records:
            plan.apply(rec, fused_state, act_on)
        for op in circuit.all_operations():
            act_on(op, plain_state)
        bits_list = [[0] * 5, [1, 0, 1, 0, 1], [1] * 5]
        np.testing.assert_allclose(
            fused_state.candidate_probabilities_many(bits_list, [0, 2, 4]),
            plain_state.candidate_probabilities_many(bits_list, [0, 2, 4]),
            atol=1e-12,
        )

    @pytest.mark.parametrize(
        "make_state, prob_fn",
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
    def test_fused_sampling_matches_exact_born(self, make_state, prob_fn):
        """Fused moments sample the exact Born distribution (TVD and
        chi-square against the dense final state)."""
        from repro.sampler.plan import FusedOpRecord

        qs = cirq.LineQubit.range(5)
        circuit = cirq.random_clifford_circuit(qs, 20, random_state=5)
        plan = compile_plan(circuit, make_state(qs), act_on)
        assert any(type(r) is FusedOpRecord for r in plan.records)
        reps = 2000
        sim = bgls.Simulator(make_state(qs), bgls.act_on, prob_fn, seed=21)
        bits = sim.sample_bitstrings(circuit, repetitions=reps)
        assert_matches_exact(bits, exact_distribution(circuit, qs), 5, reps)
