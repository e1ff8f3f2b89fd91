"""Tests for the backend capability registry (states/registry.py)."""

import numpy as np
import pytest

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.mps import MPSState
from repro.protocols import act_on
from repro.sampler.plan import compile_plan
from repro.states import (
    CliffordTableauSimulationState,
    DensityMatrixSimulationState,
    StabilizerChFormSimulationState,
    StateVectorSimulationState,
)
from repro.states.registry import (
    capabilities_for,
    capabilities_for_probability_fn,
    register_backend,
    registered_backends,
    unregister_backend,
)


@pytest.fixture
def qubits():
    return cirq.LineQubit.range(3)


class TestShippedRegistrations:
    def test_all_five_backends_registered(self):
        names = {caps.name for caps in registered_backends()}
        assert {
            "state_vector",
            "density_matrix",
            "stabilizer_ch_form",
            "clifford_tableau",
            "mps",
        } <= names

    @pytest.mark.parametrize(
        "cls,stab_seq,fused,shipped_dispatch,renorm,exact_ch",
        [
            (StateVectorSimulationState, False, False, True, True, False),
            (DensityMatrixSimulationState, False, False, True, False, True),
            (StabilizerChFormSimulationState, True, True, True, False, False),
            (CliffordTableauSimulationState, True, True, True, False, False),
            (MPSState, False, False, True, True, False),
        ],
    )
    def test_capability_flags(
        self, cls, stab_seq, fused, shipped_dispatch, renorm, exact_ch
    ):
        caps = capabilities_for(cls)
        assert caps.stabilizer_sequences == stab_seq
        assert caps.fused_moments == fused
        assert caps.shipped_dispatch == shipped_dispatch
        assert caps.renormalize == renorm
        assert caps.exact_channels == exact_ch
        assert caps.candidates_many is not None

    def test_instance_and_type_resolve_identically(self, qubits):
        state = StateVectorSimulationState(qubits)
        assert capabilities_for(state) is capabilities_for(
            StateVectorSimulationState
        )

    def test_scalar_function_lookup_matches_born(self):
        caps = capabilities_for_probability_fn(
            born.compute_probability_state_vector
        )
        assert caps is capabilities_for(StateVectorSimulationState)
        assert caps.candidates_many is born.many_candidate_function_for(
            born.compute_probability_state_vector
        )

    def test_mps_alias_resolves_to_same_descriptor(self):
        assert capabilities_for_probability_fn(
            born.mps_bitstring_probability
        ) is capabilities_for(MPSState)

    def test_unknown_function_resolves_to_none(self):
        assert capabilities_for_probability_fn(lambda s, b: 0.0) is None


class TestDerivedCapabilities:
    def test_subclass_inherits_parent_registration(self, qubits):
        class Child(StateVectorSimulationState):
            pass

        child = capabilities_for(Child)
        parent = capabilities_for(StateVectorSimulationState)
        for flag in (
            "stabilizer_sequences",
            "fused_moments",
            "shipped_dispatch",
            "renormalize",
            "exact_channels",
            "candidates_many",
        ):
            assert getattr(child, flag) == getattr(parent, flag), flag
        # Snapshot hooks and the scalar oracle are exact-type.
        assert child.compute_probability is None
        assert child.snapshot is None

    def test_unregistered_state_is_introspected_once(self):
        class Bare:
            def candidate_probabilities(self, bits, support):
                return np.ones(2)

        class Rows(Bare):
            def candidate_probabilities_many(self, bits_list, support):
                return np.ones((len(bits_list), 2))

        caps = capabilities_for(Bare)
        # A single-row method is not an oracle: only row blocks are.
        assert not hasattr(caps, "candidates")
        assert caps.candidates_many is None
        assert capabilities_for(Rows).candidates_many is not None
        assert not caps.stabilizer_sequences
        assert not caps.shipped_dispatch  # no SimulationState._act_on_
        # Cached: second lookup returns the identical derived descriptor.
        assert capabilities_for(Bare) is caps

    def test_act_on_override_disables_fast_unitary(self, qubits):
        """Regression: a subclass of a registered backend overriding
        _act_on_ must not be fast-pathed around its own dispatch."""
        calls = []

        class Intercepting(StateVectorSimulationState):
            def _act_on_(self, op):
                calls.append(op)
                super()._act_on_(op)

        caps = capabilities_for(Intercepting)
        assert not caps.shipped_dispatch
        # The oracle still inherits from the parent registration.
        assert caps.candidates_many is capabilities_for(
            StateVectorSimulationState
        ).candidates_many
        assert capabilities_for(Intercepting) is caps  # cached copy
        circuit = cirq.Circuit(
            cirq.H(qubits[0]), cirq.CNOT(qubits[0], qubits[1])
        )
        plan = compile_plan(circuit, Intercepting(qubits), act_on)
        assert not plan.fast_unitary
        state = Intercepting(qubits)
        for rec in plan.records:
            plan.apply(rec, state, act_on)
        assert len(calls) == 2  # every op went through the override

    def test_act_on_override_runs_end_to_end(self, qubits):
        """copy() preserves the subclass, so the override sees every op
        of an actual Simulator.run, not just the template state."""
        calls = []

        class Logging(StateVectorSimulationState):
            def _act_on_(self, op):
                calls.append(op)
                super()._act_on_(op)

        circuit = cirq.Circuit(
            cirq.H(qubits[0]),
            cirq.CNOT(qubits[0], qubits[1]),
            cirq.CNOT(qubits[1], qubits[2]),
            cirq.measure(*qubits, key="z"),
        )
        sim = bgls.Simulator(
            Logging(qubits),
            act_on,
            born.compute_probability_state_vector,
            seed=1,
        )
        rows = sim.run(circuit, repetitions=100).measurements["z"]
        assert len(calls) == 3  # H + 2 CNOTs, all through the override
        as_ints = rows @ np.array([4, 2, 1])
        assert set(np.unique(as_ints)) == {0, 7}

    def test_plan_fast_paths_flow_from_registry(self, qubits):
        """compile_plan's flags equal the registry's — no hasattr probing."""
        circuit = cirq.Circuit(cirq.H(qubits[0]))
        for cls in (
            StateVectorSimulationState,
            StabilizerChFormSimulationState,
            CliffordTableauSimulationState,
        ):
            caps = capabilities_for(cls)
            plan = compile_plan(circuit, cls(qubits), act_on)
            fast = caps.shipped_dispatch
            assert plan.fast_stab == (fast and caps.stabilizer_sequences)
            assert plan.fast_unitary == (
                fast and not caps.stabilizer_sequences
            )


STABILIZER_BACKENDS = [
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
]


def counting_subclass(base):
    """A subclass of ``base`` counting its ``_act_on_`` calls."""

    class Counting(base):
        calls = 0

        def _act_on_(self, op):
            Counting.calls += 1
            super()._act_on_(op)

    return Counting


class TestStabilizerActOnOverride:
    """A stabilizer subclass that overrides ``_act_on_`` sees every gate,
    as a state-vector subclass does: the fast paths skip only the
    dispatchers the library ships."""

    @staticmethod
    def bell(qubits):
        return cirq.Circuit(
            cirq.H(qubits[0]),
            cirq.CNOT(qubits[0], qubits[1]),
            cirq.measure(*qubits, key="z"),
        )

    @pytest.mark.parametrize("trajectory_mode", ["serial", "batched"])
    @pytest.mark.parametrize("base, prob_fn", STABILIZER_BACKENDS)
    def test_override_sees_every_gate(
        self, qubits, base, prob_fn, trajectory_mode
    ):
        cls = counting_subclass(base)
        caps = capabilities_for(cls)
        assert not caps.shipped_dispatch
        plan = compile_plan(self.bell(qubits), cls(qubits), act_on)
        assert not plan.fast_stab and not plan.fast_unitary
        sim = bgls.Simulator(
            cls(qubits),
            act_on,
            prob_fn,
            seed=1,
            trajectory_mode=trajectory_mode,
        )
        rows = sim.run(self.bell(qubits), repetitions=10).measurements["z"]
        # Parallel mode evolves one state: H and CNOT, once each.
        assert cls.calls == 2
        np.testing.assert_array_equal(rows[:, 0], rows[:, 1])

    @pytest.mark.parametrize("base, prob_fn", STABILIZER_BACKENDS)
    def test_override_samples_exact_born(self, qubits, base, prob_fn):
        from test_sampling_statistics import (
            assert_matches_exact,
            exact_distribution,
        )

        cls = counting_subclass(base)
        circuit = self.bell(qubits)
        sim = bgls.Simulator(cls(qubits), act_on, prob_fn, seed=1)
        reps = 2000
        rows = sim.run(circuit, repetitions=reps).measurements["z"]
        assert cls.calls == 2
        assert_matches_exact(
            rows, exact_distribution(circuit, qubits), len(qubits), reps
        )


# -- custom user backend through the public hook ---------------------------

CALLS = {"many": 0, "rows": []}


class UserVectorState(StateVectorSimulationState):
    """A 'user' backend: distinct type, registered via the public hook,
    with a counting candidate oracle."""

    def candidate_probabilities_many(self, bits_list, support):
        CALLS["many"] += 1
        CALLS["rows"].append(len(bits_list))
        return super().candidate_probabilities_many(bits_list, support)


def user_probability(state, bits):
    return state.probability_of(bits)


@pytest.fixture
def user_backend():
    caps = register_backend(
        UserVectorState,
        name="user_vector",
        compute_probability=user_probability,
    )
    CALLS["many"] = 0
    CALLS["rows"] = []
    yield caps
    unregister_backend(UserVectorState)


class TestUserBackendRegistration:
    def test_registration_beats_parent_descriptor(self, qubits, user_backend):
        assert capabilities_for(UserVectorState) is user_backend
        assert capabilities_for(UserVectorState).name == "user_vector"

    def test_born_lookups_resolve_user_functions(self, qubits, user_backend):
        oracle = born.many_candidate_function_for(user_probability)
        assert oracle is user_backend.candidates_many
        rows = oracle(UserVectorState(qubits), [(0, 0, 0)], [0])
        assert rows.shape == (1, 2)
        assert CALLS["many"] == 1  # the class's own method answered

    def test_simulator_reaches_batched_many_candidate_path(
        self, qubits, user_backend
    ):
        """The acceptance-criterion test: a custom backend registered via
        the public hook is served by the cross-bitstring batched oracle in
        parallel mode, exactly like a shipped backend."""
        circuit = cirq.Circuit(
            cirq.H(qubits[0]),
            cirq.CNOT(qubits[0], qubits[1]),
            cirq.CNOT(qubits[1], qubits[2]),
            cirq.measure(*qubits, key="z"),
        )
        sim = bgls.Simulator(
            UserVectorState(qubits), bgls.act_on, user_probability, seed=7
        )
        result = sim.run(circuit, repetitions=400)
        assert CALLS["many"] > 0  # every resampling round was batched
        rows = result.measurements["z"]
        as_ints = rows @ np.array([4, 2, 1])
        assert set(np.unique(as_ints)) == {0, 7}
        frac = float(np.mean(as_ints == 0))
        assert 0.35 < frac < 0.65

    def test_trajectory_mode_asks_the_oracle_for_one_row(
        self, qubits, user_backend
    ):
        """Trajectory mode (here: a mid-circuit measurement) is served by
        the same registered oracle, one tracked bitstring per call."""
        circuit = cirq.Circuit(
            cirq.H(qubits[0]),
            cirq.measure(qubits[0], key="mid"),
            cirq.CNOT(qubits[0], qubits[1]),
            cirq.measure(*qubits, key="z"),
        )
        sim = bgls.Simulator(
            UserVectorState(qubits), bgls.act_on, user_probability, seed=7
        )
        result = sim.run(circuit, repetitions=20)
        assert CALLS["many"] == 2 * 20  # H and CNOT, every repetition
        assert set(CALLS["rows"]) == {1}
        rows = result.measurements["z"]
        np.testing.assert_array_equal(rows[:, 0], result.measurements["mid"][:, 0])
        np.testing.assert_array_equal(rows[:, 0], rows[:, 1])

    def test_introspected_capability_defaults(self, qubits, user_backend):
        # Unspecified flags were derived from the class surface.
        assert user_backend.shipped_dispatch
        assert user_backend.renormalize
        assert not user_backend.stabilizer_sequences

    def test_reregistration_purges_previous_aliases(self, qubits):
        def other_fn(state, bits):
            return state.probability_of(bits)

        register_backend(UserVectorState, compute_probability=other_fn)
        # Re-register with a different function, then unregister: no
        # mapping may survive from either registration.
        register_backend(UserVectorState, compute_probability=user_probability)
        assert capabilities_for_probability_fn(other_fn) is None
        unregister_backend(UserVectorState)
        assert capabilities_for_probability_fn(user_probability) is None

    def test_snapshot_requires_restore(self):
        with pytest.raises(ValueError, match="snapshot and restore"):
            register_backend(UserVectorState, snapshot=lambda s: s)


class TestRegistryConformance:
    """All five backends sample correctly through the registry path."""

    @pytest.mark.parametrize(
        "make_state,prob_fn",
        [
            (StateVectorSimulationState, born.compute_probability_state_vector),
            (DensityMatrixSimulationState, born.compute_probability_density_matrix),
            (
                StabilizerChFormSimulationState,
                born.compute_probability_stabilizer_state,
            ),
            (CliffordTableauSimulationState, born.compute_probability_tableau),
            (MPSState, born.compute_probability_mps),
        ],
    )
    def test_ghz_through_registry_dispatch(self, qubits, make_state, prob_fn):
        circuit = cirq.Circuit(
            cirq.H(qubits[0]),
            cirq.CNOT(qubits[0], qubits[1]),
            cirq.CNOT(qubits[1], qubits[2]),
            cirq.measure(*qubits, key="z"),
        )
        sim = bgls.Simulator(make_state(qubits), bgls.act_on, prob_fn, seed=5)
        rows = sim.run(circuit, repetitions=300).measurements["z"]
        as_ints = rows @ np.array([4, 2, 1])
        assert set(np.unique(as_ints)) == {0, 7}
        assert 0.35 < float(np.mean(as_ints == 0)) < 0.65


# -- subclasses in batched trajectory mode ----------------------------------


def _noisy_dense_circuit(qubits):
    return cirq.Circuit(
        cirq.H(qubits[0]),
        cirq.CNOT(qubits[0], qubits[1]),
        cirq.rx(0.3)(qubits[2]),
        [cirq.depolarize(0.05)(q) for q in qubits],
        cirq.CNOT(qubits[1], qubits[2]),
        cirq.measure(*qubits, key="z"),
    )


def _clifford_mid_measure_circuit(qubits):
    return cirq.Circuit(
        cirq.H(qubits[0]),
        cirq.CNOT(qubits[0], qubits[1]),
        cirq.S(qubits[2]),
        cirq.measure(qubits[0], key="mid"),
        cirq.H(qubits[2]),
        cirq.CNOT(qubits[1], qubits[2]),
        cirq.measure(*qubits, key="z"),
    )


def _records(state, prob_fn, circuit, mode, reps=64):
    sim = bgls.Simulator(
        state, act_on, prob_fn, seed=11, trajectory_mode=mode
    )
    result = sim.run(circuit, repetitions=reps)
    return {key: result.measurements[key] for key in result.measurements}


def _assert_records_equal(a, b):
    assert set(a) == set(b)
    for key in a:
        np.testing.assert_array_equal(a[key], b[key])


class TestSubclassesInBatchedMode:
    def test_act_on_override_sees_every_gate_in_batched_mode(self, qubits):
        """A subclass overriding _act_on_ is never fast-pathed around its
        dispatch: batched mode runs it through the serial loop, so the
        override sees every non-branching gate of every repetition."""
        calls = []

        class Counting(StateVectorSimulationState):
            def _act_on_(self, op):
                calls.append(op)
                super()._act_on_(op)

        circuit = _noisy_dense_circuit(qubits)
        reps = 40
        batched = _records(
            Counting(qubits),
            born.compute_probability_state_vector,
            circuit,
            "batched",
            reps,
        )
        # H, CNOT, rx and the second CNOT; depolarize branches.
        assert len(calls) == 4 * reps
        serial = _records(
            Counting(qubits),
            born.compute_probability_state_vector,
            circuit,
            "serial",
            reps,
        )
        _assert_records_equal(batched, serial)

    @pytest.mark.parametrize(
        "parent,prob_fn,make_circuit",
        [
            (
                StateVectorSimulationState,
                born.compute_probability_state_vector,
                _noisy_dense_circuit,
            ),
            (
                StabilizerChFormSimulationState,
                born.compute_probability_stabilizer_state,
                _clifford_mid_measure_circuit,
            ),
            (
                CliffordTableauSimulationState,
                born.compute_probability_tableau,
                _clifford_mid_measure_circuit,
            ),
        ],
        ids=["state_vector", "stabilizer_ch_form", "clifford_tableau"],
    )
    def test_plain_subclass_matches_parent_in_batched_mode(
        self, qubits, monkeypatch, parent, prob_fn, make_circuit
    ):
        from repro.sampler import trajectory_batch

        engine_runs = []
        run_batched = trajectory_batch.run_batched_trajectories

        def spy(*args, **kwargs):
            engine_runs.append(type(args[0].initial_state))
            return run_batched(*args, **kwargs)

        monkeypatch.setattr(trajectory_batch, "run_batched_trajectories", spy)

        class Plain(parent):
            pass

        circuit = make_circuit(qubits)
        expected = _records(parent(qubits), prob_fn, circuit, "batched")
        got = _records(Plain(qubits), prob_fn, circuit, "batched")
        assert engine_runs == [parent, Plain]
        _assert_records_equal(got, expected)
