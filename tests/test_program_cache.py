"""Tests for the Program layer: cache keying, specialization, sweeps."""

import numpy as np
import pytest

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.protocols import act_on
from repro.sampler.plan import FusedOpRecord, compile_plan
from repro.sampler.program import (
    Program,
    circuit_fingerprint,
    clear_program_cache,
    compiled_program,
    program_cache_info,
)
from repro.states import (
    StabilizerChFormSimulationState,
    StateVectorSimulationState,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_program_cache()
    yield
    clear_program_cache()


@pytest.fixture
def qubits():
    return cirq.LineQubit.range(3)


def sv_simulator(qubits, seed=0, **kw):
    return bgls.Simulator(
        StateVectorSimulationState(qubits),
        bgls.act_on,
        born.compute_probability_state_vector,
        seed=seed,
        **kw,
    )


def parameterized_circuit(qubits):
    theta = cirq.Symbol("theta")
    return cirq.Circuit(
        cirq.H(qubits[0]),
        cirq.CNOT(qubits[0], qubits[1]),
        cirq.Rx(theta).on(qubits[2]),
        cirq.measure(*qubits, key="m"),
    )


class TestFingerprint:
    def test_equal_circuits_fingerprint_equal(self, qubits):
        a = cirq.Circuit(cirq.H(qubits[0]), cirq.CNOT(qubits[0], qubits[1]))
        b = cirq.Circuit(cirq.H(qubits[0]), cirq.CNOT(qubits[0], qubits[1]))
        assert circuit_fingerprint(a) == circuit_fingerprint(b)

    def test_mutation_changes_fingerprint(self, qubits):
        a = cirq.Circuit(cirq.H(qubits[0]))
        before = circuit_fingerprint(a)
        a.append(cirq.X(qubits[1]))
        assert circuit_fingerprint(a) != before

    def test_near_equal_matrix_gates_do_not_alias(self, qubits):
        """Regression: MatrixGate equality is allclose-based, but the
        cache must distinguish finite-difference-sized perturbations."""
        base = np.array([[1, 0], [0, np.exp(1j * 0.5)]])
        bumped = np.array([[1, 0], [0, np.exp(1j * (0.5 + 1e-7))]])
        a = cirq.Circuit(cirq.MatrixGate(base).on(qubits[0]))
        b = cirq.Circuit(cirq.MatrixGate(bumped).on(qubits[0]))
        assert circuit_fingerprint(a) != circuit_fingerprint(b)
        sim = sv_simulator(qubits)
        prog_a, prog_b = sim.compile(a), sim.compile(b)
        assert prog_a is not prog_b
        assert program_cache_info()["misses"] == 2
        # Exact re-builds still hit.
        assert sim.compile(
            cirq.Circuit(cirq.MatrixGate(base.copy()).on(qubits[0]))
        ) is prog_a

    def test_gate_value_matters(self, qubits):
        a = cirq.Circuit(cirq.Rx(0.3).on(qubits[0]))
        b = cirq.Circuit(cirq.Rx(0.4).on(qubits[0]))
        assert circuit_fingerprint(a) != circuit_fingerprint(b)


class TestCacheKeying:
    def test_identical_compile_hits(self, qubits):
        sim = sv_simulator(qubits)
        circuit = cirq.Circuit(cirq.H(qubits[0]), cirq.measure(*qubits, key="m"))
        p1 = sim.compile(circuit)
        p2 = sim.compile(circuit)
        assert p1 is p2
        info = program_cache_info()
        assert info["misses"] == 1 and info["hits"] == 1

    def test_equal_but_separately_built_circuit_hits(self, qubits):
        sim = sv_simulator(qubits)
        make = lambda: cirq.Circuit(
            cirq.H(qubits[0]), cirq.measure(*qubits, key="m")
        )
        assert sim.compile(make()) is sim.compile(make())

    def test_mutated_circuit_misses(self, qubits):
        sim = sv_simulator(qubits)
        circuit = cirq.Circuit(cirq.H(qubits[0]), cirq.measure(*qubits, key="m"))
        p1 = sim.compile(circuit)
        circuit.append(cirq.X(qubits[1]))
        p2 = sim.compile(circuit)
        assert p1 is not p2
        assert program_cache_info()["misses"] == 2

    def test_backend_type_misses(self, qubits):
        circuit = cirq.Circuit(cirq.H(qubits[0]), cirq.measure(*qubits, key="m"))
        sv = sv_simulator(qubits).compile(circuit)
        ch = bgls.Simulator(
            StabilizerChFormSimulationState(qubits),
            bgls.act_on,
            born.compute_probability_stabilizer_state,
        ).compile(circuit)
        assert sv is not ch
        assert sv.fast_unitary and not sv.fast_stab
        assert ch.fast_stab and not ch.fast_unitary
        assert program_cache_info()["misses"] == 2

    def test_apply_op_misses(self, qubits):
        circuit = cirq.Circuit(cirq.H(qubits[0]), cirq.measure(*qubits, key="m"))
        p1 = sv_simulator(qubits).compile(circuit)

        def custom(op, state):  # pragma: no cover - never called
            act_on(op, state)

        sim = bgls.Simulator(
            StateVectorSimulationState(qubits),
            custom,
            born.compute_probability_state_vector,
        )
        assert sim.compile(circuit) is not p1


class TestSpecialization:
    def test_param_free_program_has_single_cached_plan(self, qubits):
        sim = sv_simulator(qubits)
        circuit = cirq.Circuit(cirq.H(qubits[0]), cirq.measure(*qubits, key="m"))
        program = sim.compile(circuit)
        assert not program.is_parameterized
        assert program.specialize(None) is program.specialize({"x": 1.0})

    def test_param_slots_counted(self, qubits):
        program = sv_simulator(qubits).compile(parameterized_circuit(qubits))
        assert program.is_parameterized
        assert program.param_slot_count == 1
        assert program.shared_record_count == 3  # H, CNOT, measure

    def test_shared_records_reused_across_points(self, qubits):
        program = sv_simulator(qubits).compile(parameterized_circuit(qubits))
        plan_a = program.specialize({"theta": 0.1})
        plan_b = program.specialize({"theta": 0.2})
        # The H record object is literally shared; the Rx record is not.
        shared_a = [r for r in plan_a.records if r.support == (0,)]
        shared_b = [r for r in plan_b.records if r.support == (0,)]
        assert shared_a[0] is shared_b[0]
        rx_a = [r for r in plan_a.records if r.support == (2,)]
        rx_b = [r for r in plan_b.records if r.support == (2,)]
        assert rx_a[0] is not rx_b[0]
        assert not np.allclose(rx_a[0].unitary, rx_b[0].unitary)

    def test_specialized_plan_matches_direct_compilation(self, qubits):
        """Record stream identical to resolving then compiling."""
        circuit = parameterized_circuit(qubits)
        sim = sv_simulator(qubits)
        program = sim.compile(circuit)
        for theta in (0.0, 0.37, 1.0):
            resolver = cirq.ParamResolver({"theta": theta})
            via_program = program.specialize(resolver)
            direct = compile_plan(
                circuit.resolve_parameters(resolver),
                sim.initial_state,
                sim.apply_op,
            )
            assert len(via_program.records) == len(direct.records)
            for rec_p, rec_d in zip(via_program.records, direct.records):
                assert type(rec_p) is type(rec_d)
                assert rec_p.support == rec_d.support
                u_p = getattr(rec_p, "unitary", None)
                u_d = getattr(rec_d, "unitary", None)
                if u_p is not None or u_d is not None:
                    np.testing.assert_allclose(u_p, u_d, atol=1e-12)
            assert via_program.needs_trajectories == direct.needs_trajectories
            assert via_program.key_axes == direct.key_axes

    def test_fusion_inside_parameterized_moment(self):
        """Resolved-Clifford param gates fuse exactly like the direct path."""
        qs = cirq.LineQubit.range(3)
        theta = cirq.Symbol("t")
        circuit = cirq.Circuit(
            [cirq.H(qs[0]), cirq.S(qs[1]), cirq.Rz(theta).on(qs[2])]
        )
        sim = sv_simulator(qs)
        program = sim.compile(circuit)
        # theta = pi/2 resolves Rz to a Clifford (S up to phase) -> fused.
        plan = program.specialize({"t": np.pi / 2})
        assert len(plan.records) == 1
        assert type(plan.records[0]) is FusedOpRecord
        # A non-Clifford angle stays unfused next to the fused pair.
        plan2 = program.specialize({"t": 0.3})
        assert len(plan2.records) == 2
        assert type(plan2.records[0]) is FusedOpRecord
        assert plan2.records[1].support == (2,)

    def test_unresolved_parameters_raise(self, qubits):
        program = sv_simulator(qubits).compile(parameterized_circuit(qubits))
        with pytest.raises(ValueError, match="unresolved parameters"):
            program.specialize(None)

    def test_validation_errors_surface_at_compile(self, qubits):
        sim = sv_simulator(qubits)
        stranger = cirq.LineQubit(99)
        with pytest.raises(ValueError, match="not in state register"):
            sim.compile(cirq.Circuit(cirq.X(stranger)))
        with pytest.raises(ValueError, match="Duplicate measurement key"):
            sim.compile(
                cirq.Circuit(
                    cirq.measure(qubits[0], key="k"),
                    cirq.measure(qubits[1], key="k"),
                )
            )


class TestRunSweep:
    def test_twenty_point_sweep_compiles_once(self, qubits):
        """Acceptance criterion: >= 20 resolver points, one compilation."""
        sim = sv_simulator(qubits, seed=3)
        circuit = parameterized_circuit(qubits)
        params = [{"theta": 0.1 * i} for i in range(25)]
        results = sim.run_sweep(circuit, params, repetitions=10)
        assert len(results) == 25
        info = program_cache_info()
        assert info["misses"] == 1 and info["size"] == 1
        program = sim.compile(circuit)  # one more hit, no recompilation
        assert program.specializations == 25
        assert program_cache_info()["hits"] == 1

    def test_sweep_is_bit_for_bit_reproducible(self, qubits):
        """Regression: per-point seeds derive from SeedSequence([seed, i])."""
        circuit = parameterized_circuit(qubits)
        params = [{"theta": 0.2 * i} for i in range(6)]
        runs = []
        for _ in range(2):
            sim = sv_simulator(qubits, seed=123)
            results = sim.run_sweep(circuit, params, repetitions=40)
            runs.append([r.measurements["m"].copy() for r in results])
        for a, b in zip(*runs):
            np.testing.assert_array_equal(a, b)

    def test_point_stream_independent_of_sweep_length(self, qubits):
        """Point i's samples do not depend on how many points follow."""
        circuit = parameterized_circuit(qubits)
        params = [{"theta": 0.2 * i} for i in range(6)]
        full = sv_simulator(qubits, seed=9).run_sweep(
            circuit, params, repetitions=30
        )
        prefix = sv_simulator(qubits, seed=9).run_sweep(
            circuit, params[:2], repetitions=30
        )
        for a, b in zip(prefix, full[:2]):
            np.testing.assert_array_equal(
                a.measurements["m"], b.measurements["m"]
            )

    def test_different_seeds_differ(self, qubits):
        circuit = parameterized_circuit(qubits)
        params = [{"theta": 0.7}]
        a = sv_simulator(qubits, seed=0).run_sweep(circuit, params, repetitions=50)
        b = sv_simulator(qubits, seed=1).run_sweep(circuit, params, repetitions=50)
        assert not np.array_equal(
            a[0].measurements["m"], b[0].measurements["m"]
        )

    def test_sweep_statistics_match_physics(self, qubits):
        theta = cirq.Symbol("theta")
        circuit = cirq.Circuit(
            cirq.Rx(theta).on(qubits[0]), cirq.measure(qubits[0], key="m")
        )
        sim = sv_simulator(qubits, seed=2)
        results = sim.run_sweep(
            circuit, [{"theta": 0.0}, {"theta": np.pi}], repetitions=50
        )
        assert results[0].histogram("m") == {0: 50}
        assert results[1].histogram("m") == {1: 50}

    def test_sample_bitstrings_sweep_shapes(self, qubits):
        sim = sv_simulator(qubits, seed=4)
        circuit = parameterized_circuit(qubits)
        sweeps = sim.sample_bitstrings_sweep(
            circuit, [{"theta": 0.1}, {"theta": 0.9}], repetitions=17
        )
        assert len(sweeps) == 2
        for bits in sweeps:
            assert bits.shape == (17, 3)


class TestSpecializeMemoization:
    """Per-resolver plan memoization: bounded LRU, graceful fallbacks."""

    def test_same_resolver_returns_identical_plan_object(self, qubits):
        program = sv_simulator(qubits).compile(parameterized_circuit(qubits))
        a = program.specialize({"theta": 0.5})
        b = program.specialize({"theta": 0.5})
        assert a is b
        info = program.specialize_cache_info()
        assert info["misses"] == 1 and info["hits"] == 1 and info["size"] == 1

    def test_dict_and_resolver_share_one_entry(self, qubits):
        program = sv_simulator(qubits).compile(parameterized_circuit(qubits))
        via_dict = program.specialize({"theta": 0.25})
        via_resolver = program.specialize(cirq.ParamResolver({"theta": 0.25}))
        assert via_dict is via_resolver

    def test_lru_eviction_is_bounded(self, qubits, monkeypatch):
        from repro.sampler import program as program_module

        monkeypatch.setattr(program_module, "_SPECIALIZE_CACHE_MAX", 2)
        program = sv_simulator(qubits).compile(parameterized_circuit(qubits))
        first = program.specialize({"theta": 0.1})
        program.specialize({"theta": 0.2})
        program.specialize({"theta": 0.3})  # evicts theta=0.1
        info = program.specialize_cache_info()
        assert info["size"] == 2
        assert info["evictions"] == 1
        # The evicted entry rebuilds (a new object), recently-used survive.
        assert program.specialize({"theta": 0.3}) is not None
        assert program.specialize_cache_info()["hits"] == 1
        rebuilt = program.specialize({"theta": 0.1})
        assert rebuilt is not first

    def test_lru_recency_order(self, qubits, monkeypatch):
        from repro.sampler import program as program_module

        monkeypatch.setattr(program_module, "_SPECIALIZE_CACHE_MAX", 2)
        program = sv_simulator(qubits).compile(parameterized_circuit(qubits))
        a = program.specialize({"theta": 0.1})
        program.specialize({"theta": 0.2})
        a_again = program.specialize({"theta": 0.1})  # refresh a
        program.specialize({"theta": 0.3})  # evicts 0.2, not 0.1
        assert a_again is a
        assert program.specialize({"theta": 0.1}) is a

    def test_custom_resolver_object_falls_back_uncached(self, qubits):
        """Resolvers without inspectable assignments stay correct, uncached."""

        class OpaqueResolver:
            def value_of(self, value):
                return value.value(0.5)

        program = sv_simulator(qubits).compile(parameterized_circuit(qubits))
        a = program.specialize(OpaqueResolver())
        b = program.specialize(OpaqueResolver())
        assert a is not b
        info = program.specialize_cache_info()
        assert info["uncachable"] == 2 and info["size"] == 0
        reference = program.specialize({"theta": 0.5})
        rx_a = [r for r in a.records if r.support == (2,)][0]
        rx_ref = [r for r in reference.records if r.support == (2,)][0]
        np.testing.assert_allclose(rx_a.unitary, rx_ref.unitary, atol=1e-12)

    def test_array_valued_assignments_fall_back_uncached(self, qubits):
        """Unhashable assignment values cannot key the cache; still correct."""

        class VectorResolver(cirq.ParamResolver):
            def __init__(self, values):
                self._assignments = {"theta": values}  # ndarray: unhashable

            def value_of(self, value):
                return value.value(float(self._assignments["theta"][0]))

        program = sv_simulator(qubits).compile(parameterized_circuit(qubits))
        plan = program.specialize(VectorResolver(np.array([0.3, 9.9])))
        assert program.specialize_cache_info()["uncachable"] == 1
        reference = program.specialize({"theta": 0.3})
        rx = [r for r in plan.records if r.support == (2,)][0]
        rx_ref = [r for r in reference.records if r.support == (2,)][0]
        np.testing.assert_allclose(rx.unitary, rx_ref.unitary, atol=1e-12)

    def test_counters_exposed_and_clearable(self, qubits):
        program = sv_simulator(qubits).compile(parameterized_circuit(qubits))
        program.specialize({"theta": 0.1})
        program.specialize({"theta": 0.1})
        info = program.specialize_cache_info()
        assert set(info) == {"hits", "misses", "evictions", "uncachable", "size"}
        program.clear_specialize_cache()
        cleared = program.specialize_cache_info()
        assert cleared == {
            "hits": 0, "misses": 0, "evictions": 0, "uncachable": 0, "size": 0,
        }

    def test_param_free_program_bypasses_resolver_cache(self, qubits):
        sim = sv_simulator(qubits)
        circuit = cirq.Circuit(cirq.H(qubits[0]), cirq.measure(*qubits, key="m"))
        program = sim.compile(circuit)
        assert program.specialize(None) is program.specialize({"x": 1.0})
        assert program.specialize_cache_info()["size"] == 0

    def test_pickled_program_resets_cache(self, qubits):
        """Programs ship to pool workers without their cached plans."""
        import pickle

        program = sv_simulator(qubits).compile(parameterized_circuit(qubits))
        program.specialize({"theta": 0.4})
        clone = pickle.loads(pickle.dumps(program))
        assert clone.specialize_cache_info()["size"] == 0
        plan = clone.specialize({"theta": 0.4})
        reference = program.specialize({"theta": 0.4})
        assert len(plan.records) == len(reference.records)

    def test_sweep_revisit_hits_cache(self, qubits):
        """Grid-refinement pattern: revisited points skip the rebuild."""
        sim = sv_simulator(qubits, seed=3)
        circuit = parameterized_circuit(qubits)
        params = [{"theta": 0.1}, {"theta": 0.2}, {"theta": 0.1}]
        sim.run_sweep(circuit, params, repetitions=5)
        info = sim.compile(circuit).specialize_cache_info()
        assert info["misses"] == 2 and info["hits"] == 1


class TestRunBatch:
    def test_batch_returns_one_result_per_circuit(self, qubits):
        sim = sv_simulator(qubits, seed=5)
        c1 = cirq.Circuit(cirq.H(qubits[0]), cirq.measure(qubits[0], key="a"))
        c2 = cirq.Circuit(cirq.X(qubits[1]), cirq.measure(qubits[1], key="b"))
        results = sim.run_batch([c1, c2], repetitions=20)
        assert len(results) == 2
        assert results[0].measurements["a"].shape == (20, 1)
        assert results[1].histogram("b") == {1: 20}

    def test_batch_with_resolvers(self, qubits):
        sim = sv_simulator(qubits, seed=6)
        circuit = parameterized_circuit(qubits)
        results = sim.run_batch(
            [circuit, circuit],
            params=[{"theta": 0.0}, {"theta": np.pi}],
            repetitions=30,
        )
        assert results[0].measurements["m"][:, 2].sum() == 0
        assert results[1].measurements["m"][:, 2].sum() == 30

    def test_repeated_circuit_compiles_once(self, qubits):
        sim = sv_simulator(qubits, seed=7)
        circuit = cirq.Circuit(cirq.H(qubits[0]), cirq.measure(*qubits, key="m"))
        sim.run_batch([circuit, circuit, circuit], repetitions=5)
        info = program_cache_info()
        assert info["misses"] == 1 and info["hits"] == 2

    def test_mismatched_params_length_raises(self, qubits):
        sim = sv_simulator(qubits)
        circuit = cirq.Circuit(cirq.H(qubits[0]), cirq.measure(*qubits, key="m"))
        with pytest.raises(ValueError, match="resolvers"):
            sim.run_batch([circuit], params=[None, None])

    def test_batch_reproducible(self, qubits):
        circuit = cirq.Circuit(cirq.H(qubits[0]), cirq.measure(*qubits, key="m"))
        a = sv_simulator(qubits, seed=11).run_batch([circuit, circuit], repetitions=25)
        b = sv_simulator(qubits, seed=11).run_batch([circuit, circuit], repetitions=25)
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(
                ra.measurements["m"], rb.measurements["m"]
            )


class TestProgramDirect:
    def test_program_usable_without_simulator(self, qubits):
        state = StateVectorSimulationState(qubits)
        program = Program(
            parameterized_circuit(qubits), state, act_on
        )
        plan = program.specialize({"theta": 0.5})
        assert plan.num_qubits == 3
        assert not plan.needs_trajectories

    def test_compiled_program_helper_caches(self, qubits):
        state = StateVectorSimulationState(qubits)
        circuit = cirq.Circuit(cirq.H(qubits[0]))
        p1 = compiled_program(circuit, state, act_on)
        p2 = compiled_program(circuit, state, act_on)
        assert p1 is p2
