"""Tests for the BGLS Simulator mechanics (modes, records, errors)."""

import numpy as np
import pytest

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.states import StateVectorSimulationState


def sv_simulator(qubits, seed=0, **kw):
    return bgls.Simulator(
        initial_state=StateVectorSimulationState(qubits),
        apply_op=bgls.act_on,
        compute_probability=born.compute_probability_state_vector,
        seed=seed,
        **kw,
    )


@pytest.fixture
def qubits():
    return cirq.LineQubit.range(2)


@pytest.fixture
def ghz(qubits):
    return cirq.Circuit(
        cirq.H(qubits[0]),
        cirq.CNOT(qubits[0], qubits[1]),
        cirq.measure(*qubits, key="z"),
    )


class TestRun:
    def test_ghz_histogram_only_extremes(self, qubits, ghz):
        """Paper Fig. 1: GHZ sampling returns only 00 and 11."""
        result = sv_simulator(qubits).run(ghz, repetitions=500)
        hist = result.histogram("z")
        assert set(hist) <= {0, 3}
        assert 150 < hist[0] < 350

    def test_repetitions_shape(self, qubits, ghz):
        result = sv_simulator(qubits).run(ghz, repetitions=17)
        assert result.measurements["z"].shape == (17, 2)
        assert result.repetitions == 17

    def test_run_requires_measurement(self, qubits):
        circuit = cirq.Circuit(cirq.H(qubits[0]))
        with pytest.raises(ValueError, match="no measurements"):
            sv_simulator(qubits).run(circuit)

    def test_sample_alias(self, qubits, ghz):
        result = sv_simulator(qubits).sample(ghz, repetitions=5)
        assert result.repetitions == 5

    def test_invalid_repetitions(self, qubits, ghz):
        with pytest.raises(ValueError):
            sv_simulator(qubits).run(ghz, repetitions=0)

    def test_measurement_key_subset_of_qubits(self, qubits):
        circuit = cirq.Circuit(
            cirq.H(qubits[0]),
            cirq.CNOT(qubits[0], qubits[1]),
            cirq.measure(qubits[1], key="only_q1"),
        )
        result = sv_simulator(qubits).run(circuit, repetitions=10)
        assert result.measurements["only_q1"].shape == (10, 1)

    def test_multiple_keys(self, qubits):
        circuit = cirq.Circuit(
            cirq.H(qubits[0]),
            cirq.CNOT(qubits[0], qubits[1]),
            cirq.measure(qubits[0], key="a"),
            cirq.measure(qubits[1], key="b"),
        )
        result = sv_simulator(qubits).run(circuit, repetitions=50)
        np.testing.assert_array_equal(
            result.measurements["a"], result.measurements["b"]
        )

    def test_duplicate_key_rejected(self, qubits):
        circuit = cirq.Circuit(
            cirq.measure(qubits[0], key="m"), cirq.measure(qubits[1], key="m")
        )
        with pytest.raises(ValueError, match="Duplicate measurement key"):
            sv_simulator(qubits).run(circuit)

    def test_circuit_qubits_must_be_in_register(self, qubits):
        stranger = cirq.LineQubit(99)
        circuit = cirq.Circuit(cirq.H(stranger), cirq.measure(stranger, key="m"))
        with pytest.raises(ValueError, match="not in state register"):
            sv_simulator(qubits).run(circuit)

    def test_initial_state_not_consumed(self, qubits, ghz):
        sim = sv_simulator(qubits)
        sim.run(ghz, repetitions=10)
        result2 = sim.run(ghz, repetitions=10)  # same initial state reused
        assert result2.repetitions == 10
        np.testing.assert_allclose(
            sim.initial_state.state_vector()[0], 1.0
        )

    def test_seeded_reproducibility(self, qubits, ghz):
        r1 = sv_simulator(qubits, seed=42).run(ghz, repetitions=20)
        r2 = sv_simulator(qubits, seed=42).run(ghz, repetitions=20)
        assert r1 == r2

    def test_qubit_not_in_circuit_stays_zero(self):
        qs = cirq.LineQubit.range(3)
        circuit = cirq.Circuit(cirq.X(qs[0]), cirq.measure(*qs, key="m"))
        result = sv_simulator(qs).run(circuit, repetitions=5)
        np.testing.assert_array_equal(
            result.measurements["m"], [[1, 0, 0]] * 5
        )


class TestParameterResolution:
    def test_run_with_resolver(self, qubits):
        theta = cirq.Symbol("theta")
        circuit = cirq.Circuit(
            cirq.Rx(theta).on(qubits[0]), cirq.measure(qubits[0], key="m")
        )
        import math

        result = sv_simulator(qubits).run(
            circuit, repetitions=20, param_resolver={"theta": math.pi}
        )
        assert result.histogram("m") == {1: 20}

    def test_unresolved_raises(self, qubits):
        circuit = cirq.Circuit(
            cirq.Rx(cirq.Symbol("t")).on(qubits[0]),
            cirq.measure(qubits[0], key="m"),
        )
        with pytest.raises(ValueError):
            sv_simulator(qubits).run(circuit, repetitions=1)


class TestParallelVsTrajectories:
    def test_unitary_circuit_uses_parallel_mode(self, qubits, ghz, monkeypatch):
        sim = sv_simulator(qubits)
        called = {}
        original = sim._run_parallel

        def spy(*args, **kw):
            called["parallel"] = True
            return original(*args, **kw)

        monkeypatch.setattr(sim, "_run_parallel", spy)
        sim.run(ghz, repetitions=5)
        assert called.get("parallel")

    def test_noisy_circuit_uses_trajectories(self, qubits, monkeypatch):
        circuit = cirq.Circuit(
            cirq.H(qubits[0]),
            cirq.depolarize(0.1)(qubits[0]),
            cirq.measure(*qubits, key="m"),
        )
        sim = sv_simulator(qubits)
        called = {}
        original = sim._run_trajectories

        def spy(*args, **kw):
            called["traj"] = True
            return original(*args, **kw)

        monkeypatch.setattr(sim, "_run_trajectories", spy)
        sim.run(circuit, repetitions=5)
        assert called.get("traj")

    def test_mid_circuit_measurement_uses_trajectories(self, qubits, monkeypatch):
        circuit = cirq.Circuit(
            cirq.measure(qubits[0], key="early"),
            cirq.H(qubits[0]),
            cirq.measure(qubits[0], key="late"),
        )
        sim = sv_simulator(qubits)
        called = {}
        original = sim._run_trajectories

        def spy(*args, **kw):
            called["traj"] = True
            return original(*args, **kw)

        monkeypatch.setattr(sim, "_run_trajectories", spy)
        sim.run(circuit, repetitions=5)
        assert called.get("traj")

    def test_stochastic_apply_op_flag_forces_trajectories(self, qubits, monkeypatch):
        def stochastic_apply(op, state):
            bgls.act_on(op, state)

        stochastic_apply._bgls_stochastic_ = True
        sim = bgls.Simulator(
            StateVectorSimulationState(qubits),
            stochastic_apply,
            born.compute_probability_state_vector,
            seed=0,
        )
        called = {}
        original = sim._run_trajectories

        def spy(*args, **kw):
            called["traj"] = True
            return original(*args, **kw)

        monkeypatch.setattr(sim, "_run_trajectories", spy)
        circuit = cirq.Circuit(cirq.H(qubits[0]), cirq.measure(*qubits, key="m"))
        sim.run(circuit, repetitions=3)
        assert called.get("traj")

    def test_modes_agree_statistically(self, qubits):
        """The same circuit sampled via both modes gives the same stats."""
        circuit = cirq.Circuit(
            cirq.H(qubits[0]),
            cirq.CNOT(qubits[0], qubits[1]),
            cirq.measure(*qubits, key="z"),
        )
        par = sv_simulator(qubits, seed=0).run(circuit, repetitions=2000)

        def tagged(op, state):
            bgls.act_on(op, state)

        tagged._bgls_stochastic_ = True
        traj_sim = bgls.Simulator(
            StateVectorSimulationState(qubits),
            tagged,
            born.compute_probability_state_vector,
            seed=1,
        )
        traj = traj_sim.run(circuit, repetitions=2000)
        p_par = par.histogram("z")[0] / 2000
        p_traj = traj.histogram("z")[0] / 2000
        assert abs(p_par - p_traj) < 0.07


class TestSampleBitstrings:
    def test_shape_and_values(self, qubits, ghz):
        bits = sv_simulator(qubits).sample_bitstrings(ghz, repetitions=25)
        assert bits.shape == (25, 2)
        assert set(np.unique(bits)) <= {0, 1}

    def test_measurement_free_circuit_ok(self, qubits):
        circuit = cirq.Circuit(cirq.X(qubits[0]))
        bits = sv_simulator(qubits).sample_bitstrings(circuit, repetitions=4)
        np.testing.assert_array_equal(bits, [[1, 0]] * 4)


class TestCustomComputeProbability:
    def test_user_function_loop_fallback(self, qubits, ghz):
        """A hand-written compute_probability exercises the generic path."""
        calls = {"n": 0}

        def my_probability(state, bitstring):
            calls["n"] += 1
            return float(
                abs(state.tensor[tuple(int(b) for b in bitstring)]) ** 2
            )

        sim = bgls.Simulator(
            StateVectorSimulationState(qubits),
            bgls.act_on,
            my_probability,
            seed=0,
        )
        result = sim.run(ghz, repetitions=100)
        assert set(result.histogram("z")) <= {0, 3}
        assert calls["n"] > 0  # loop fallback was used

    def test_explicit_candidate_function(self, qubits, ghz):
        rows = []

        def candidates(state, bits, support):
            rows.append(tuple(bits))
            return state.candidate_probabilities_many([bits], support)[0]

        sim = bgls.Simulator(
            StateVectorSimulationState(qubits),
            bgls.act_on,
            born.compute_probability_state_vector,
            compute_candidate_probabilities=candidates,
            seed=0,
        )
        result = sim.run(ghz, repetitions=50)
        assert set(result.histogram("z")) <= {0, 3}
        assert rows  # the user's single-row oracle served every front row


class TestSkipDiagonalUpdates:
    def test_distribution_unchanged(self):
        qs = cirq.LineQubit.range(3)
        circuit = cirq.Circuit(
            [cirq.H(q) for q in qs],
            cirq.CZ(qs[0], qs[1]),
            cirq.T(qs[1]),
            cirq.Z(qs[2]),
            cirq.CNOT(qs[1], qs[2]),
            cirq.measure(*qs, key="m"),
        )
        plain = sv_simulator(qs, seed=3).run(circuit, repetitions=3000)
        skipping = sv_simulator(qs, seed=4, skip_diagonal_updates=True).run(
            circuit, repetitions=3000
        )
        p1 = np.array([plain.histogram("m").get(i, 0) for i in range(8)]) / 3000
        p2 = np.array(
            [skipping.histogram("m").get(i, 0) for i in range(8)]
        ) / 3000
        assert 0.5 * np.abs(p1 - p2).sum() < 0.06
