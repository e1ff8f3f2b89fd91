"""Batched trajectory engine: determinism, parity, and fallback contracts.

The batched engine (:mod:`repro.sampler.trajectory_batch`) pins its own
deterministic contract — trajectory ``r`` of point ``p`` draws uniforms
from ``SeedSequence([base, p, rep_base + r])`` at plan-static offsets —
so its output must be bit-for-bit identical across tile sizes, chunk
geometries, worker counts, and (because the uniforms and Born
probabilities coincide) across every backend with a batched adapter
(``trajectory_batch.adapter_for``).  Serial mode's existing parity
contracts must remain untouched: backends without an adapter, custom
``apply_op`` functions, and user candidate functions all fall back to
the serial loop unchanged.
"""

import numpy as np
import pytest

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.analysis import empirical_distribution, total_variation_distance
from repro.mps import MPSState
from repro.sampler import trajectory_batch
from repro.sampler.executors import ProcessPoolExecutor, SerialExecutor
from repro.sampler.service import PoolManager
from repro.states import (
    CliffordTableauSimulationState,
    DensityMatrixSimulationState,
    StabilizerChFormSimulationState,
    StateVectorSimulationState,
)


def pool_start_methods():
    import multiprocessing
    import os

    env = os.environ.get("BGLS_POOL_START_METHODS", "fork")
    requested = [m.strip() for m in env.split(",") if m.strip()]
    available = multiprocessing.get_all_start_methods()
    methods = [m for m in requested if m in available]
    return methods or [available[0]]


START_METHODS = pool_start_methods()

N = 3
QUBITS = cirq.LineQubit.range(N)


def noisy_circuit():
    """Trajectory-forcing dense circuit: noise + mid-circuit measurement."""
    c = cirq.Circuit(
        [cirq.H(q) for q in QUBITS],
        cirq.CNOT(QUBITS[0], QUBITS[1]),
        cirq.rx(0.4)(QUBITS[2]),
        [cirq.depolarize(0.03)(q) for q in QUBITS],
        cirq.measure(QUBITS[0], key="mid"),
        cirq.CNOT(QUBITS[1], QUBITS[2]),
        [cirq.depolarize(0.02)(q) for q in QUBITS],
        cirq.measure(*QUBITS, key="m"),
    )
    return c


def clifford_mid_measure_circuit():
    """Trajectory-forcing Clifford circuit every stacked backend supports."""
    return cirq.Circuit(
        cirq.H(QUBITS[0]),
        cirq.CNOT(QUBITS[0], QUBITS[1]),
        cirq.S(QUBITS[2]),
        cirq.measure(QUBITS[0], key="mid"),
        cirq.H(QUBITS[2]),
        cirq.CNOT(QUBITS[1], QUBITS[2]),
        cirq.measure(*QUBITS, key="m"),
    )


SV = pytest.param(
    lambda: StateVectorSimulationState(QUBITS),
    born.compute_probability_state_vector,
    id="state_vector",
)
CHFORM = pytest.param(
    lambda: StabilizerChFormSimulationState(QUBITS),
    born.compute_probability_stabilizer_state,
    id="stabilizer_ch_form",
)
TABLEAU = pytest.param(
    lambda: CliffordTableauSimulationState(QUBITS),
    born.compute_probability_tableau,
    id="clifford_tableau",
)
BATCHED_BACKENDS = [SV, CHFORM, TABLEAU]


def make_sim(make_state, prob_fn, seed=7, mode="batched", **kw):
    return bgls.Simulator(
        make_state(),
        bgls.act_on,
        prob_fn,
        seed=seed,
        trajectory_mode=mode,
        **kw,
    )


def force_tile(monkeypatch, tile):
    """Pin the batched engine's tile width to ``tile`` through the two
    memory-budget constants (the dense budget holds two tiles)."""
    per_rep = 16 * 2**N
    monkeypatch.setattr(
        trajectory_batch, "DENSE_TILE_BUDGET_BYTES", 2 * per_rep * tile
    )
    monkeypatch.setattr(trajectory_batch, "STABILIZER_TILE_CAP", tile)
    for adapter in (
        trajectory_batch.BatchedStateVector,
        trajectory_batch.BatchedTableaus,
    ):
        assert adapter.tile_size(StateVectorSimulationState(QUBITS), 128) == tile


def run_bits(sim, circuit, reps=128):
    result = sim.run(circuit, repetitions=reps)
    return {key: result.measurements[key] for key in result.measurements}


def assert_records_equal(a, b):
    assert set(a) == set(b)
    for key in a:
        np.testing.assert_array_equal(a[key], b[key])


class TestCapabilityAndValidation:
    def test_advertising_backends(self):
        for state_type in (
            StateVectorSimulationState,
            StabilizerChFormSimulationState,
            CliffordTableauSimulationState,
        ):
            assert trajectory_batch.adapter_for(state_type) is not None
        for state_type in (DensityMatrixSimulationState, MPSState):
            assert trajectory_batch.adapter_for(state_type) is None

    def test_default_mode_is_serial(self):
        sim = bgls.Simulator(
            StateVectorSimulationState(QUBITS),
            bgls.act_on,
            born.compute_probability_state_vector,
        )
        assert sim.trajectory_mode == "serial"

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="trajectory_mode"):
            make_sim(
                lambda: StateVectorSimulationState(QUBITS),
                born.compute_probability_state_vector,
                mode="wat",
            )

    def test_custom_apply_op_falls_back_to_serial(self):
        def my_apply(op, state):
            return bgls.act_on(op, state)

        serial = bgls.Simulator(
            StateVectorSimulationState(QUBITS),
            my_apply,
            born.compute_probability_state_vector,
            seed=3,
            trajectory_mode="serial",
        )
        batched = bgls.Simulator(
            StateVectorSimulationState(QUBITS),
            my_apply,
            born.compute_probability_state_vector,
            seed=3,
            trajectory_mode="batched",
        )
        assert_records_equal(
            run_bits(serial, noisy_circuit()),
            run_bits(batched, noisy_circuit()),
        )

    def test_user_candidate_function_falls_back_to_serial(self):
        def candidates(state, bits, support):
            return state.candidate_probabilities_many([bits], support)[0]

        serial = bgls.Simulator(
            StateVectorSimulationState(QUBITS),
            bgls.act_on,
            born.compute_probability_state_vector,
            compute_candidate_probabilities=candidates,
            seed=3,
            trajectory_mode="serial",
        )
        batched = bgls.Simulator(
            StateVectorSimulationState(QUBITS),
            bgls.act_on,
            born.compute_probability_state_vector,
            compute_candidate_probabilities=candidates,
            seed=3,
            trajectory_mode="batched",
        )
        assert_records_equal(
            run_bits(serial, noisy_circuit()),
            run_bits(batched, noisy_circuit()),
        )

    def test_unsupported_backend_falls_back_to_serial(self):
        serial = make_sim(
            lambda: DensityMatrixSimulationState(QUBITS),
            born.compute_probability_density_matrix,
            seed=3,
            mode="serial",
        )
        batched = make_sim(
            lambda: DensityMatrixSimulationState(QUBITS),
            born.compute_probability_density_matrix,
            seed=3,
            mode="batched",
        )
        assert_records_equal(
            run_bits(serial, noisy_circuit()),
            run_bits(batched, noisy_circuit()),
        )


class TestDeterminism:
    @pytest.mark.parametrize("make_state,prob_fn", BATCHED_BACKENDS)
    def test_self_replay(self, make_state, prob_fn):
        circuit = (
            noisy_circuit()
            if make_state().__class__ is StateVectorSimulationState
            else clifford_mid_measure_circuit()
        )
        a = run_bits(make_sim(make_state, prob_fn, seed=11), circuit)
        b = run_bits(make_sim(make_state, prob_fn, seed=11), circuit)
        assert_records_equal(a, b)

    @pytest.mark.parametrize("make_state,prob_fn", BATCHED_BACKENDS)
    def test_tile_size_invariance(self, make_state, prob_fn, monkeypatch):
        circuit = (
            noisy_circuit()
            if make_state().__class__ is StateVectorSimulationState
            else clifford_mid_measure_circuit()
        )
        ref = run_bits(make_sim(make_state, prob_fn, seed=11), circuit)
        for tile in (1, 3, 7, 64):
            with monkeypatch.context() as patch:
                force_tile(patch, tile)
                got = run_bits(make_sim(make_state, prob_fn, seed=11), circuit)
            assert_records_equal(ref, got)

    def test_cross_backend_determinism(self):
        """Same uniforms x same Born probabilities: every advertising
        backend produces identical batched samples for one circuit."""
        circuit = clifford_mid_measure_circuit()
        sv = run_bits(
            make_sim(
                lambda: StateVectorSimulationState(QUBITS),
                born.compute_probability_state_vector,
                seed=23,
            ),
            circuit,
        )
        ch = run_bits(
            make_sim(
                lambda: StabilizerChFormSimulationState(QUBITS),
                born.compute_probability_stabilizer_state,
                seed=23,
            ),
            circuit,
        )
        tab = run_bits(
            make_sim(
                lambda: CliffordTableauSimulationState(QUBITS),
                born.compute_probability_tableau,
                seed=23,
            ),
            circuit,
        )
        assert_records_equal(sv, ch)
        assert_records_equal(sv, tab)

    def test_measurement_only_plans_bypass_the_engine(self):
        """Pure-unitary circuits never enter trajectory mode, so batched
        and serial modes agree bit-for-bit there."""
        circuit = cirq.Circuit(
            cirq.H(QUBITS[0]),
            cirq.CNOT(QUBITS[0], QUBITS[1]),
            cirq.measure(*QUBITS, key="m"),
        )
        serial = run_bits(
            make_sim(
                lambda: StateVectorSimulationState(QUBITS),
                born.compute_probability_state_vector,
                seed=9,
                mode="serial",
            ),
            circuit,
        )
        batched = run_bits(
            make_sim(
                lambda: StateVectorSimulationState(QUBITS),
                born.compute_probability_state_vector,
                seed=9,
                mode="batched",
            ),
            circuit,
        )
        assert_records_equal(serial, batched)

    def test_mid_circuit_record_consistency(self):
        """Final-measurement records must equal the tracked bitstring
        columns, and the mid-circuit plane must hold 0/1 entries only."""
        sim = make_sim(
            lambda: StateVectorSimulationState(QUBITS),
            born.compute_probability_state_vector,
            seed=13,
        )
        result = sim.run(noisy_circuit(), repetitions=200)
        mid = result.measurements["mid"]
        fin = result.measurements["m"]
        assert mid.shape == (200, 1)
        assert fin.shape == (200, N)
        assert set(np.unique(mid)) <= {0, 1}
        assert set(np.unique(fin)) <= {0, 1}


class TestSharedRows:
    """The tile holds one row per distinct trajectory state."""

    def test_rows_follow_distinct_branch_histories(self, monkeypatch):
        bell = cirq.LineQubit.range(2)
        circuit = cirq.Circuit(
            cirq.H(bell[0]),
            cirq.CNOT(bell[0], bell[1]),
            [cirq.depolarize(0.01)(q) for q in bell],
            cirq.measure(*bell, key="m"),
        )
        events = []  # ("apply", rows) | ("kraus", rows after) | ("project",)
        branches = []  # one (B,) branch-choice column per Kraus record
        inside_kraus = []
        adapter = trajectory_batch.BatchedStateVector
        apply_rows = trajectory_batch.apply_rows
        categorical_rows = trajectory_batch.categorical_rows
        apply_kraus = adapter.apply_kraus
        project = adapter.project

        def counting_apply(tile, *args, **kwargs):
            if not inside_kraus:
                events.append(("apply", len(tile)))
            return apply_rows(tile, *args, **kwargs)

        def recording_choice(probs, u):
            choice = categorical_rows(probs, u)
            if inside_kraus:
                branches.append(choice.copy())
            return choice

        def recording_kraus(self, *args):
            inside_kraus.append(True)
            try:
                return apply_kraus(self, *args)
            finally:
                inside_kraus.pop()
                events.append(("kraus", len(self.tensor)))

        def recording_project(self, *args):
            events.append(("project",))
            return project(self, *args)

        monkeypatch.setattr(trajectory_batch, "apply_rows", counting_apply)
        monkeypatch.setattr(trajectory_batch, "categorical_rows", recording_choice)
        monkeypatch.setattr(adapter, "apply_kraus", recording_kraus)
        monkeypatch.setattr(adapter, "project", recording_project)

        sim = bgls.Simulator(
            StateVectorSimulationState(bell),
            bgls.act_on,
            born.compute_probability_state_vector,
            seed=3,
            trajectory_mode="batched",
        )
        sim.run(circuit, repetitions=64)

        first_kraus = [e[0] for e in events].index("kraus")
        prefix = events[:first_kraus]
        assert prefix and all(e == ("apply", 1) for e in prefix)
        assert len(branches) == 2
        histories = set(zip(*(column.tolist() for column in branches)))
        rows_after_noise = events[-1]
        assert rows_after_noise[0] == "kraus"
        assert 1 <= rows_after_noise[1] <= len(histories) < 64
        assert ("project",) not in events

    def test_tableau_candidates_match_each_trajectorys_view(self):
        # Two Bell pairs, projected on one qubit of each: 8 trajectories
        # regroup onto 4 rows, two trajectories per row.
        qubits = cirq.LineQubit.range(4)
        state = CliffordTableauSimulationState(qubits)
        for op in (
            cirq.H(qubits[0]),
            cirq.CNOT(qubits[0], qubits[1]),
            cirq.H(qubits[2]),
            cirq.CNOT(qubits[2], qubits[3]),
            cirq.H(qubits[3]),
        ):
            bgls.act_on(op, state)
        tile = trajectory_batch.BatchedTableaus.from_state(state, 8)
        outcomes = np.array([[0, 0], [1, 1], [0, 1], [1, 0]] * 2)
        tile.project([0, 2], outcomes)
        assert tile.stack.batch == 4
        assert np.bincount(tile.owner).tolist() == [2, 2, 2, 2]

        # Trajectories b and b + 4 share a row but differ off the support:
        # qubit 1 agrees with qubit 0 (nonzero answers) only for b < 4.
        bits = np.zeros((8, 4), dtype=np.uint8)
        bits[:, [0, 2]] = outcomes
        bits[:, 1] = outcomes[:, 0] ^ (np.arange(8) >= 4)
        support = [3]
        got = tile.candidate_probabilities(bits, support)
        for b in range(8):
            view = tile.stack.view(tile.owner[b])
            np.testing.assert_array_equal(
                got[b], view.candidate_probabilities_many(bits[b : b + 1], support)[0]
            )
        assert (got > 0).any() and (got == 0).any()


class TestStatisticalAgreement:
    REPS = 4000

    @pytest.mark.parametrize("make_state,prob_fn", BATCHED_BACKENDS)
    def test_batched_matches_serial_distribution(self, make_state, prob_fn):
        circuit = (
            noisy_circuit()
            if make_state().__class__ is StateVectorSimulationState
            else clifford_mid_measure_circuit()
        )
        serial = make_sim(make_state, prob_fn, seed=1, mode="serial")
        batched = make_sim(make_state, prob_fn, seed=2, mode="batched")
        p = empirical_distribution(
            serial.run(circuit, repetitions=self.REPS).measurements["m"], N
        )
        q = empirical_distribution(
            batched.run(circuit, repetitions=self.REPS).measurements["m"], N
        )
        assert total_variation_distance(p, q) < 0.06

    def test_batched_matches_exact_noiseless_distribution(self):
        """A mid-circuit-measurement Clifford circuit still produces the
        right marginal statistics through the batched engine."""
        circuit = clifford_mid_measure_circuit()
        sim = make_sim(
            lambda: StateVectorSimulationState(QUBITS),
            born.compute_probability_state_vector,
            seed=4,
        )
        bits = sim.run(circuit, repetitions=self.REPS).measurements["m"]
        # Bell pair on qubits 0,1: mid-circuit measurement of qubit 0
        # collapses both, so they stay perfectly correlated.
        assert np.array_equal(bits[:, 0], bits[:, 1])


@pytest.mark.parametrize("start_method", START_METHODS)
class TestPooledParity:
    """Batched output is invariant under executor geometry and equals the
    serial sweep — the pooled half of the determinism contract."""

    PARAMS = [{"t": 0.2}, {"t": 0.9}]
    REPS = 120

    def _sweep_circuit(self):
        theta = cirq.Symbol("t")
        return cirq.Circuit(
            [cirq.H(q) for q in QUBITS],
            cirq.rx(theta)(QUBITS[0]),
            [cirq.depolarize(0.03)(q) for q in QUBITS],
            cirq.CNOT(QUBITS[0], QUBITS[1]),
            cirq.measure(*QUBITS, key="z"),
        )

    def _sweep_bits(self, executor):
        sim = make_sim(
            lambda: StateVectorSimulationState(QUBITS),
            born.compute_probability_state_vector,
            seed=5,
            executor=executor,
        )
        return [
            r.measurements["z"]
            for r in sim.run_sweep(
                self._sweep_circuit(), self.PARAMS, repetitions=self.REPS
            )
        ]

    def test_worker_count_invariance(self, start_method):
        serial = self._sweep_bits(None)
        for workers in (1, 2):
            with PoolManager() as manager:
                pooled = self._sweep_bits(
                    ProcessPoolExecutor(
                        num_workers=workers,
                        start_method=start_method,
                        pool_manager=manager,
                    )
                )
            for a, b in zip(serial, pooled):
                np.testing.assert_array_equal(a, b)

    def test_chunk_geometry_invariance(self, start_method):
        circuit = noisy_circuit()

        def chunked(executor):
            sim = make_sim(
                lambda: StateVectorSimulationState(QUBITS),
                born.compute_probability_state_vector,
                seed=11,
                executor=executor,
            )
            return run_bits(sim, circuit, reps=self.REPS)

        two = chunked(SerialExecutor(chunks=2))
        four = chunked(SerialExecutor(chunks=4))
        assert_records_equal(two, four)
        with PoolManager() as manager:
            pooled = chunked(
                ProcessPoolExecutor(
                    num_workers=2,
                    start_method=start_method,
                    pool_manager=manager,
                )
            )
        assert_records_equal(two, pooled)

    def test_adaptive_split_points_match_serial(self, start_method):
        serial = self._sweep_bits(None)
        with PoolManager() as manager:
            pooled = self._sweep_bits(
                ProcessPoolExecutor(
                    num_workers=2,
                    start_method=start_method,
                    pool_manager=manager,
                    scheduler="adaptive",
                )
            )
        for a, b in zip(serial, pooled):
            np.testing.assert_array_equal(a, b)
