"""Warm-pool execution service: determinism + lifecycle test suite.

The contracts pinned here (the PR's acceptance criteria):

* **Point-scope parity** — pooled ``run_sweep(scope="points")`` output is
  bit-for-bit identical to a serial, executor-free ``run_sweep`` for the
  same seed, on all five shipped backends.
* **Warm reuse** — consecutive ``run_sweep`` calls over one compiled
  Program reuse the pool with **zero** worker re-initializations
  (``PoolManager.stats["inits"]`` stays 1), and re-initialize exactly
  when the execution key changes (new program, new initial-state
  payload, changed geometry).
* **Warm/cold equality** — ``reuse_pool=True`` and ``reuse_pool=False``
  produce identical samples; reuse changes only where startup is paid.
* **Clean shutdown** — context-manager and ``atexit`` paths join every
  worker; no leaked processes, and a failed task never leaves a
  poisoned pool behind.

The pooled start method comes from ``BGLS_POOL_START_METHODS``
(comma-separated; default ``fork``) so CI can run the whole suite under
``forkserver`` and ``spawn`` without duplicating tests.
"""

import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.mps import MPSState
from repro.sampler import PoolManager, ProcessPoolExecutor, SerialExecutor
from repro.sampler.service import execution_key
from repro.states import (
    CliffordTableauSimulationState,
    DensityMatrixSimulationState,
    StabilizerChFormSimulationState,
    StateVectorSimulationState,
)


def pool_start_methods():
    env = os.environ.get("BGLS_POOL_START_METHODS", "fork")
    requested = [m.strip() for m in env.split(",") if m.strip()]
    available = multiprocessing.get_all_start_methods()
    methods = [m for m in requested if m in available]
    return methods or [available[0]]


START_METHODS = pool_start_methods()

N = 3
QUBITS = cirq.LineQubit.range(N)
THETA = cirq.Symbol("theta")


def parameterized_circuit():
    return cirq.Circuit(
        cirq.H(QUBITS[0]),
        cirq.CNOT(QUBITS[0], QUBITS[1]),
        cirq.Rx(THETA).on(QUBITS[2]),
        cirq.measure(*QUBITS, key="m"),
    )


def clifford_circuit():
    return cirq.Circuit(
        cirq.H(QUBITS[0]),
        cirq.CNOT(QUBITS[0], QUBITS[1]),
        cirq.CNOT(QUBITS[1], QUBITS[2]),
        cirq.S(QUBITS[2]),
        cirq.measure(*QUBITS, key="m"),
    )


PARAM_POINTS = [{"theta": 0.3 * i} for i in range(5)]
CLIFFORD_POINTS = [None] * 5

# (state factory, probability fn, circuit factory, sweep resolvers): the
# stabilizer backends sweep seed streams over a Clifford circuit (no
# parameterized non-Clifford gates), the others a real parameter sweep.
BACKENDS = [
    pytest.param(
        lambda: StateVectorSimulationState(QUBITS),
        born.compute_probability_state_vector,
        parameterized_circuit,
        PARAM_POINTS,
        id="state_vector",
    ),
    pytest.param(
        lambda: DensityMatrixSimulationState(QUBITS),
        born.compute_probability_density_matrix,
        parameterized_circuit,
        PARAM_POINTS,
        id="density_matrix",
    ),
    pytest.param(
        lambda: StabilizerChFormSimulationState(QUBITS),
        born.compute_probability_stabilizer_state,
        clifford_circuit,
        CLIFFORD_POINTS,
        id="stabilizer_ch_form",
    ),
    pytest.param(
        lambda: CliffordTableauSimulationState(QUBITS),
        born.compute_probability_tableau,
        clifford_circuit,
        CLIFFORD_POINTS,
        id="clifford_tableau",
    ),
    pytest.param(
        lambda: MPSState(QUBITS),
        born.compute_probability_mps,
        parameterized_circuit,
        PARAM_POINTS,
        id="mps",
    ),
]


def make_sim(make_state, prob_fn, seed, executor=None):
    return bgls.Simulator(
        make_state(), bgls.act_on, prob_fn, seed=seed, executor=executor
    )


def sv_sim(seed, executor=None):
    return make_sim(
        lambda: StateVectorSimulationState(QUBITS),
        born.compute_probability_state_vector,
        seed,
        executor,
    )


def assert_sweeps_equal(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert set(ra.measurements) == set(rb.measurements)
        for key in ra.measurements:
            np.testing.assert_array_equal(
                ra.measurements[key], rb.measurements[key]
            )


@pytest.fixture
def manager():
    mgr = PoolManager()
    yield mgr
    mgr.shutdown()


class TestPointScopeParity:
    """Pooled point scope == serial run_sweep, bit for bit, all backends."""

    @pytest.mark.parametrize("start_method", START_METHODS)
    @pytest.mark.parametrize(
        "make_state, prob_fn, make_circuit, points", BACKENDS
    )
    def test_pooled_points_match_serial(
        self, manager, make_state, prob_fn, make_circuit, points, start_method
    ):
        circuit = make_circuit()
        serial = make_sim(make_state, prob_fn, seed=42).run_sweep(
            circuit, points, repetitions=18
        )
        pooled_sim = make_sim(
            make_state,
            prob_fn,
            seed=42,
            executor=ProcessPoolExecutor(
                num_workers=2, start_method=start_method, pool_manager=manager
            ),
        )
        pooled = pooled_sim.run_sweep(
            circuit, points, repetitions=18, scope="points"
        )
        assert_sweeps_equal(serial, pooled)
        assert manager.stats["inits"] == 1

    def test_bitstring_sweep_matches_serial(self, manager):
        circuit = parameterized_circuit()
        serial = sv_sim(7).sample_bitstrings_sweep(
            circuit, PARAM_POINTS, repetitions=23
        )
        pooled = sv_sim(
            7,
            executor=ProcessPoolExecutor(
                num_workers=2, start_method=START_METHODS[0], pool_manager=manager
            ),
        ).sample_bitstrings_sweep(
            circuit, PARAM_POINTS, repetitions=23, scope="points"
        )
        for a, b in zip(serial, pooled):
            np.testing.assert_array_equal(a, b)

    def test_trajectory_circuit_parity(self, manager):
        """Channel circuits (trajectory mode inside workers) also match."""
        from repro.circuits import channels

        circuit = cirq.Circuit(
            cirq.H(QUBITS[0]),
            channels.depolarize(0.1).on(QUBITS[0]),
            cirq.CNOT(QUBITS[0], QUBITS[1]),
            cirq.measure(*QUBITS, key="m"),
        )
        points = [None] * 4
        serial = sv_sim(11).run_sweep(circuit, points, repetitions=12)
        pooled = sv_sim(
            11,
            executor=ProcessPoolExecutor(
                num_workers=2, start_method=START_METHODS[0], pool_manager=manager
            ),
        ).run_sweep(circuit, points, repetitions=12, scope="points")
        assert_sweeps_equal(serial, pooled)

    def test_points_scope_without_executor_is_serial(self):
        """Explicit point scope with no executor degrades to the serial loop."""
        circuit = parameterized_circuit()
        a = sv_sim(5).run_sweep(circuit, PARAM_POINTS, repetitions=14)
        b = sv_sim(5).run_sweep(
            circuit, PARAM_POINTS, repetitions=14, scope="points"
        )
        assert_sweeps_equal(a, b)

    def test_auto_scope_equals_points_for_pooled_executor(self, manager):
        circuit = parameterized_circuit()
        executor = ProcessPoolExecutor(
            num_workers=2, start_method=START_METHODS[0], pool_manager=manager
        )
        sim = sv_sim(9, executor=executor)
        auto = sim.run_sweep(circuit, PARAM_POINTS, repetitions=10)
        explicit = sim.run_sweep(
            circuit, PARAM_POINTS, repetitions=10, scope="points"
        )
        assert_sweeps_equal(auto, explicit)

    def test_repetition_scope_keeps_chunk_geometry(self, manager):
        """scope="repetitions" chunks each point like SerialExecutor(chunks)."""
        circuit = parameterized_circuit()
        pooled = sv_sim(
            13,
            executor=ProcessPoolExecutor(
                num_workers=2,
                chunks_per_worker=2,
                start_method=START_METHODS[0],
                pool_manager=manager,
            ),
        ).run_sweep(
            circuit, PARAM_POINTS[:3], repetitions=16, scope="repetitions"
        )
        chunked = sv_sim(13, executor=SerialExecutor(chunks=4)).run_sweep(
            circuit, PARAM_POINTS[:3], repetitions=16, scope="repetitions"
        )
        assert_sweeps_equal(pooled, chunked)

    def test_single_worker_fallback_keeps_point_scope_streams(self):
        """Regression: point-scope output must not depend on worker count.

        The in-process fallback (num_workers=1) must use the same
        one-stream-per-point recipe as the pooled fan-out, not the
        chunked execute() geometry.
        """
        circuit = parameterized_circuit()
        serial = sv_sim(11).run_sweep(circuit, PARAM_POINTS, repetitions=15)
        one_worker = sv_sim(
            11, executor=ProcessPoolExecutor(num_workers=1)
        ).run_sweep(circuit, PARAM_POINTS, repetitions=15, scope="points")
        assert_sweeps_equal(serial, one_worker)

    def test_single_point_sweep_matches_serial(self, manager):
        """Regression: a 1-point sweep must not depend on sweep length."""
        circuit = parameterized_circuit()
        serial = sv_sim(11).run_sweep(circuit, PARAM_POINTS[:1], repetitions=15)
        pooled = sv_sim(
            11,
            executor=ProcessPoolExecutor(
                num_workers=4, start_method=START_METHODS[0], pool_manager=manager
            ),
        ).run_sweep(circuit, PARAM_POINTS[:1], repetitions=15, scope="points")
        assert_sweeps_equal(serial, pooled)

    def test_invalid_scope_raises(self):
        with pytest.raises(ValueError, match="scope"):
            sv_sim(1).run_sweep(
                parameterized_circuit(), PARAM_POINTS, repetitions=2, scope="bogus"
            )


class TestWarmReuse:
    """The init counter: reuse on equal keys, re-init exactly on change."""

    def test_zero_reinitializations_across_consecutive_sweeps(self, manager):
        """Acceptance criterion: >= 2 run_sweep calls, one worker init."""
        circuit = parameterized_circuit()
        sim = sv_sim(
            21,
            executor=ProcessPoolExecutor(
                num_workers=2, start_method=START_METHODS[0], pool_manager=manager
            ),
        )
        first = sim.run_sweep(circuit, PARAM_POINTS, repetitions=10, scope="points")
        second = sim.run_sweep(circuit, PARAM_POINTS, repetitions=10, scope="points")
        third = sim.run_sweep(circuit, PARAM_POINTS, repetitions=10, scope="points")
        assert manager.stats["inits"] == 1
        assert manager.stats["reuses"] == 2
        assert manager.stats["key_changes"] == 0
        assert_sweeps_equal(first, second)
        assert_sweeps_equal(first, third)

    def test_program_change_reinitializes(self, manager):
        executor = ProcessPoolExecutor(
            num_workers=2, start_method=START_METHODS[0], pool_manager=manager
        )
        sim = sv_sim(3, executor=executor)
        sim.run_sweep(parameterized_circuit(), PARAM_POINTS, repetitions=8, scope="points")
        other = cirq.Circuit(
            cirq.X(QUBITS[0]),
            cirq.Rx(THETA).on(QUBITS[1]),
            cirq.measure(*QUBITS, key="m"),
        )
        sim.run_sweep(other, PARAM_POINTS, repetitions=8, scope="points")
        assert manager.stats["inits"] == 2
        assert manager.stats["key_changes"] == 1

    def test_initial_state_payload_change_reinitializes(self, manager):
        """Snapshot backends key on payload content: |0..0> vs |+0..0>."""
        circuit = clifford_circuit()

        def tableau_sim(pre_hadamard):
            state = CliffordTableauSimulationState(QUBITS)
            if pre_hadamard:
                bgls.act_on(cirq.H.on(QUBITS[0]), state)
            return bgls.Simulator(
                state,
                bgls.act_on,
                born.compute_probability_tableau,
                seed=5,
                executor=ProcessPoolExecutor(
                    num_workers=2,
                    start_method=START_METHODS[0],
                    pool_manager=manager,
                ),
            )

        tableau_sim(False).run_sweep(circuit, CLIFFORD_POINTS, repetitions=6, scope="points")
        tableau_sim(True).run_sweep(circuit, CLIFFORD_POINTS, repetitions=6, scope="points")
        assert manager.stats["inits"] == 2
        assert manager.stats["key_changes"] == 1

    def test_equal_snapshot_payload_reuses_across_simulators(self, manager):
        """Two distinct-but-equal packed states share one warm pool."""
        circuit = clifford_circuit()
        for _ in range(2):
            sim = bgls.Simulator(
                CliffordTableauSimulationState(QUBITS),
                bgls.act_on,
                born.compute_probability_tableau,
                seed=5,
                executor=ProcessPoolExecutor(
                    num_workers=2,
                    start_method=START_METHODS[0],
                    pool_manager=manager,
                ),
            )
            sim.run_sweep(circuit, CLIFFORD_POINTS, repetitions=6, scope="points")
        assert manager.stats["inits"] == 1
        assert manager.stats["reuses"] == 1

    def test_execute_path_reuses_pool_via_memoized_plan(self, manager):
        """Repetition-scope run() calls share the pool too: the memoized
        specialize cache hands the manager the same plan object."""
        circuit = clifford_circuit()
        sim = bgls.Simulator(
            StabilizerChFormSimulationState(QUBITS),
            bgls.act_on,
            born.compute_probability_stabilizer_state,
            seed=17,
            executor=ProcessPoolExecutor(
                num_workers=2, start_method=START_METHODS[0], pool_manager=manager
            ),
        )
        a = sim.sample_bitstrings(circuit, repetitions=24)
        b = sim.sample_bitstrings(circuit, repetitions=24)
        assert manager.stats["inits"] == 1
        assert manager.stats["reuses"] == 1
        np.testing.assert_array_equal(a, b)

    def test_key_includes_simulator_config(self, manager):
        """fuse_moments toggling re-initializes (different shipped config)."""
        circuit = parameterized_circuit()
        for fuse in (True, False):
            sim = bgls.Simulator(
                StateVectorSimulationState(QUBITS),
                bgls.act_on,
                born.compute_probability_state_vector,
                seed=2,
                fuse_moments=fuse,
                executor=ProcessPoolExecutor(
                    num_workers=2,
                    start_method=START_METHODS[0],
                    pool_manager=manager,
                ),
            )
            sim.run_sweep(circuit, PARAM_POINTS, repetitions=6, scope="points")
        assert manager.stats["inits"] == 2


def distinct_clifford_circuits(count):
    """``count`` structurally distinct Clifford circuits on QUBITS."""
    circuits = []
    for extra in range(count):
        circuit = cirq.Circuit(
            cirq.H(QUBITS[0]), cirq.CNOT(QUBITS[0], QUBITS[1])
        )
        for _ in range(extra):
            circuit.append(cirq.CNOT(QUBITS[1], QUBITS[2]))
            circuit.append(cirq.S(QUBITS[2]))
        circuit.append(cirq.measure(*QUBITS, key="m"))
        circuits.append(circuit)
    return circuits


class TestHeterogeneousBatch:
    """run_batch as one schedulable unit: one program table, one init."""

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_eight_circuit_batch_single_init_and_serial_parity(
        self, manager, start_method
    ):
        """Acceptance criterion: N distinct circuits, exactly 1 pool init,
        bit-for-bit equal to the per-circuit serial runs."""
        circuits = distinct_clifford_circuits(8)
        serial = sv_sim(19).run_batch(circuits, repetitions=14)
        pooled = sv_sim(
            19,
            executor=ProcessPoolExecutor(
                num_workers=2, start_method=start_method, pool_manager=manager
            ),
        ).run_batch(circuits, repetitions=14)
        assert manager.stats["inits"] == 1
        assert_sweeps_equal(serial, pooled)

    def test_repetition_scope_reinitializes_per_circuit(self, manager):
        """The pre-multi-program cost model for contrast: each circuit is
        its own execution key, so N circuits pay N pool inits."""
        circuits = distinct_clifford_circuits(4)
        sim = sv_sim(
            19,
            executor=ProcessPoolExecutor(
                num_workers=2, start_method=START_METHODS[0], pool_manager=manager
            ),
        )
        sim.run_batch(circuits, repetitions=16, scope="repetitions")
        assert manager.stats["inits"] == len(circuits)

    def test_repeated_batch_reuses_pool(self, manager):
        """The Program cache hands the manager the same table objects, so
        an identical batch re-submits to the warm workers."""
        circuits = distinct_clifford_circuits(5)
        sim = sv_sim(
            23,
            executor=ProcessPoolExecutor(
                num_workers=2, start_method=START_METHODS[0], pool_manager=manager
            ),
        )
        first = sim.run_batch(circuits, repetitions=10)
        second = sim.run_batch(circuits, repetitions=10)
        assert manager.stats["inits"] == 1
        assert manager.stats["reuses"] == 1
        assert_sweeps_equal(first, second)

    def test_program_table_content_change_reinitializes(self, manager):
        """Any change to the batch's program table is a new execution key."""
        sim = sv_sim(
            29,
            executor=ProcessPoolExecutor(
                num_workers=2, start_method=START_METHODS[0], pool_manager=manager
            ),
        )
        sim.run_batch(distinct_clifford_circuits(4), repetitions=8)
        sim.run_batch(distinct_clifford_circuits(5), repetitions=8)
        assert manager.stats["inits"] == 2
        assert manager.stats["key_changes"] == 1

    def test_batch_key_covers_table_order_and_content(self):
        """execution_key keys the whole unit table, in order."""
        sim = sv_sim(0)
        programs = [
            sim.compile(circuit) for circuit in distinct_clifford_circuits(3)
        ]
        key_all = execution_key(sim, tuple(programs))
        assert key_all == execution_key(sim, tuple(programs))
        assert key_all != execution_key(sim, tuple(programs[:2]))
        assert key_all != execution_key(sim, tuple(reversed(programs)))

    def test_batch_with_repeated_circuits_matches_serial(self, manager):
        """Duplicate circuits dedupe to one table entry (same Program
        object) and still reproduce the serial per-index seed streams."""
        circuits = distinct_clifford_circuits(3)
        batch = [circuits[0], circuits[1], circuits[0], circuits[2], circuits[0]]
        serial = sv_sim(31).run_batch(batch, repetitions=12)
        pooled = sv_sim(
            31,
            executor=ProcessPoolExecutor(
                num_workers=2, start_method=START_METHODS[0], pool_manager=manager
            ),
        ).run_batch(batch, repetitions=12)
        assert manager.stats["inits"] == 1
        assert_sweeps_equal(serial, pooled)

    def test_batch_with_resolvers_matches_serial(self, manager):
        theta = cirq.Symbol("theta")
        circuits = [parameterized_circuit() for _ in range(3)]
        circuits.append(
            cirq.Circuit(
                cirq.H(QUBITS[1]),
                cirq.Rx(theta).on(QUBITS[0]),
                cirq.measure(*QUBITS, key="m"),
            )
        )
        params = [{"theta": 0.2 * i} for i in range(4)]
        serial = sv_sim(37).run_batch(circuits, params=params, repetitions=9)
        pooled = sv_sim(
            37,
            executor=ProcessPoolExecutor(
                num_workers=2, start_method=START_METHODS[0], pool_manager=manager
            ),
        ).run_batch(circuits, params=params, repetitions=9)
        assert manager.stats["inits"] == 1
        assert_sweeps_equal(serial, pooled)

    @pytest.mark.parametrize(
        "make_state, prob_fn, make_circuit, points", BACKENDS
    )
    def test_batch_parity_on_all_backends(
        self, manager, make_state, prob_fn, make_circuit, points
    ):
        circuits = [make_circuit() for _ in range(3)]
        params = [p for p in points[:3]]
        serial = make_sim(make_state, prob_fn, seed=41).run_batch(
            circuits, params=params, repetitions=10
        )
        pooled = make_sim(
            make_state,
            prob_fn,
            seed=41,
            executor=ProcessPoolExecutor(
                num_workers=2, start_method=START_METHODS[0], pool_manager=manager
            ),
        ).run_batch(circuits, params=params, repetitions=10)
        assert_sweeps_equal(serial, pooled)

    def test_invalid_scope_raises(self):
        with pytest.raises(ValueError, match="scope"):
            sv_sim(1).run_batch(
                distinct_clifford_circuits(2), repetitions=2, scope="bogus"
            )

    def test_points_scope_without_point_executor_is_serial(self):
        """Regression: explicit point scope must keep the one-stream-per-
        point serial contract even when the executor cannot fan points —
        never the executor's own repetition-chunk geometry."""
        circuits = distinct_clifford_circuits(3)
        serial = sv_sim(43).run_batch(circuits, repetitions=16)
        chunked = sv_sim(43, executor=SerialExecutor(chunks=4)).run_batch(
            circuits, repetitions=16, scope="points"
        )
        assert_sweeps_equal(serial, chunked)


class TestWarmColdEquality:
    def test_warm_and_cold_pools_sample_identically(self, manager):
        circuit = parameterized_circuit()
        warm = sv_sim(
            31,
            executor=ProcessPoolExecutor(
                num_workers=2, start_method=START_METHODS[0], pool_manager=manager
            ),
        ).run_sweep(circuit, PARAM_POINTS, repetitions=12, scope="points")
        cold = sv_sim(
            31,
            executor=ProcessPoolExecutor(
                num_workers=2,
                start_method=START_METHODS[0],
                reuse_pool=False,
            ),
        ).run_sweep(circuit, PARAM_POINTS, repetitions=12, scope="points")
        assert_sweeps_equal(warm, cold)

    def test_warm_and_cold_execute_identically(self, manager):
        circuit = clifford_circuit()

        def run(executor):
            return bgls.Simulator(
                CliffordTableauSimulationState(QUBITS),
                bgls.act_on,
                born.compute_probability_tableau,
                seed=8,
                executor=executor,
            ).sample_bitstrings(circuit, repetitions=32)

        warm = run(
            ProcessPoolExecutor(
                num_workers=2, start_method=START_METHODS[0], pool_manager=manager
            )
        )
        cold = run(
            ProcessPoolExecutor(
                num_workers=2, start_method=START_METHODS[0], reuse_pool=False
            )
        )
        np.testing.assert_array_equal(warm, cold)


class TestLifecycle:
    def test_context_manager_joins_all_workers(self):
        circuit = parameterized_circuit()
        with PoolManager() as mgr:
            sim = sv_sim(
                1,
                executor=ProcessPoolExecutor(
                    num_workers=2, start_method=START_METHODS[0], pool_manager=mgr
                ),
            )
            sim.run_sweep(circuit, PARAM_POINTS, repetitions=6, scope="points")
            pids = mgr.worker_pids()
            assert pids
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_shutdown_is_idempotent_and_manager_reusable(self, manager):
        circuit = parameterized_circuit()
        executor = ProcessPoolExecutor(
            num_workers=2, start_method=START_METHODS[0], pool_manager=manager
        )
        sim = sv_sim(4, executor=executor)
        sim.run_sweep(circuit, PARAM_POINTS, repetitions=6, scope="points")
        manager.shutdown()
        manager.shutdown()  # no-op
        assert manager.stats["inits"] == 1
        # A new call after shutdown simply builds a fresh pool.
        sim.run_sweep(circuit, PARAM_POINTS, repetitions=6, scope="points")
        assert manager.stats["inits"] == 2

    def test_failed_task_resets_pool(self, manager):
        """A worker-side error surfaces and never leaves a poisoned pool."""
        circuit = parameterized_circuit()
        sim = sv_sim(
            6,
            executor=ProcessPoolExecutor(
                num_workers=2, start_method=START_METHODS[0], pool_manager=manager
            ),
        )
        # Unresolvable sweep: the worker-side specialize raises.
        with pytest.raises(Exception):
            sim.run_sweep(
                circuit, [{"theta": 0.1}, {"wrong": 1.0}], repetitions=4, scope="points"
            )
        assert manager._pool is None  # fail-safe shutdown happened
        # The manager recovers with a fresh pool on the next call.
        good = sim.run_sweep(circuit, PARAM_POINTS, repetitions=6, scope="points")
        serial = sv_sim(6).run_sweep(circuit, PARAM_POINTS, repetitions=6)
        assert_sweeps_equal(good, serial)

    def test_atexit_path_shuts_shared_pool_down(self, tmp_path):
        """A process that never calls shutdown still exits cleanly with no
        surviving workers (the shared manager's atexit hook joins them)."""
        script = tmp_path / "warm_pool_atexit.py"
        script.write_text(
            "import repro as bgls\n"
            "from repro import born\n"
            "from repro import circuits as cirq\n"
            "from repro.sampler import ProcessPoolExecutor\n"
            "from repro.sampler import service\n"
            "from repro.states import StateVectorSimulationState\n"
            "\n"
            "def main():\n"
            "    qs = cirq.LineQubit.range(2)\n"
            "    circ = cirq.Circuit(cirq.H(qs[0]), cirq.CNOT(qs[0], qs[1]),\n"
            "                        cirq.measure(*qs, key='z'))\n"
            "    sim = bgls.Simulator(StateVectorSimulationState(qs), bgls.act_on,\n"
            "                         born.compute_probability_state_vector, seed=1,\n"
            "                         executor=ProcessPoolExecutor(num_workers=2,\n"
            f"                         start_method={START_METHODS[0]!r}))\n"
            "    sim.run_sweep(circ, [None] * 3, repetitions=8, scope='points')\n"
            "    print('PIDS', *service.shared_pool_manager().worker_pids())\n"
            "\n"
            "if __name__ == '__main__':\n"
            "    main()\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        pids = [int(p) for p in proc.stdout.split("PIDS", 1)[1].split()]
        assert pids
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_worker_pids_survive_shutdown_for_audits(self, manager):
        circuit = parameterized_circuit()
        sim = sv_sim(
            2,
            executor=ProcessPoolExecutor(
                num_workers=2, start_method=START_METHODS[0], pool_manager=manager
            ),
        )
        sim.run_sweep(circuit, PARAM_POINTS, repetitions=4, scope="points")
        live = manager.worker_pids()
        manager.shutdown()
        assert manager.worker_pids() == live
