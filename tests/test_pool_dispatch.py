"""The one pooled dispatch loop: abandonment, worker death, shared pools.

Every pooled call drains a deterministic task list through the pool's
shared queue.  Three behaviours of that loop are pinned here for every
scheduling mode and both result transports:

* **Abandonment** — closing a half-consumed stream only closes its run:
  workers skip the leftovers, the warm pool stays (no re-init), and the
  next run on it is bit-for-bit identical.
* **Worker death** — a worker that exits mid-task, or that the parent
  SIGKILLs while it runs a stalled task, surfaces as
  ``BrokenProcessPool`` within a few liveness polls, not after a
  timeout; the other workers are killed rather than waited for, no
  shared-memory segment survives, and the same manager then serves a
  correct run.
* **Shared pools** — two threads sharing one manager and one execution
  key (different seeds) each get exactly their single-thread output:
  results are routed by run id, never crossed.

The pooled start method comes from ``BGLS_POOL_START_METHODS`` (default
``fork``), so CI runs the same tests under ``forkserver`` and ``spawn``.
"""

import math
import multiprocessing
import os
import signal
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.circuits.gates import ZPowGate
from repro.sampler import PoolManager, ProcessPoolExecutor
from repro.sampler.result_planes import live_segment_names
from repro.states import StateVectorSimulationState


def pool_start_method():
    env = os.environ.get("BGLS_POOL_START_METHODS", "fork")
    available = multiprocessing.get_all_start_methods()
    methods = [m.strip() for m in env.split(",") if m.strip() in available]
    return methods[0] if methods else available[0]


START_METHOD = pool_start_method()

N = 3
QUBITS = cirq.LineQubit.range(N)
THETA = cirq.Symbol("theta")

#: The resolved Rz angle whose application kills the worker running it.
MARKED_ANGLE = 0.4321
#: Like MARKED_ANGLE, but the worker stalls 0.8 s before dying.
LATE_MARKED_ANGLE = 0.5432
#: A resolved Rz angle that hangs its worker far past any test bound.
HUNG_ANGLE = 0.6543
#: Resolved Rz angles whose application stalls the worker (seconds).
STALLS = {0.2468: 0.6, 0.3579: 0.9, LATE_MARKED_ANGLE: 0.8, HUNG_ANGLE: 60.0}

SCHEDULERS = [
    pytest.param("fifo", id="fifo"),
    pytest.param("adaptive", id="adaptive"),
    pytest.param("stealing", id="stealing"),
]
TRANSPORTS = ["shm", "pickle"]


def _exit_on_marked_gate(op, state):
    """Module-level apply_op: a worker applying a marked Rz stalls or dies
    (applied once per task, so each stall is one task's extra time)."""
    gate = op.gate
    if isinstance(gate, ZPowGate):
        angle = round(float(gate.exponent) * math.pi, 9)
        time.sleep(STALLS.get(angle, 0.0))
        if angle in (MARKED_ANGLE, LATE_MARKED_ANGLE):
            os._exit(3)
    bgls.act_on(op, state)


def batch_circuits():
    """Eight Clifford circuits of mixed depth (adaptive splits some)."""
    circuits = []
    for depth in (1, 2, 6, 1, 3, 1, 2, 4):
        circuit = cirq.Circuit(cirq.H(QUBITS[0]))
        for _ in range(depth):
            circuit.append(cirq.CNOT(QUBITS[0], QUBITS[1]))
            circuit.append(cirq.S(QUBITS[2]))
            circuit.append(cirq.H(QUBITS[2]))
        circuit.append(cirq.measure(*QUBITS, key="m"))
        circuits.append(circuit)
    return circuits


def rz_circuit():
    return cirq.Circuit(
        cirq.H(QUBITS[0]),
        cirq.CNOT(QUBITS[0], QUBITS[1]),
        cirq.H(QUBITS[2]),
        cirq.Rz(THETA).on(QUBITS[2]),
        cirq.measure(*QUBITS, key="m"),
    )


def executor(manager, mode, transport="shm"):
    return ProcessPoolExecutor(
        num_workers=2,
        start_method=START_METHOD,
        pool_manager=manager,
        scheduler=mode,
        result_transport=transport,
    )


def assert_results_equal(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert set(ra.measurements) == set(rb.measurements)
        for key in ra.measurements:
            np.testing.assert_array_equal(
                ra.measurements[key], rb.measurements[key]
            )


def shm_segments():
    """Names in ``/dev/shm`` (empty where the platform has none)."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:  # pragma: no cover - platform-dependent
        return set()


@pytest.fixture
def manager():
    mgr = PoolManager()
    yield mgr
    mgr.shutdown()


class TestAbandonedRun:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("mode", SCHEDULERS)
    def test_closed_stream_keeps_warm_pool(
        self, manager, mode, transport
    ):
        """Close a half-consumed run_batch_iter, then rerun on the same
        manager: still one pool init, and the rerun is bit-identical."""
        circuits = batch_circuits()
        sim = bgls.Simulator(
            StateVectorSimulationState(QUBITS),
            bgls.act_on,
            born.compute_probability_state_vector,
            seed=11,
            executor=executor(manager, mode, transport),
        )
        first = sim.run_batch(circuits, repetitions=48)
        stream = sim.run_batch_iter(circuits, repetitions=48)
        next(stream)
        stream.close()
        assert live_segment_names() == []
        again = sim.run_batch(circuits, repetitions=48)
        assert manager.stats["inits"] == 1
        assert_results_equal(first, again)


class TestWorkerDeath:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize(
        "mode", [SCHEDULERS[0], SCHEDULERS[2]]
    )
    def test_dead_worker_raises_promptly_and_pool_recovers(
        self, manager, mode, transport
    ):
        """A worker calling os._exit mid-task: BrokenProcessPool within
        a few polls (no task_timeout involved), no leftover segment, and
        the same manager then matches a fresh-manager run."""
        circuit = rz_circuit()
        healthy = [{"theta": 0.1 * k} for k in range(6)]
        poisoned = list(healthy)
        poisoned[3] = {"theta": MARKED_ANGLE}

        def make_sim(mgr):
            return bgls.Simulator(
                StateVectorSimulationState(QUBITS),
                _exit_on_marked_gate,
                born.compute_probability_state_vector,
                seed=5,
                executor=executor(mgr, mode, transport),
            )

        sim = make_sim(manager)
        circuits = [circuit] * len(healthy)
        # Warm the pool on the same pool key: the timed call below
        # then measures dispatch and failure detection, not start-up.
        sim.run_batch(circuits, params=healthy, repetitions=16)
        segments_before = shm_segments()
        start = time.monotonic()
        with pytest.raises(BrokenProcessPool):
            sim.run_batch(circuits, params=poisoned, repetitions=16)
        assert time.monotonic() - start < 2.0
        assert live_segment_names() == []
        assert not {
            name for name in shm_segments() - segments_before
            if name.startswith("psm_")
        }
        again = sim.run_batch(circuits, params=healthy, repetitions=16)
        with PoolManager() as fresh:
            reference = make_sim(fresh).run_batch(
                circuits, params=healthy, repetitions=16
            )
        assert_results_equal(again, reference)

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_sigkill_mid_task_raises_promptly_and_pool_recovers(
        self, manager, transport
    ):
        """The parent SIGKILLs a worker while it runs a hung task (the
        other worker hangs too): BrokenProcessPool within the same 2 s,
        so the survivor is killed rather than joined; no leftover segment,
        and the same manager then matches a fresh-manager run."""
        circuit = rz_circuit()
        healthy = [{"theta": 0.1 * k} for k in range(4)]

        def make_sim(mgr):
            return bgls.Simulator(
                StateVectorSimulationState(QUBITS),
                _exit_on_marked_gate,
                born.compute_probability_state_vector,
                seed=5,
                executor=executor(mgr, "fifo", transport),
            )

        sim = make_sim(manager)
        sim.run_batch([circuit] * 4, params=healthy, repetitions=16)
        victim = manager.worker_pids()[0]
        # Both workers have pulled a hung task by the time this fires.
        killer = threading.Timer(0.5, os.kill, (victim, signal.SIGKILL))
        start = time.monotonic()
        killer.start()
        try:
            with pytest.raises(BrokenProcessPool):
                sim.run_batch(
                    [circuit] * 2,
                    params=[{"theta": HUNG_ANGLE}] * 2,
                    repetitions=16,
                )
        finally:
            killer.cancel()
        assert time.monotonic() - start < 2.0
        assert live_segment_names() == []
        again = sim.run_batch([circuit] * 4, params=healthy, repetitions=16)
        with PoolManager() as fresh:
            reference = make_sim(fresh).run_batch(
                [circuit] * 4, params=healthy, repetitions=16
            )
        assert_results_equal(again, reference)
        assert victim not in manager.worker_pids()

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_death_under_an_abandoned_runs_puller(self, manager, transport):
        """A worker finishes a task left over from an abandoned run, then
        dies running a task of the next run.  The drain still raises
        BrokenProcessPool when the worker dies, not only at the
        task_timeout."""
        circuits = [rz_circuit()] * 2
        sim = bgls.Simulator(
            StateVectorSimulationState(QUBITS),
            _exit_on_marked_gate,
            born.compute_probability_state_vector,
            seed=5,
            executor=ProcessPoolExecutor(
                num_workers=2,
                start_method=START_METHOD,
                pool_manager=manager,
                result_transport=transport,
                task_timeout=10.0,
            ),
        )
        sim.run_batch(
            circuits, params=[{"theta": 0.1}, {"theta": 0.2}], repetitions=16
        )
        # Abandoned after point 0: one worker is idle, the other is still
        # 0.6 s into point 1, whose result the closed run drops.
        stream = sim.run_batch_iter(
            circuits, params=[{"theta": 0.1}, {"theta": 0.2468}], repetitions=16
        )
        next(stream)
        stream.close()
        # The idle worker takes the next run's point 0 (a 0.9 s stall);
        # the other finishes the abandoned point first and then takes
        # point 1, which dies after 0.8 s.
        start = time.monotonic()
        with pytest.raises(BrokenProcessPool):
            sim.run_batch(
                circuits,
                params=[{"theta": 0.3579}, {"theta": LATE_MARKED_ANGLE}],
                repetitions=16,
            )
        assert time.monotonic() - start < 3.0
        assert live_segment_names() == []


class TestSharedPoolThreads:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize(
        "mode", [SCHEDULERS[0], SCHEDULERS[2]]
    )
    def test_two_threads_get_their_own_results(
        self, manager, mode, transport
    ):
        """Two threads, one manager, one pool key, different seeds:
        each thread's output equals its single-thread output."""
        circuits = batch_circuits()
        state = StateVectorSimulationState(QUBITS)

        def make_sim(seed):
            return bgls.Simulator(
                state,
                bgls.act_on,
                born.compute_probability_state_vector,
                seed=seed,
                executor=executor(manager, mode, transport),
            )

        sims = [make_sim(21), make_sim(22)]
        expected = [sim.run_batch(circuits, repetitions=32) for sim in sims]
        barrier = threading.Barrier(2)
        outputs = [[], []]
        errors = []

        def worker(index):
            try:
                for _ in range(3):
                    barrier.wait()
                    outputs[index].append(
                        sims[index].run_batch(circuits, repetitions=32)
                    )
            except BaseException as exc:  # pragma: no cover - reported below
                errors.append(exc)
                barrier.abort()

        threads = [threading.Thread(target=worker, args=(i,)) for i in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two drains densely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert manager.stats["inits"] == 1
        for index in (0, 1):
            assert len(outputs[index]) == 3
            for result in outputs[index]:
                assert_results_equal(expected[index], result)
