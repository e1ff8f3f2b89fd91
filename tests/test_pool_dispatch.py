"""The one pooled dispatch loop: abandonment, worker death, shared pools.

Every pooled call drains a deterministic task list through the pool's
shared queue.  Three behaviours of that loop are pinned here for every
scheduler and both result transports:

* **Abandonment** — closing a half-consumed stream only closes its run:
  workers skip the leftovers, the warm pool stays (no re-init), and the
  next run on it is bit-for-bit identical.
* **Worker death** — a worker that exits mid-task surfaces as
  ``BrokenProcessPool`` within a few liveness polls, not after a
  timeout; no shared-memory segment survives, and the same manager then
  serves a correct run.
* **Shared pools** — two threads sharing one manager and one execution
  key (different seeds) each get exactly their single-thread output:
  results are routed by run id, never crossed.

The pooled start method comes from ``BGLS_POOL_START_METHODS`` (default
``fork``), so CI runs the same tests under ``forkserver`` and ``spawn``.
"""

import math
import multiprocessing
import os
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
from repro.sampler import (
    AdaptiveScheduler,
    FifoScheduler,
    PoolManager,
    ProcessPoolExecutor,
    WorkStealingScheduler,
)
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
#: Resolved Rz angles whose application stalls the worker (seconds).
STALLS = {0.2468: 0.6, 0.3579: 0.9, LATE_MARKED_ANGLE: 0.8}

SCHEDULERS = [
    pytest.param(FifoScheduler, id="fifo"),
    pytest.param(AdaptiveScheduler, id="adaptive"),
    pytest.param(WorkStealingScheduler, id="stealing"),
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


def executor(manager, make_scheduler, transport="shm"):
    return ProcessPoolExecutor(
        num_workers=2,
        start_method=START_METHOD,
        pool_manager=manager,
        scheduler=make_scheduler(),
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
    @pytest.mark.parametrize("make_scheduler", SCHEDULERS)
    def test_closed_stream_keeps_warm_pool(
        self, manager, make_scheduler, transport
    ):
        """Close a half-consumed run_batch_iter, then rerun on the same
        manager: still one pool init, and the rerun is bit-identical."""
        circuits = batch_circuits()
        sim = bgls.Simulator(
            StateVectorSimulationState(QUBITS),
            bgls.act_on,
            born.compute_probability_state_vector,
            seed=11,
            executor=executor(manager, make_scheduler, transport),
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
        "make_scheduler", [SCHEDULERS[0], SCHEDULERS[2]]
    )
    def test_dead_worker_raises_promptly_and_pool_recovers(
        self, manager, make_scheduler, transport
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
                executor=executor(mgr, make_scheduler, transport),
            )

        sim = make_sim(manager)
        circuits = [circuit] * len(healthy)
        # Warm the pool on the same execution key: the timed call below
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
    def test_death_under_an_abandoned_runs_puller(self, manager, transport):
        """A worker dies running a task of a run whose own pullers have
        all exited — its task was pulled by a puller left over from an
        abandoned run.  The drain still raises BrokenProcessPool when the
        worker dies, not only at the task_timeout."""
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
        # Abandoned after point 0: one puller has exited, the other is
        # still 0.6 s into point 1 and will go on pulling.
        stream = sim.run_batch_iter(
            circuits, params=[{"theta": 0.1}, {"theta": 0.2468}], repetitions=16
        )
        next(stream)
        stream.close()
        # The next run's first puller takes the abandoned run's last
        # sentinel; its second stalls 0.9 s on point 0 and then exits on
        # a sentinel, while the leftover puller runs point 1, which dies
        # after 0.8 s — no puller of this run is pending by then.
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
        "make_scheduler", [SCHEDULERS[0], SCHEDULERS[2]]
    )
    def test_two_threads_get_their_own_results(
        self, manager, make_scheduler, transport
    ):
        """Two threads, one manager, one execution key, different seeds:
        each thread's output equals its single-thread output."""
        circuits = batch_circuits()
        state = StateVectorSimulationState(QUBITS)

        def make_sim(seed):
            return bgls.Simulator(
                state,
                bgls.act_on,
                born.compute_probability_state_vector,
                seed=seed,
                executor=executor(manager, make_scheduler, transport),
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
