"""One warm pool per process: the shared-pool concurrency and fault contract.

A pool lives as long as its initial state and simulator config; the
compiled units travel with the tasks.  Pinned here:

* **Idle-worker death heals** — a worker killed between calls does not
  fail the next call: the manager rebuilds the broken pool before
  submitting (one more init), and the output is bit-for-bit serial —
  also when the call's units were cached in the dead worker.  Runs under
  fork, forkserver and spawn.
* **Two threads, two batches** — different circuit batches from two
  threads on one manager: each equals its serial run, one init, no
  leftover shared-memory segment.
* **Abandoned run, then a different batch** — a stream closed after its
  first point leaves pullers behind; the next, different batch still
  comes out exact, because every task names its own unit.
* **Fewer tasks than workers** — a batch smaller than the pool reuses
  it, and the next full batch does too: the pool is keyed on its size,
  not on the task count.
* **Light workers** — ``import repro``, which every worker runs, does
  not load ``scipy.stats`` (~45 MB per process).

Set ``BGLS_POOL_START_METHODS`` (comma-separated) to narrow the start
methods; the default runs all three the platform offers.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.sampler import PoolManager, ProcessPoolExecutor
from repro.sampler.result_planes import live_segment_names
from repro.states import StateVectorSimulationState


def pool_start_methods():
    env = os.environ.get("BGLS_POOL_START_METHODS", "fork,forkserver,spawn")
    available = multiprocessing.get_all_start_methods()
    methods = [m.strip() for m in env.split(",") if m.strip() in available]
    return methods or [available[0]]


START_METHODS = pool_start_methods()

N = 4
QUBITS = cirq.LineQubit.range(N)


def ensemble(seed, count=6):
    """``count`` random circuits, distinct for distinct seeds."""
    rng = np.random.default_rng(seed)
    circuits = []
    for _ in range(count):
        circuit = cirq.Circuit(cirq.H(q) for q in QUBITS)
        for _ in range(3):
            a = int(rng.integers(N - 1))
            circuit.append(cirq.CNOT(QUBITS[a], QUBITS[a + 1]))
            circuit.append(
                cirq.Rx(float(rng.random())).on(QUBITS[int(rng.integers(N))])
            )
        circuit.append(cirq.measure(*QUBITS, key="m"))
        circuits.append(circuit)
    return circuits


def make_sim(seed, executor=None, state=None):
    return bgls.Simulator(
        state if state is not None else StateVectorSimulationState(QUBITS),
        bgls.act_on,
        born.compute_probability_state_vector,
        seed=seed,
        executor=executor,
    )


def pooled_sim(manager, start_method, seed=3, state=None):
    return make_sim(
        seed,
        ProcessPoolExecutor(
            num_workers=2, start_method=start_method, pool_manager=manager
        ),
        state,
    )


def assert_results_equal(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra.measurements["m"], rb.measurements["m"])


def wait_gone(pid, timeout=10.0):
    """Wait until ``pid`` is reaped, so the death is observable."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)
    raise AssertionError(f"worker {pid} still present after SIGKILL")


@pytest.fixture
def manager():
    mgr = PoolManager()
    yield mgr
    mgr.shutdown()


class TestIdleWorkerDeath:
    @pytest.mark.parametrize("start_method", START_METHODS)
    @pytest.mark.parametrize("cached", [True, False], ids=["cached", "fresh"])
    def test_next_call_heals_the_pool(self, manager, start_method, cached):
        """SIGKILL a worker between calls: the next call rebuilds the pool
        first and matches serial, whether its units were cached in the
        dead worker (``cached``) or never seen (``fresh``)."""
        sim = pooled_sim(manager, start_method)
        warm = ensemble(1)
        assert_results_equal(
            sim.run_batch(warm, repetitions=12),
            make_sim(3).run_batch(warm, repetitions=12),
        )
        assert manager.stats["inits"] == 1
        victim = manager.worker_pids()[0]
        os.kill(victim, signal.SIGKILL)
        wait_gone(victim)
        batch = warm if cached else ensemble(2)
        healed = sim.run_batch(batch, repetitions=12)
        assert_results_equal(healed, make_sim(3).run_batch(batch, repetitions=12))
        assert manager.stats["inits"] == 2
        assert victim not in manager.worker_pids()
        assert live_segment_names() == []


class TestSharedPoolContract:
    def test_two_threads_run_different_batches(self, manager):
        """Two threads, different circuit batches, one manager and one
        initial state: each output equals its serial run, on one init."""
        batches = {0: ensemble(10), 1: ensemble(11)}
        state = StateVectorSimulationState(QUBITS)
        outputs = {}
        errors = []

        def work(index):
            try:
                sim = pooled_sim(
                    manager, START_METHODS[0], seed=20 + index, state=state
                )
                outputs[index] = [
                    sim.run_batch(batches[index], repetitions=16)
                    for _ in range(3)
                ]
            except BaseException as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
            assert not thread.is_alive()
        assert not errors, errors
        for index, batch in batches.items():
            serial = make_sim(20 + index).run_batch(batch, repetitions=16)
            for output in outputs[index]:
                assert_results_equal(output, serial)
        assert manager.stats["inits"] == 1
        assert live_segment_names() == []

    def test_abandoned_run_then_a_different_batch(self, manager):
        """Close a stream after its first point, then run a different
        batch: the abandoned run's leftover pullers run the new batch's
        tasks with the new batch's units."""
        sim = pooled_sim(manager, START_METHODS[0])
        stream = sim.run_batch_iter(ensemble(30, count=8), repetitions=64)
        next(stream)
        stream.close()
        other = ensemble(31, count=8)
        assert_results_equal(
            sim.run_batch(other, repetitions=16),
            make_sim(3).run_batch(other, repetitions=16),
        )
        assert manager.stats["inits"] == 1
        assert live_segment_names() == []

    def test_small_batch_then_full_batch_share_one_pool(self, manager):
        """A 2-point batch on 3 workers, then a 6-point one: one init,
        both outputs serial."""
        sim = make_sim(
            5,
            ProcessPoolExecutor(
                num_workers=3, start_method=START_METHODS[0], pool_manager=manager
            ),
        )
        for batch in (ensemble(40, count=2), ensemble(41, count=6)):
            assert_results_equal(
                sim.run_batch(batch, repetitions=16),
                make_sim(5).run_batch(batch, repetitions=16),
            )
        assert manager.stats["inits"] == 1
        assert live_segment_names() == []


def _loaded_after_import_repro(modules):
    """Which of ``modules`` a fresh interpreter holds after ``import repro``."""
    code = f"import sys, repro; print([m for m in {list(modules)!r} if m in sys.modules])"
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_import_repro_leaves_scipy_stats_unloaded():
    assert _loaded_after_import_repro(["scipy.stats"]) == "[]"


def test_import_repro_leaves_networkx_and_scipy_unloaded():
    """Every process, pool workers included, pays for ``import repro``;
    networkx and scipy load only when a helper that needs them runs."""
    assert _loaded_after_import_repro(["networkx", "scipy", "scipy.linalg"]) == "[]"
