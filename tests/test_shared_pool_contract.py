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
  first point leaves workers busy with its leftover tasks; the next,
  different batch still comes out exact, because every task names its
  own unit.
* **Fewer tasks than workers** — a batch smaller than the pool reuses
  it, and the next full batch does too: the pool is keyed on its size,
  not on the task count.
* **Shutdown frees the pool** — without a garbage-collection pass: no
  named semaphore of the pool's queues is left in ``/dev/shm``.
* **No shutdown, no leftovers** — a script with no ``__main__`` guard
  that never shuts its manager down exits, and no worker outlives it
  (forkserver workers re-run such a script and build pools of their
  own).
* **Light workers** — ``import repro``, which every worker runs, does
  not load ``scipy.stats`` (~45 MB per process).

Set ``BGLS_POOL_START_METHODS`` (comma-separated) to narrow the start
methods; the default runs all three the platform offers.
"""

import gc
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


class TestShutdownFreesThePool:
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_no_semaphore_outlives_shutdown_without_gc(self, start_method):
        """Reference counting alone frees a shut-down pool, so its queues'
        named semaphores (forkserver/spawn) are unlinked once the queues'
        feeder threads have exited — no garbage-collection pass needed."""
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")

        def semaphores():
            return {name for name in os.listdir("/dev/shm") if name.startswith("sem.")}

        before = semaphores()

        def leftover():
            return semaphores() - before

        gc.disable()
        try:
            manager = PoolManager()
            pooled_sim(manager, start_method).run_batch(ensemble(5), repetitions=8)
            manager.shutdown()
            deadline = time.monotonic() + 5
            while leftover() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert leftover() == set()
        finally:
            gc.enable()


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
        batch: the workers that ran the abandoned run's tasks run the new
        batch's tasks with the new batch's units."""
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


#: Formatted with a start method; prints the pids of each pool it builds.
UNGUARDED_SCRIPT = """
import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.sampler import PoolManager, ProcessPoolExecutor
from repro.states import StateVectorSimulationState

qubits = cirq.LineQubit.range(2)
circuit = cirq.Circuit(
    cirq.H(qubits[0]), cirq.CNOT(*qubits), cirq.measure(*qubits, key="m")
)
manager = PoolManager()
executor = ProcessPoolExecutor(
    num_workers=2, start_method={method!r}, pool_manager=manager
)
bgls.Simulator(
    StateVectorSimulationState(qubits),
    bgls.act_on,
    born.compute_probability_state_vector,
    seed=1,
    executor=executor,
).run_batch([circuit] * 3, repetitions=8)
print("pids", *manager.worker_pids(), flush=True)
"""


def _running(pid):
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.parametrize(
    "start_method", [m for m in ("fork", "forkserver") if m in START_METHODS]
)
def test_unguarded_script_with_unshut_manager_leaves_no_worker(
    start_method, tmp_path
):
    """The script exits, and no worker of any pool it built outlives it."""
    if not os.path.isdir("/proc"):
        pytest.skip("needs /proc")
    script = tmp_path / "unguarded.py"
    script.write_text(UNGUARDED_SCRIPT.format(method=start_method))
    out = _run_python(str(script))
    assert out.returncode == 0, out.stderr
    pids = [
        int(pid)
        for line in out.stdout.splitlines()
        if line.startswith("pids")
        for pid in line.split()[1:]
    ]
    assert len(pids) >= 2
    deadline = time.monotonic() + 5
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert [pid for pid in pids if _running(pid)] == []


def _run_python(*args):
    """A fresh interpreter run on ``args``, this checkout's ``src`` first
    on its path."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env,
        timeout=120,
    )


def _loaded_after_import_repro(modules):
    """Which of ``modules`` a fresh interpreter holds after ``import repro``."""
    code = f"import sys, repro; print([m for m in {list(modules)!r} if m in sys.modules])"
    out = _run_python("-c", code)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_import_repro_leaves_scipy_stats_unloaded():
    assert _loaded_after_import_repro(["scipy.stats"]) == "[]"


def test_import_repro_leaves_networkx_and_scipy_unloaded():
    """Every process, pool workers included, pays for ``import repro``;
    networkx and scipy load only when a helper that needs them runs."""
    assert _loaded_after_import_repro(["networkx", "scipy", "scipy.linalg"]) == "[]"
