"""Tests for the executor layer: serial/pooled parity, shared-plan pool."""

import multiprocessing
import os
import time

import numpy as np
import pytest

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.circuits import channels
from repro.sampler import PoolManager
from repro.sampler.executors import (
    ProcessPoolExecutor,
    SerialExecutor,
    TaskTimeoutError,
    _chunk_sizes,
    _WorkerPayload,
)
from repro.sampler.result_planes import live_segment_names
from repro.sampler.service import (
    _base_seed,
    _chunk_seeds_from_base,
    _load_unit,
    _unit_ref,
)
from repro.states import StateVectorSimulationState

QUBITS = cirq.LineQubit.range(2)


def make_sim(seed, executor=None):
    """Module-level builder: every component is picklable (pool-safe)."""
    return bgls.Simulator(
        StateVectorSimulationState(QUBITS),
        bgls.act_on,
        born.compute_probability_state_vector,
        seed=seed,
        executor=executor,
    )


def noisy_bell_circuit():
    return cirq.Circuit(
        cirq.H.on(QUBITS[0]),
        channels.depolarize(0.1).on(QUBITS[0]),
        cirq.CNOT.on(QUBITS[0], QUBITS[1]),
        cirq.measure(*QUBITS, key="z"),
    )


def bell_circuit():
    return cirq.Circuit(
        cirq.H.on(QUBITS[0]),
        cirq.CNOT.on(QUBITS[0], QUBITS[1]),
        cirq.measure(*QUBITS, key="z"),
    )


def available_start_methods():
    methods = multiprocessing.get_all_start_methods()
    return [m for m in ("fork", "forkserver") if m in methods]


def pool_start_method():
    env = os.environ.get("BGLS_POOL_START_METHODS", "fork")
    available = multiprocessing.get_all_start_methods()
    methods = [m.strip() for m in env.split(",") if m.strip() in available]
    return methods[0] if methods else available[0]


def _sleepy_probability(state, bitstring):
    """Worker-side hang injection for the task_timeout tests (module-level,
    so forkserver and spawn workers resolve it by import)."""
    time.sleep(600)
    return 1.0  # pragma: no cover - the timeout always fires first


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestSerialExecutor:
    def test_default_serial_equals_no_executor(self):
        """chunks=1 runs off the simulator RNG — bit-for-bit the bare path."""
        circuit = noisy_bell_circuit()
        bare = make_sim(seed=3).sample_bitstrings(circuit, repetitions=30)
        via_exec = make_sim(seed=3, executor=SerialExecutor()).sample_bitstrings(
            circuit, repetitions=30
        )
        np.testing.assert_array_equal(bare, via_exec)

    def test_chunked_serial_reproducible(self):
        circuit = noisy_bell_circuit()
        a = make_sim(seed=5, executor=SerialExecutor(chunks=4)).sample_bitstrings(
            circuit, repetitions=30
        )
        b = make_sim(seed=5, executor=SerialExecutor(chunks=4)).sample_bitstrings(
            circuit, repetitions=30
        )
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_chunks(self):
        with pytest.raises(ValueError, match="chunks"):
            SerialExecutor(chunks=0)

    def test_parallel_mode_also_chunks(self):
        """Unitary circuits run the parallel front once per chunk."""
        sim = make_sim(seed=7, executor=SerialExecutor(chunks=3))
        result = sim.run(bell_circuit(), repetitions=900)
        rows = result.measurements["z"]
        assert rows.shape == (900, 2)
        as_ints = rows @ np.array([2, 1])
        assert set(np.unique(as_ints)) == {0, 3}
        assert 0.4 < float(np.mean(as_ints == 0)) < 0.6


class TestPooledExecutor:
    def test_serial_vs_pooled_identical_histograms(self):
        """The parity contract: same seed + same total chunk count means
        bit-for-bit identical output, in-process or pooled."""
        circuit = noisy_bell_circuit()
        serial = make_sim(seed=11, executor=SerialExecutor(chunks=4))
        pooled = make_sim(
            seed=11,
            executor=ProcessPoolExecutor(num_workers=4, start_method="fork"),
        )
        records_s, bits_s = serial._execute(circuit, 40, None)
        records_p, bits_p = pooled._execute(circuit, 40, None)
        np.testing.assert_array_equal(bits_s, bits_p)
        np.testing.assert_array_equal(records_s["z"], records_p["z"])

    @pytest.mark.parametrize("start_method", available_start_methods())
    def test_pooled_reproducible_per_start_method(self, start_method):
        circuit = noisy_bell_circuit()
        runs = []
        for _ in range(2):
            sim = make_sim(
                seed=13,
                executor=ProcessPoolExecutor(
                    num_workers=2, start_method=start_method
                ),
            )
            runs.append(sim.sample_bitstrings(circuit, repetitions=24))
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_single_worker_fallback_matches_pool(self):
        """workers=1 runs a batch's task list in-process; the task list
        does not depend on the worker count, so the output is the pool's."""
        circuits = [noisy_bell_circuit(), bell_circuit(), noisy_bell_circuit()]
        one = make_sim(
            seed=17, executor=ProcessPoolExecutor(num_workers=1)
        ).run_batch(circuits, repetitions=32)
        four = make_sim(
            seed=17,
            executor=ProcessPoolExecutor(num_workers=4, start_method="fork"),
        ).run_batch(circuits, repetitions=32)
        for a, b in zip(one, four):
            np.testing.assert_array_equal(
                a.measurements["z"], b.measurements["z"]
            )

    def test_pooled_unitary_circuit(self):
        sim = make_sim(
            seed=19,
            executor=ProcessPoolExecutor(num_workers=2, start_method="fork"),
        )
        result = sim.run(bell_circuit(), repetitions=800)
        rows = result.measurements["z"]
        assert rows.shape == (800, 2)
        as_ints = rows @ np.array([2, 1])
        assert set(np.unique(as_ints)) == {0, 3}
        assert 0.4 < float(np.mean(as_ints == 0)) < 0.6

    def test_distribution_matches_bare_simulator(self):
        circuit = noisy_bell_circuit()
        reps = 1200
        pooled = make_sim(
            seed=23,
            executor=ProcessPoolExecutor(num_workers=2, start_method="fork"),
        ).sample_bitstrings(circuit, repetitions=reps)
        bare = make_sim(seed=29).sample_bitstrings(circuit, repetitions=reps)

        def hist(bits):
            h = np.zeros(4)
            for row in bits:
                h[2 * row[0] + row[1]] += 1
            return h / len(bits)

        tv = 0.5 * np.abs(hist(pooled) - hist(bare)).sum()
        assert tv < 0.08

    def test_task_body_signature(self):
        """The O(1)-startup contract: one task body serves every pooled
        call, and its per-task payload carries no circuit, no plan, and
        no state — a unit index, the resolver, the repetition count, the
        explicit seed, the batched engine's three-integer anchor, and an
        optional result-plane slot."""
        import inspect
        import pickle

        from repro.sampler.executors import _task_args
        from repro.sampler.schedule import ScheduledTask
        from repro.sampler.service import _run_task

        params = list(inspect.signature(_run_task).parameters)
        assert params == [
            "simulator", "units", "unit_index", "resolver", "size", "seed",
            "ctx", "slot",
        ]
        whole = _task_args(ScheduledTask(2, 5, None, 0, 1, 40), 7, 40)
        assert whole == (2, None, 40, [7, 5], (7, 5, 0))
        chunk = _task_args(ScheduledTask(2, 5, None, 3, 4, 10), 7, 40)
        assert chunk == (2, None, 10, [7, 5, 3], (7, 5, 30))
        assert len(pickle.dumps(chunk)) < 100

    def test_worker_payload_ships_plan_and_state_once(self):
        """The state ships once per worker; the plan travels with each
        task as ``(unit_key, blob)`` and is unpickled once per worker."""
        sim = make_sim(seed=31)
        plan = sim.compile(noisy_bell_circuit()).specialize(None)
        payload = _WorkerPayload(sim)
        assert "units" not in _WorkerPayload.__slots__
        rebuilt = payload.build_simulator()
        assert type(rebuilt.initial_state) is StateVectorSimulationState
        unit_key, blob = _unit_ref(plan)
        assert _unit_ref(plan)[0] == unit_key
        shipped = _load_unit(unit_key, blob)
        assert _load_unit(unit_key, blob) is shipped
        # The rebuilt simulator runs the shipped plan without recompiling.
        records, bits = rebuilt._run_trajectories(
            shipped, 5, rng=np.random.default_rng(0)
        )
        assert bits.shape == (5, 2)
        assert records["z"].shape == (5, 2)


class TestChunkHelpers:
    def test_chunk_sizes_preserved(self):
        for reps in (1, 7, 100, 1001):
            for chunks in (1, 3, 8):
                assert sum(_chunk_sizes(reps, chunks)) == reps

    def test_chunk_seeds_are_prefix_stable(self):
        base = _base_seed(123)
        assert _chunk_seeds_from_base(base, 3) == _chunk_seeds_from_base(base, 5)[:3]


class TestPoolContext:
    """_pool_context: honor the requested method or fail loudly.

    A requested-but-unavailable start method must raise instead of
    silently substituting another one — a silent swap masks platform
    differences (a forkserver config "passing" on a fork-only platform
    tests nothing).  The deliberate exception stays: forkserver/spawn
    fall back to fork when ``__main__`` cannot be re-imported, because
    those methods cannot work there at all.
    """

    def test_requested_available_method_is_honored(self):
        from repro.sampler.service import _pool_context

        for method in multiprocessing.get_all_start_methods():
            assert _pool_context(method).get_start_method() == method

    def test_unavailable_method_raises_clear_error(self, monkeypatch):
        from repro.sampler import service

        monkeypatch.setattr(
            service.multiprocessing,
            "get_all_start_methods",
            lambda: ["spawn"],
        )
        with pytest.raises(ValueError, match="forkserver.*not available"):
            service._pool_context("forkserver")
        with pytest.raises(ValueError, match="available: spawn"):
            service._pool_context("fork")

    def test_unavailable_method_raises_from_executor(self, monkeypatch):
        """The error surfaces through the public executor path too."""
        from repro.sampler import service

        monkeypatch.setattr(
            service.multiprocessing,
            "get_all_start_methods",
            lambda: ["spawn"],
        )
        with pytest.raises(ValueError, match="forkserver"):
            ProcessPoolExecutor(num_workers=2, start_method="forkserver")

    def test_unimportable_main_falls_back_to_fork(self, monkeypatch):
        from repro.sampler import service

        monkeypatch.setattr(service, "_main_is_importable", lambda: False)
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork on this platform")
        assert service._pool_context("forkserver").get_start_method() == "fork"
        assert service._pool_context("spawn").get_start_method() == "fork"

    def test_none_prefers_fork_when_available(self):
        from repro.sampler.service import _pool_context

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork on this platform")
        assert _pool_context(None).get_start_method() == "fork"

    def test_auto_default_resolves_to_available_method(self, monkeypatch):
        """The constructor default works on every platform: 'auto' picks
        forkserver where available, the platform default elsewhere."""
        from repro.sampler import executors

        available = multiprocessing.get_all_start_methods()
        default = ProcessPoolExecutor(num_workers=2)
        if "forkserver" in available:
            assert default.start_method == "forkserver"
        else:  # pragma: no cover - platform-dependent
            assert default.start_method is None
        # Simulated spawn-only platform (Windows): no error, no forkserver.
        monkeypatch.setattr(
            executors.multiprocessing,
            "get_all_start_methods",
            lambda: ["spawn"],
        )
        assert ProcessPoolExecutor(num_workers=2).start_method is None


class TestTaskTimeout:
    """task_timeout: a wedged worker fails loudly instead of hanging."""

    def test_rejects_non_positive_timeout(self):
        with pytest.raises(ValueError, match="task_timeout"):
            ProcessPoolExecutor(num_workers=2, task_timeout=0)
        with pytest.raises(ValueError, match="task_timeout"):
            ProcessPoolExecutor(num_workers=2, task_timeout=-1.5)

    @pytest.mark.parametrize(
        "mode",
        ["adaptive", "stealing"],
        ids=["futures", "stealing"],
    )
    def test_hung_worker_raises_and_kills_pool(self, mode):
        """Both dispatch modes: a worker stuck in a 600 s sleep trips the
        completion-gap bound promptly, the pool is *killed* (a wedged
        worker never joins), every result plane is released, and the
        manager is left reusable."""
        manager = PoolManager()
        try:
            sim = bgls.Simulator(
                StateVectorSimulationState(QUBITS),
                bgls.act_on,
                _sleepy_probability,
                seed=43,
                executor=ProcessPoolExecutor(
                    num_workers=2,
                    start_method=pool_start_method(),
                    pool_manager=manager,
                    scheduler=mode,
                    task_timeout=0.5,
                ),
            )
            start = time.monotonic()
            with pytest.raises(TaskTimeoutError, match="task_timeout"):
                sim.run_batch(
                    [bell_circuit() for _ in range(3)], repetitions=8
                )
            assert time.monotonic() - start < 30
            pids = manager.worker_pids()
            assert pids, "expected the manager to have recorded worker pids"
            deadline = time.monotonic() + 10
            for pid in pids:
                while _pid_alive(pid) and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert not _pid_alive(pid), f"worker {pid} survived timeout"
            assert live_segment_names() == []
            # Reusable: a healthy run after the kill rebuilds cleanly.
            healthy = make_sim(
                seed=43,
                executor=ProcessPoolExecutor(
                    num_workers=2,
                    start_method=pool_start_method(),
                    pool_manager=manager,
                    scheduler=mode,
                ),
            ).run_batch([bell_circuit()], repetitions=8)
            assert len(healthy) == 1
        finally:
            manager.shutdown()
