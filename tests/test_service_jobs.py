"""SamplingService job-tier contracts: lifecycle, tenancy, isolation.

The service contracts pinned here (the PR's acceptance criteria):

* **Lifecycle** — ``submit`` returns a ``QUEUED`` handle that moves
  through ``RUNNING`` to exactly one of ``DONE``/``FAILED``/
  ``CANCELLED``; ``result(timeout=)`` blocks/raises per the documented
  types; ``stream()`` yields per-point ``Result``s as they land.
* **Determinism** — every job's streamed output is bit-for-bit equal to
  a direct ``run_sweep`` of the same ``(circuit, params, repetitions,
  seed)``, regardless of tenant interleaving.
* **Fair share** — quota-weighted fair queueing: under contention a
  quota-2 tenant completes ~2x the jobs of a quota-1 tenant, and a
  newly-arriving light tenant is served promptly (start-time clamping:
  no banked credit, no monopolization).
* **Warm-pool sharing** — interleaved jobs over distinct circuits
  across tenants cost one pool init in total.
* **Bounded result store** — LRU + max-entries/max-bytes eviction;
  ``result()`` after eviction raises ``ResultExpired``; reads refresh
  recency.
* **Failure isolation** — a job that poisons the pool FAILs alone,
  its planes are released (shm audit stays clean), and other tenants'
  queued jobs complete on a rebuilt pool.  An error in the dispatcher's
  own bookkeeping FAILs the affected jobs with its cause, and the same
  dispatcher thread keeps serving.

Pooled tests take their start method from ``BGLS_POOL_START_METHODS``
(comma-separated; default ``fork``) like the rest of the lifecycle
suite, so CI runs them under forkserver and spawn.
"""

import multiprocessing
import os
import threading
import time

import pytest

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.sampler import (
    JobCancelled,
    ResultExpired,
    SamplingService,
    SerialExecutor,
)
from repro.sampler import jobs as jobs_mod
from repro.sampler.result_planes import live_segment_names
from repro.states import StateVectorSimulationState

N = 3
QUBITS = cirq.LineQubit.range(N)
THETA = cirq.Symbol("theta")


def pooled_start_method():
    env = os.environ.get("BGLS_POOL_START_METHODS", "fork")
    requested = [m.strip() for m in env.split(",") if m.strip()]
    available = multiprocessing.get_all_start_methods()
    methods = [m for m in requested if m in available]
    return (methods or [available[0]])[0]


def sweep_circuit():
    return cirq.Circuit(
        cirq.H(QUBITS[0]),
        cirq.CNOT(QUBITS[0], QUBITS[1]),
        cirq.Rx(THETA).on(QUBITS[2]),
        cirq.measure(*QUBITS, key="m"),
    )


def other_circuit():
    return cirq.Circuit(
        cirq.H(QUBITS[2]),
        cirq.CNOT(QUBITS[2], QUBITS[0]),
        cirq.Rz(THETA).on(QUBITS[1]),
        cirq.measure(*QUBITS, key="m"),
    )


POINTS = [{"theta": 0.2 * i} for i in range(3)]


def concrete_circuit():
    return cirq.Circuit(
        cirq.H(QUBITS[0]),
        cirq.CNOT(QUBITS[0], QUBITS[1]),
        cirq.measure(*QUBITS, key="m"),
    )


def make_service(executor=None, **kw):
    return SamplingService(
        StateVectorSimulationState(QUBITS),
        bgls.act_on,
        born.compute_probability_state_vector,
        executor=executor,
        **kw,
    )


def serial_service(**kw):
    return make_service(executor=SerialExecutor(), **kw)


def pooled_service(**kw):
    # executor=None: the service builds (and owns) the warm pool, so
    # shutdown() is responsible for joining the workers — exactly the
    # deployment shape the child/shm audits verify.
    return make_service(
        num_workers=2, start_method=pooled_start_method(), **kw
    )


def _wait_terminal(handle, timeout=30.0):
    deadline = time.monotonic() + timeout
    while handle.status() not in (
        jobs_mod.DONE,
        jobs_mod.FAILED,
        jobs_mod.CANCELLED,
    ):
        assert time.monotonic() < deadline, f"{handle} never finished"
        time.sleep(0.005)


def direct_sweep(circuit, params, repetitions, seed):
    sim = bgls.Simulator(
        StateVectorSimulationState(QUBITS),
        bgls.act_on,
        born.compute_probability_state_vector,
        seed=seed,
    )
    return sim.run_sweep(circuit, params, repetitions)


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------

class TestJobLifecycle:
    def test_submit_runs_to_done(self):
        with serial_service() as service:
            job = service.submit(
                sweep_circuit(), POINTS, tenant="a", repetitions=8, seed=3
            )
            results = job.result(timeout=30)
            assert job.status() == jobs_mod.DONE
            assert job.exception() is None
            assert len(results) == len(POINTS)
            assert results == direct_sweep(sweep_circuit(), POINTS, 8, 3)

    def test_single_point_default_params(self):
        with serial_service() as service:
            job = service.submit(
                concrete_circuit(), tenant="a", repetitions=4, seed=1
            )
            assert job.num_points == 1
            assert len(job.result(timeout=30)) == 1

    def test_empty_params_job_completes_empty(self):
        with serial_service() as service:
            job = service.submit(
                sweep_circuit(), [], tenant="a", repetitions=4, seed=1
            )
            assert job.result(timeout=30) == []
            assert job.status() == jobs_mod.DONE

    def test_stream_yields_each_point(self):
        with serial_service() as service:
            job = service.submit(
                sweep_circuit(), POINTS, tenant="a", repetitions=8, seed=5
            )
            streamed = list(job.stream())
            assert streamed == direct_sweep(sweep_circuit(), POINTS, 8, 5)
            # A second stream replays from the banked results.
            assert list(job.stream()) == streamed

    def test_result_timeout(self):
        blocker = threading.Event()

        def slow_apply(op, state):
            blocker.wait(5)
            return bgls.act_on(op, state)

        service = SamplingService(
            StateVectorSimulationState(QUBITS),
            slow_apply,
            born.compute_probability_state_vector,
            executor=SerialExecutor(),
        )
        with service:
            job = service.submit(
                sweep_circuit(), POINTS, tenant="a", repetitions=2, seed=1
            )
            with pytest.raises(TimeoutError):
                job.result(timeout=0.05)
            blocker.set()
            job.result(timeout=30)

    def test_seed_drawn_and_replayable_when_omitted(self):
        with serial_service() as service:
            job = service.submit(
                sweep_circuit(), POINTS, tenant="a", repetitions=6
            )
            results = job.result(timeout=30)
            assert job.seed >= 0
            assert results == direct_sweep(
                sweep_circuit(), POINTS, 6, job.seed
            )

    def test_job_ids_unique(self):
        with serial_service() as service:
            ids = {
                service.submit(
                    concrete_circuit(), tenant="a", repetitions=1, seed=i
                ).job_id
                for i in range(5)
            }
            assert len(ids) == 5


class TestSubmitValidation:
    def test_boundary_errors(self):
        with serial_service() as service:
            with pytest.raises(ValueError, match="repetitions"):
                service.submit(sweep_circuit(), tenant="a", repetitions=0)
            with pytest.raises(ValueError, match="seed"):
                service.submit(
                    sweep_circuit(), tenant="a", repetitions=1, seed=-3
                )
            with pytest.raises(ValueError, match="seed"):
                service.submit(
                    sweep_circuit(), tenant="a", repetitions=1, seed=1.5
                )
            with pytest.raises(ValueError, match="tenant"):
                service.submit(sweep_circuit(), tenant="", repetitions=1)
            with pytest.raises(ValueError, match="measure"):
                service.submit(
                    cirq.Circuit(cirq.H(QUBITS[0])), tenant="a", repetitions=1
                )

    def test_bare_state_rejected_at_submit(self):
        from repro.states.chform import StabilizerChForm

        service = SamplingService(
            StabilizerChForm(num_qubits=N),
            bgls.act_on,
            born.compute_probability_stabilizer_state,
            executor=SerialExecutor(),
        )
        with service:
            with pytest.raises(TypeError, match="SimulationState"):
                service.submit(
                    cirq.Circuit(
                        cirq.H(QUBITS[0]), cirq.measure(*QUBITS, key="m")
                    ),
                    tenant="a",
                    repetitions=1,
                )

    def test_submit_after_shutdown_raises(self):
        service = serial_service()
        service.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            service.submit(sweep_circuit(), tenant="a", repetitions=1)

    def test_register_tenant_validation(self):
        with serial_service() as service:
            with pytest.raises(ValueError, match="quota"):
                service.register_tenant("a", quota=0)
            with pytest.raises(ValueError, match="tenant"):
                service.register_tenant("")


# ----------------------------------------------------------------------
# cancellation
# ----------------------------------------------------------------------

class TestCancellation:
    def test_cancel_queued_job(self):
        gate = threading.Event()

        def slow_apply(op, state):
            gate.wait(10)
            return bgls.act_on(op, state)

        service = SamplingService(
            StateVectorSimulationState(QUBITS),
            slow_apply,
            born.compute_probability_state_vector,
            executor=SerialExecutor(),
        )
        with service:
            blocker = service.submit(
                sweep_circuit(), POINTS, tenant="a", repetitions=1, seed=1
            )
            queued = service.submit(
                sweep_circuit(), POINTS, tenant="a", repetitions=1, seed=2
            )
            assert queued.cancel() is True
            assert queued.status() == jobs_mod.CANCELLED
            with pytest.raises(JobCancelled):
                queued.result(timeout=1)
            with pytest.raises(JobCancelled):
                list(queued.stream())
            # Cancelling a terminal job is a no-op.
            assert queued.cancel() is False
            gate.set()
            blocker.result(timeout=30)
            assert service.stats()["a"]["jobs_cancelled"] == 1

    def test_cancel_running_job_at_point_boundary(self):
        release = threading.Event()

        def slow_apply(op, state):
            release.wait(10)
            return bgls.act_on(op, state)

        service = SamplingService(
            StateVectorSimulationState(QUBITS),
            slow_apply,
            born.compute_probability_state_vector,
            executor=SerialExecutor(),
        )
        with service:
            points = [{"theta": 0.1 * i} for i in range(20)]
            job = service.submit(
                sweep_circuit(), points, tenant="a", repetitions=1, seed=1
            )
            deadline = time.monotonic() + 10
            while job.status() == jobs_mod.QUEUED:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            assert job.cancel() is True
            release.set()
            with pytest.raises(JobCancelled):
                job.result(timeout=30)
            assert job.status() == jobs_mod.CANCELLED


# ----------------------------------------------------------------------
# fair share + quotas
# ----------------------------------------------------------------------

class TestFairShare:
    def _ordered_completions(self, quota_a, quota_b, jobs_each=8):
        """Dispatch order of equal-cost jobs from two contending tenants.

        A gate-blocked first job holds the dispatcher while both
        backlogs are enqueued, so selection order is purely the
        fair-share policy's.
        """
        gate = threading.Event()

        def gated_apply(op, state):
            gate.wait(10)
            return bgls.act_on(op, state)

        service = SamplingService(
            StateVectorSimulationState(QUBITS),
            gated_apply,
            born.compute_probability_state_vector,
            executor=SerialExecutor(),
        )
        order = []
        with service:
            service.register_tenant("a", quota=quota_a)
            service.register_tenant("b", quota=quota_b)
            blocker = service.submit(
                sweep_circuit(), POINTS, tenant="warmup", repetitions=1, seed=0
            )
            handles = []
            for k in range(jobs_each):
                handles.append(
                    (
                        "a",
                        service.submit(
                            sweep_circuit(),
                            POINTS,
                            tenant="a",
                            repetitions=1,
                            seed=10 + k,
                        ),
                    )
                )
                handles.append(
                    (
                        "b",
                        service.submit(
                            sweep_circuit(),
                            POINTS,
                            tenant="b",
                            repetitions=1,
                            seed=20 + k,
                        ),
                    )
                )
            gate.set()
            blocker.result(timeout=30)
            for _, handle in handles:
                handle.result(timeout=30)
            # Reconstruct dispatch order from per-job start bookkeeping:
            # last_served is monotone, but simpler — poll completion via
            # the dispatcher's serial execution: jobs finish in dispatch
            # order on a serial executor, so sort by first-result time is
            # unnecessary; instead record the order results landed.
            order = sorted(
                handles, key=lambda pair: pair[1]._finished_seq
            )
        return [tenant for tenant, _ in order]

    def test_equal_quotas_round_robin(self):
        order = self._ordered_completions(1.0, 1.0)
        # Strict alternation after the warmup: no tenant ever gets two
        # consecutive dispatches while the other has jobs pending.
        for first, second in zip(order, order[1:]):
            assert first != second

    def test_quota_weighting_skews_dispatch(self):
        order = self._ordered_completions(2.0, 1.0)
        first_nine = order[:9]
        assert first_nine.count("a") >= 5
        assert first_nine.count("b") >= 1

    def test_new_tenant_join_does_not_monopolize(self):
        # A tenant arriving after others have been served joins at the
        # current virtual time: its backlog interleaves instead of
        # running first in an uninterrupted burst.
        gate = threading.Event()

        def gated_apply(op, state):
            gate.wait(10)
            return bgls.act_on(op, state)

        service = SamplingService(
            StateVectorSimulationState(QUBITS),
            gated_apply,
            born.compute_probability_state_vector,
            executor=SerialExecutor(),
        )
        with service:
            early = [
                service.submit(
                    sweep_circuit(), POINTS, tenant="old", repetitions=1, seed=k
                )
                for k in range(6)
            ]
            gate.set()
            for handle in early[:3]:
                handle.result(timeout=30)
            gate.clear()
            stall = service.submit(
                sweep_circuit(), POINTS, tenant="old", repetitions=1, seed=50
            )
            late = [
                service.submit(
                    sweep_circuit(), POINTS, tenant="new", repetitions=1, seed=60 + k
                )
                for k in range(6)
            ]
            gate.set()
            for handle in early + [stall] + late:
                handle.result(timeout=30)
            sequence = [
                tenant
                for tenant, _ in sorted(
                    [("old", h) for h in early + [stall]]
                    + [("new", h) for h in late],
                    key=lambda pair: pair[1]._finished_seq,
                )
            ]
            # The new tenant's six jobs must not all run consecutively
            # ahead of the old tenant's remaining backlog.
            tail = sequence[-12:]
            first_old_after_join = tail.index("old")
            assert first_old_after_join < 6


# ----------------------------------------------------------------------
# warm-pool sharing + key grouping
# ----------------------------------------------------------------------

class TestWarmPoolGrouping:
    def test_interleaved_keys_group_to_distinct_inits(self):
        with pooled_service() as service:
            manager = service.executor.pool_manager
            circuits = [sweep_circuit(), other_circuit()]
            handles = []
            for tenant in ("a", "b"):
                for round_ in range(2):
                    for index, circuit in enumerate(circuits):
                        handles.append(
                            service.submit(
                                circuit,
                                POINTS,
                                tenant=tenant,
                                repetitions=16,
                                seed=100 * round_ + index,
                            )
                        )
            for handle in handles:
                assert len(handle.result(timeout=120)) == len(POINTS)
            # 8 jobs over 2 distinct circuits: the circuits travel with
            # their tasks, so one pool serves every job.
            assert manager.stats["inits"] == 1
        assert live_segment_names() == []

    def test_pooled_results_bit_for_bit(self):
        with pooled_service() as service:
            job_a = service.submit(
                sweep_circuit(), POINTS, tenant="a", repetitions=32, seed=11
            )
            job_b = service.submit(
                sweep_circuit(), POINTS, tenant="b", repetitions=32, seed=22
            )
            streamed = list(job_a.stream())
            assert streamed == direct_sweep(sweep_circuit(), POINTS, 32, 11)
            assert job_b.result(timeout=120) == direct_sweep(
                sweep_circuit(), POINTS, 32, 22
            )
        assert live_segment_names() == []


# ----------------------------------------------------------------------
# bounded result store
# ----------------------------------------------------------------------

class TestResultStore:
    def test_entry_eviction_lru(self):
        with serial_service(max_result_entries=2) as service:
            handles = [
                service.submit(
                    sweep_circuit(), POINTS, tenant="a", repetitions=4, seed=k
                )
                for k in range(3)
            ]
            # Wait via status() — reading results would touch the LRU
            # order this test is pinning down.
            for handle in handles:
                _wait_terminal(handle)
            # Third completion evicted the first (oldest, never read).
            with pytest.raises(ResultExpired):
                handles[0].result(timeout=1)
            assert handles[0].status() == jobs_mod.DONE
            assert service.evictions == 1
            # Reading refreshes recency: touch job 1, then complete a
            # fourth job — job 2 (now least recently used) is the next
            # victim, not the freshly-read job 1.
            handles[1].result(timeout=1)
            extra = service.submit(
                sweep_circuit(), POINTS, tenant="a", repetitions=4, seed=9
            )
            _wait_terminal(extra)
            handles[1].result(timeout=1)
            with pytest.raises(ResultExpired):
                handles[2].result(timeout=1)

    def test_byte_budget_eviction(self):
        with serial_service(max_result_bytes=1) as service:
            first = service.submit(
                sweep_circuit(), POINTS, tenant="a", repetitions=4, seed=1
            )
            first.result(timeout=30)
            second = service.submit(
                sweep_circuit(), POINTS, tenant="a", repetitions=4, seed=2
            )
            # The newest result is always admitted; the older one pays.
            assert len(second.result(timeout=30)) == len(POINTS)
            with pytest.raises(ResultExpired):
                first.result(timeout=1)
            assert service.result_store_entries == 1

    def test_store_accounting(self):
        with serial_service() as service:
            job = service.submit(
                sweep_circuit(), POINTS, tenant="a", repetitions=4, seed=1
            )
            job.result(timeout=30)
            assert service.result_store_entries == 1
            assert service.result_store_bytes > 0
            assert service.evictions == 0


# ----------------------------------------------------------------------
# failure isolation
# ----------------------------------------------------------------------

class TestFailureIsolation:
    def test_poisoned_job_fails_alone_pool_recovers(self):
        with pooled_service() as service:
            manager = service.executor.pool_manager
            # Unresolvable resolvers poison the workers mid-batch: the
            # parameterized gate cannot specialize without theta.
            poisoned = service.submit(
                sweep_circuit(), [{}, {}], tenant="evil", repetitions=8, seed=1
            )
            survivors = [
                service.submit(
                    sweep_circuit(),
                    POINTS,
                    tenant="nice",
                    repetitions=16,
                    seed=40 + k,
                )
                for k in range(2)
            ]
            with pytest.raises(ValueError, match="theta"):
                poisoned.result(timeout=120)
            assert poisoned.status() == jobs_mod.FAILED
            assert isinstance(poisoned.exception(), ValueError)
            for k, handle in enumerate(survivors):
                assert handle.result(timeout=120) == direct_sweep(
                    sweep_circuit(), POINTS, 16, 40 + k
                )
            stats = service.stats()
            assert stats["evil"]["jobs_failed"] == 1
            assert stats["nice"]["jobs_completed"] == 2
            # The pool was rebuilt after the poison, not abandoned.
            assert manager.stats["inits"] >= 1
        # Lifecycle contracts: no leaked shm segments, workers joined.
        assert live_segment_names() == []

    def test_dispatcher_error_fails_the_job_and_serves_on(self, monkeypatch):
        """An error outside a job's own run (here: banking its results)
        FAILs that job with the cause; the dispatcher survives and the
        job queued behind it completes without another submit."""
        gate = threading.Event()

        def gated_apply(op, state):
            gate.wait(10)
            return bgls.act_on(op, state)

        service = SamplingService(
            StateVectorSimulationState(QUBITS),
            gated_apply,
            born.compute_probability_state_vector,
            executor=SerialExecutor(),
        )
        boom = RuntimeError("injected bank failure")
        bank = service._bank_locked
        calls = []

        def bank_fails_once(job):
            calls.append(job.job_id)
            if len(calls) == 1:
                raise boom
            return bank(job)

        monkeypatch.setattr(service, "_bank_locked", bank_fails_once)
        with service:
            first = service.submit(
                sweep_circuit(), POINTS, tenant="a", repetitions=4, seed=1
            )
            second = service.submit(
                sweep_circuit(), POINTS, tenant="a", repetitions=4, seed=2
            )
            dispatcher = service._dispatcher
            gate.set()
            with pytest.raises(RuntimeError, match="injected bank failure"):
                first.result(timeout=30)
            assert first.status() == jobs_mod.FAILED
            assert first.exception() is boom
            assert second.result(timeout=30) == bgls.Simulator(
                StateVectorSimulationState(QUBITS),
                gated_apply,
                born.compute_probability_state_vector,
                seed=2,
            ).run_sweep(sweep_circuit(), POINTS, 4)
            assert service._dispatcher is dispatcher
            assert dispatcher.is_alive()
            stats = service.stats()["a"]
            assert stats["jobs_failed"] == 1
            assert stats["jobs_completed"] == 1
            assert service.result_store_entries == 1

    def test_selection_error_fails_queued_jobs_and_serves_on(
        self, monkeypatch
    ):
        """An error while picking the next job FAILs every queued job with
        the cause (none can be scheduled, none may stall); the same
        dispatcher then serves the next submission."""
        gate = threading.Event()

        def gated_apply(op, state):
            gate.wait(10)
            return bgls.act_on(op, state)

        service = SamplingService(
            StateVectorSimulationState(QUBITS),
            gated_apply,
            born.compute_probability_state_vector,
            executor=SerialExecutor(),
        )
        boom = RuntimeError("injected selection failure")
        select = service._select_locked
        calls = []

        def select_fails_once():
            calls.append(None)
            if len(calls) == 1:
                raise boom
            return select()

        with service:
            running = service.submit(
                sweep_circuit(), POINTS, tenant="a", repetitions=2, seed=1
            )
            deadline = time.monotonic() + 30
            while running.status() != jobs_mod.RUNNING:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            monkeypatch.setattr(service, "_select_locked", select_fails_once)
            queued = [
                service.submit(
                    sweep_circuit(), POINTS, tenant=t, repetitions=2, seed=2
                )
                for t in ("a", "b")
            ]
            dispatcher = service._dispatcher
            gate.set()
            assert len(running.result(timeout=30)) == len(POINTS)
            for handle in queued:
                with pytest.raises(RuntimeError, match="injected selection"):
                    handle.result(timeout=30)
                assert handle.exception() is boom
            later = service.submit(
                sweep_circuit(), POINTS, tenant="b", repetitions=2, seed=3
            )
            assert len(later.result(timeout=30)) == len(POINTS)
            assert service._dispatcher is dispatcher
            stats = service.stats()
            assert stats["a"]["jobs_failed"] == stats["b"]["jobs_failed"] == 1

    def test_failed_job_does_not_enter_result_store(self):
        with serial_service() as service:
            bad = service.submit(
                sweep_circuit(), [{}], tenant="a", repetitions=2, seed=1
            )
            with pytest.raises(ValueError):
                bad.result(timeout=30)
            assert service.result_store_entries == 0
            with pytest.raises(ValueError):
                list(bad.stream())


# ----------------------------------------------------------------------
# accounting + shutdown
# ----------------------------------------------------------------------

class TestStatsAndShutdown:
    def test_stats_shape(self):
        with serial_service() as service:
            service.register_tenant("a", quota=2.0)
            job = service.submit(
                sweep_circuit(), POINTS, tenant="a", repetitions=8, seed=1
            )
            job.result(timeout=30)
            stats = service.stats()["a"]
            assert stats["quota"] == 2.0
            assert stats["jobs_submitted"] == 1
            assert stats["jobs_completed"] == 1
            assert stats["jobs_queued"] == 0
            assert stats["repetitions"] == 8 * len(POINTS)
            assert stats["estimated_cost"] > 0
            assert stats["queue_wait_seconds"] >= 0.0

    def test_shutdown_cancels_queued_and_is_idempotent(self):
        gate = threading.Event()

        def gated_apply(op, state):
            gate.wait(10)
            return bgls.act_on(op, state)

        service = SamplingService(
            StateVectorSimulationState(QUBITS),
            gated_apply,
            born.compute_probability_state_vector,
            executor=SerialExecutor(),
        )
        running = service.submit(
            sweep_circuit(), POINTS, tenant="a", repetitions=1, seed=1
        )
        queued = service.submit(
            sweep_circuit(), POINTS, tenant="a", repetitions=1, seed=2
        )
        gate.set()
        service.shutdown()
        service.shutdown()
        assert queued.status() == jobs_mod.CANCELLED
        assert running.status() in (jobs_mod.DONE, jobs_mod.CANCELLED)

    def test_owned_pool_manager_shut_down(self):
        service = pooled_service()
        job = service.submit(
            sweep_circuit(), POINTS, tenant="a", repetitions=8, seed=1
        )
        job.result(timeout=120)
        manager = service.executor.pool_manager
        service.shutdown()
        assert manager._pool is None
        assert live_segment_names() == []
