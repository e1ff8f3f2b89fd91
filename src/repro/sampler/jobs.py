"""Sampling-as-a-service: a multi-tenant job tier over the warm pool.

Everything below the service layer is a blocking library call in one
caller's hands: ``Simulator.run_sweep`` owns its executor, the executor
owns (or shares) a :class:`~repro.sampler.service.PoolManager`.  This
module is the ROADMAP's "millions of users" tier: many independent
clients (*tenants*) submit sampling jobs against **one** warm pool, and a
single dispatcher decides what runs next so that

* tenants share fairly — per-tenant FIFO queues drained by quota-weighted
  fair share (the tenant with the least *served cost per quota unit*
  runs next; equal quotas and equal job costs degenerate to round-robin
  across tenants with jobs pending, and a higher ``quota`` buys a
  proportionally larger share),
* the pool stays warm — the pool is keyed by the service's initial
  state and simulator config only, and every job's compiled circuit
  travels with its tasks, so jobs over any mix of circuits run in plain
  fair-share order on one pool initialization,
* one bad job hurts only itself — a job that poisons the pool (a task
  failing in a worker) is marked ``FAILED``, its shared-memory result
  planes are released through the executor/manager lifecycle backstops,
  and the manager's reset path rebuilds the pool for the next job.  An
  error in the dispatcher's own bookkeeping fails the job it was
  handling, with that error, and the dispatcher serves on.

Job lifecycle: ``submit(...)`` returns a :class:`JobHandle` in state
``QUEUED``; the dispatcher moves it to ``RUNNING``, then exactly one of
``DONE`` / ``FAILED`` / ``CANCELLED``.  Results stream per sweep point:
:meth:`JobHandle.stream` yields each point's :class:`Result` the moment
it lands (riding ``run_sweep_iter``, so pooled transport stays
zero-copy), :meth:`JobHandle.result` blocks for the full list.  Finished
results live in a bounded LRU store (``max_result_entries`` /
``max_result_bytes``); once evicted, ``result()`` raises
:class:`ResultExpired` — clients that need results forever should copy
them out.

Determinism: each job runs on its own :class:`Simulator` seeded with the
job's ``seed`` (drawn at submit when not given, recorded on the handle),
so every streamed ``Result`` is bit-for-bit equal to a direct
``run_sweep`` of the same ``(circuit, params, repetitions, seed)`` —
regardless of tenant interleaving or pool resets.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict, deque
from typing import Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from .executors import ProcessPoolExecutor
from .requests import (
    normalize_count,
    normalize_num_workers,
    normalize_repetitions,
    require_positive_finite,
)
from .results import Result
from .schedule import estimate_job_cost
from .service import PoolManager
from .simulator import Simulator

#: Job states (a job visits QUEUED, then RUNNING, then one terminal state;
#: a QUEUED job cancelled before dispatch skips RUNNING).
QUEUED = "QUEUED"
RUNNING = "RUNNING"
DONE = "DONE"
FAILED = "FAILED"
CANCELLED = "CANCELLED"

_TERMINAL = (DONE, FAILED, CANCELLED)


class ResultExpired(LookupError):
    """The job finished but its results were evicted from the store.

    The service keeps finished results in a bounded LRU store
    (``max_result_entries`` / ``max_result_bytes``); under memory
    pressure the least-recently-read job's results are dropped.  The job
    handle still reports ``DONE`` — only the payload is gone.
    """


class JobCancelled(RuntimeError):
    """``result()``/``stream()`` on a job that was cancelled."""


class _Tenant:
    """One tenant's queue, quota, and accounting."""

    __slots__ = (
        "name",
        "quota",
        "queue",
        "served_cost",
        "last_served",
        "jobs_submitted",
        "jobs_completed",
        "jobs_failed",
        "jobs_cancelled",
        "repetitions",
        "estimated_cost",
        "queue_wait_seconds",
    )

    def __init__(self, name: str, quota: float):
        self.name = name
        self.quota = quota
        self.queue: "deque[JobHandle]" = deque()
        self.served_cost = 0.0
        self.last_served = -1
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.jobs_cancelled = 0
        self.repetitions = 0
        self.estimated_cost = 0
        self.queue_wait_seconds = 0.0


class JobHandle:
    """Client-side view of one submitted job.

    All mutation happens under the owning service's condition variable;
    the public methods only read state or wait on it.  ``job_id``,
    ``tenant``, ``seed``, ``repetitions``, and ``num_points`` are plain
    public attributes — ``seed`` in particular is what a client replays
    through a direct ``run_sweep`` to reproduce the job bit-for-bit.
    """

    def __init__(
        self,
        service: "SamplingService",
        job_id: str,
        tenant: str,
        circuit,
        params: List,
        repetitions: int,
        seed: int,
        cost: int,
        simulator: Simulator,
    ):
        self._service = service
        self.job_id = job_id
        self.tenant = tenant
        self.circuit = circuit
        self.params = params
        self.repetitions = repetitions
        self.seed = seed
        self.num_points = len(params)
        self.cost = cost
        self._simulator = simulator
        self._state = QUEUED
        self._results: List[Result] = []
        self._result_count: Optional[int] = None
        self._error: Optional[BaseException] = None
        self._evicted = False
        self._cancel = threading.Event()
        self._submitted = time.monotonic()
        self._nbytes = 0
        # Monotone dispatch ordinal, assigned when the dispatcher picks
        # this job; lets tests and diagnostics reconstruct fair-share
        # dispatch order after the fact.
        self._finished_seq = -1

    # -- public API --------------------------------------------------------
    def status(self) -> str:
        """The job's current state (one of the module-level constants)."""
        with self._service._cond:
            return self._state

    def exception(self) -> Optional[BaseException]:
        """The error of a ``FAILED`` job, else ``None``."""
        with self._service._cond:
            return self._error

    def result(self, timeout: Optional[float] = None) -> List[Result]:
        """Block until terminal and return the per-point ``Result`` list.

        Raises the job's own error for ``FAILED``, :class:`JobCancelled`
        for ``CANCELLED``, :class:`ResultExpired` if the finished results
        were evicted from the bounded store, and ``TimeoutError`` if the
        job is not terminal within ``timeout`` seconds.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        cond = self._service._cond
        with cond:
            while self._state not in _TERMINAL:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(
                        f"Job {self.job_id} still {self._state} after "
                        f"{timeout}s"
                    )
                cond.wait(remaining)
            return self._collect_locked()

    def stream(self) -> Iterator[Result]:
        """Yield each sweep point's :class:`Result` as soon as it lands.

        The iterator ends when the job is ``DONE`` and every point has
        been yielded; it raises like :meth:`result` for failed/cancelled
        jobs (after yielding whatever landed first).  Streaming does not
        protect the results from store eviction — a consumer that falls
        behind an evicted job gets :class:`ResultExpired` for the points
        it missed.
        """
        index = 0
        cond = self._service._cond
        while True:
            with cond:
                while True:
                    if self._evicted and index < (self._result_count or 0):
                        raise ResultExpired(
                            f"Job {self.job_id} results were evicted from "
                            "the bounded store before this stream consumed "
                            "them"
                        )
                    if index < len(self._results):
                        item = self._results[index]
                        index += 1
                        break
                    if self._state == FAILED:
                        raise self._error
                    if self._state == CANCELLED:
                        raise JobCancelled(
                            f"Job {self.job_id} was cancelled"
                        )
                    if self._state == DONE:
                        return
                    cond.wait()
            yield item

    def cancel(self) -> bool:
        """Request cancellation; ``True`` if the request was accepted.

        A ``QUEUED`` job is removed from its tenant's queue and moves to
        ``CANCELLED`` immediately.  A ``RUNNING`` job is cancelled at its
        next point boundary (best effort — a job on its last point may
        still finish ``DONE``).  Terminal jobs return ``False``.
        """
        service = self._service
        with service._cond:
            if self._state == QUEUED:
                tenant = service._tenants[self.tenant]
                try:
                    tenant.queue.remove(self)
                except ValueError:  # pragma: no cover - dispatch race
                    return False
                self._state = CANCELLED
                tenant.jobs_cancelled += 1
                service._cond.notify_all()
                return True
            if self._state == RUNNING:
                self._cancel.set()
                return True
            return False

    # -- internal ----------------------------------------------------------
    def _collect_locked(self) -> List[Result]:
        if self._state == FAILED:
            raise self._error
        if self._state == CANCELLED:
            raise JobCancelled(f"Job {self.job_id} was cancelled")
        if self._evicted:
            raise ResultExpired(
                f"Job {self.job_id} finished but its results were evicted "
                "from the bounded store (max_result_entries/max_result_bytes)"
            )
        self._service._touch_locked(self)
        return list(self._results)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"JobHandle({self.job_id!r}, tenant={self.tenant!r}, "
            f"state={self.status()})"
        )


class SamplingService:
    """Multi-tenant async sampling jobs over one shared warm pool.

    The service owns a backend configuration — ``initial_state``,
    ``apply_op``, ``compute_probability``, plus any ``Simulator`` keyword
    options — and one pooled executor (built over its own
    :class:`PoolManager` unless an ``executor`` is injected).  Each
    submitted job gets its own ``Simulator`` (its own seed) sharing that
    executor and the service's state and config, so every job reuses
    the warm workers.

    One dispatcher thread drains the tenant queues; see the module
    docstring for the fair-share semantics.  The
    service is a context manager; :meth:`shutdown` cancels queued jobs,
    joins the dispatcher, and shuts the owned pool manager down.
    """

    def __init__(
        self,
        initial_state,
        apply_op,
        compute_probability,
        *,
        executor=None,
        num_workers: Optional[int] = None,
        start_method: Optional[str] = "auto",
        max_result_entries: int = 256,
        max_result_bytes: int = 256 * 2**20,
        default_quota: float = 1.0,
        simulator_options: Optional[dict] = None,
    ):
        # NaN would never trip the eviction test, so the store would grow
        # without bound: both bounds must be integers >= 1.
        max_result_entries = normalize_count(
            "max_result_entries", max_result_entries
        )
        max_result_bytes = normalize_count("max_result_bytes", max_result_bytes)
        require_positive_finite("default_quota", default_quota)
        num_workers = normalize_num_workers(num_workers)
        self._initial_state = initial_state
        self._apply_op = apply_op
        self._compute_probability = compute_probability
        self._simulator_options = dict(simulator_options or {})
        self._owns_executor = executor is None
        if executor is None:
            executor = ProcessPoolExecutor(
                num_workers=num_workers,
                start_method=start_method,
                pool_manager=PoolManager(),
            )
        self.executor = executor
        self.max_result_entries = max_result_entries
        self.max_result_bytes = max_result_bytes
        self.default_quota = default_quota

        self._cond = threading.Condition()
        self._tenants: "OrderedDict[str, _Tenant]" = OrderedDict()
        self._store: "OrderedDict[str, JobHandle]" = OrderedDict()
        self._store_bytes = 0
        self._evictions = 0
        self._serial = itertools.count()
        self._seq = itertools.count()
        self._virtual_time = 0.0
        self._dispatcher: Optional[threading.Thread] = None
        self._shutdown = False

    # -- tenancy -----------------------------------------------------------
    def register_tenant(self, name: str, quota: float = 1.0) -> None:
        """Register (or re-weight) a tenant.

        ``quota`` scales the tenant's fair share: against a quota-1
        tenant, a quota-2 tenant's jobs are charged half their estimated
        cost in the fair-share ledger, so it gets roughly twice the
        dispatch bandwidth under contention.  Unregistered tenants are
        created on first ``submit`` with ``default_quota``.
        """
        if not name:
            raise ValueError("tenant name must be a non-empty string")
        require_positive_finite("quota", quota)
        with self._cond:
            tenant = self._tenants.get(name)
            if tenant is None:
                self._tenants[name] = _Tenant(name, float(quota))
            else:
                tenant.quota = float(quota)

    # -- submission --------------------------------------------------------
    def submit(
        self,
        circuit,
        params: Optional[Sequence] = None,
        *,
        tenant: str = "default",
        repetitions: int = 1,
        seed: Optional[int] = None,
    ) -> JobHandle:
        """Enqueue one sampling job; returns immediately with a handle.

        A job is a parameter sweep: ``params`` is one resolver per sweep
        point (``None`` means a single unresolved point, i.e. a plain
        ``run``; an empty list completes with no results).  Validation is
        eager and service-boundary-shaped: bad ``repetitions``/``seed``
        raise ``ValueError`` here, a bare backend state or an
        unmeasurable circuit raises before anything is queued.  ``seed``
        must be a non-negative integer or ``None`` (one is drawn and
        recorded on the handle), so every job is replayable.
        """
        if self._shutdown:
            raise RuntimeError("SamplingService is shut down")
        if not tenant:
            raise ValueError("tenant name must be a non-empty string")
        normalize_repetitions(repetitions)
        if seed is None:
            seed = int(np.random.SeedSequence().entropy) % 2**62
        elif not isinstance(seed, (int, np.integer)):
            raise ValueError(
                "seed must be a non-negative integer or None (the service "
                f"records one integer per job), got {type(seed).__name__}"
            )
        resolved_params = [None] if params is None else list(params)
        # The per-job simulator validates the seed at its own boundary
        # and shares the service executor (one warm pool for all jobs).
        simulator = Simulator(
            self._initial_state,
            self._apply_op,
            self._compute_probability,
            seed=int(seed),
            executor=self.executor,
            **self._simulator_options,
        )
        # Compile eagerly: bare states and uncompilable circuits fail the
        # submit call, not some later tenant's dispatch turn.
        program = simulator.compile(circuit)
        if not program.key_axes:
            raise ValueError(
                "Circuit has no measurements; add measure(...) operations "
                "before submitting a sampling job."
            )
        cost = estimate_job_cost(program, len(resolved_params), repetitions)
        with self._cond:
            if self._shutdown:
                raise RuntimeError("SamplingService is shut down")
            record = self._tenants.get(tenant)
            if record is None:
                record = _Tenant(tenant, self.default_quota)
                self._tenants[tenant] = record
            if not record.queue:
                # Start-time fair queueing with a one-job latency slack:
                # a tenant (re)entering the system joins one job-cost
                # *below* the current virtual time instead of cashing in
                # credit banked while idle.  The slack bounds queueing
                # delay for an interactive tenant at roughly the job in
                # service (instead of one full round of every backlogged
                # tenant) while leaving throughput untouched — the
                # ledger still charges the job's full cost on dispatch,
                # so a tenant submitting back-to-back re-enters at (or
                # above) the frontier and cannot compound the slack into
                # banked credit or monopolize the pool.
                record.served_cost = max(
                    record.served_cost,
                    self._virtual_time * record.quota - cost,
                )
            job_id = f"job-{next(self._serial)}"
            job = JobHandle(
                self,
                job_id,
                tenant,
                circuit,
                resolved_params,
                repetitions,
                int(seed),
                cost,
                simulator,
            )
            record.queue.append(job)
            record.jobs_submitted += 1
            record.repetitions += repetitions * max(1, len(resolved_params))
            record.estimated_cost += cost
            self._ensure_dispatcher_locked()
            self._cond.notify_all()
            return job

    # -- introspection -----------------------------------------------------
    def stats(self) -> Dict[str, Dict[str, Union[int, float]]]:
        """Per-tenant accounting: jobs, reps, cost, queue waits."""
        with self._cond:
            return {
                t.name: {
                    "quota": t.quota,
                    "jobs_submitted": t.jobs_submitted,
                    "jobs_completed": t.jobs_completed,
                    "jobs_failed": t.jobs_failed,
                    "jobs_cancelled": t.jobs_cancelled,
                    "jobs_queued": len(t.queue),
                    "repetitions": t.repetitions,
                    "estimated_cost": t.estimated_cost,
                    "queue_wait_seconds": t.queue_wait_seconds,
                }
                for t in self._tenants.values()
            }

    def pool_stats(self) -> Dict[str, int]:
        """The shared manager's ``{"inits", "reuses", "key_changes"}``."""
        manager = getattr(self.executor, "pool_manager", None)
        return dict(manager.stats) if manager is not None else {}

    @property
    def result_store_entries(self) -> int:
        with self._cond:
            return len(self._store)

    @property
    def result_store_bytes(self) -> int:
        with self._cond:
            return self._store_bytes

    @property
    def evictions(self) -> int:
        with self._cond:
            return self._evictions

    # -- lifecycle ---------------------------------------------------------
    def shutdown(self, *, cancel_pending: bool = True) -> None:
        """Stop the service: cancel queued jobs, join, release the pool.

        The running job (if any) finishes its current point stream; with
        ``cancel_pending=False`` the dispatcher first drains every queue.
        Idempotent.  The owned pool manager is shut down (workers joined,
        adopted planes released); an injected executor's manager is left
        to its owner.
        """
        with self._cond:
            self._shutdown = True
            if cancel_pending:
                for tenant in self._tenants.values():
                    while tenant.queue:
                        job = tenant.queue.popleft()
                        job._state = CANCELLED
                        tenant.jobs_cancelled += 1
            self._cond.notify_all()
            dispatcher = self._dispatcher
        if dispatcher is not None:
            dispatcher.join()
        if self._owns_executor:
            self.executor.pool_manager.shutdown()

    def __enter__(self) -> "SamplingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- dispatcher --------------------------------------------------------
    def _ensure_dispatcher_locked(self) -> None:
        if self._dispatcher is None or not self._dispatcher.is_alive():
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop,
                name="sampling-service-dispatcher",
                daemon=True,
            )
            self._dispatcher.start()

    def _select_locked(self) -> Optional[JobHandle]:
        """Pop the next job: the head of the fair-share tenant's queue.

        The tenant with the least served cost per quota unit goes next
        (ties break toward the least recently served); each tenant's
        jobs run in submission order.
        """
        candidates = [t for t in self._tenants.values() if t.queue]
        if not candidates:
            return None
        tenant = min(
            candidates,
            key=lambda t: (t.served_cost / t.quota, t.last_served, t.name),
        )
        return tenant.queue.popleft()

    def _dispatch_loop(self) -> None:
        """Run jobs until shutdown.  An error outside a job's own run
        (selection, accounting, banking) FAILs the job in hand with it —
        or, with none in hand, every queued job, so none stalls — and the
        loop serves on."""
        while True:
            job = None
            try:
                with self._cond:
                    job = self._select_locked()
                    while job is None:
                        if self._shutdown:
                            return
                        self._cond.wait()
                        job = self._select_locked()
                    tenant = self._tenants[job.tenant]
                    self._virtual_time = max(
                        self._virtual_time, tenant.served_cost / tenant.quota
                    )
                    tenant.served_cost += job.cost
                    tenant.last_served = job._finished_seq = next(self._seq)
                    job._state = RUNNING
                    tenant.queue_wait_seconds += time.monotonic() - job._submitted
                    self._cond.notify_all()
                self._run_job(job, tenant)
            except Exception as exc:
                with self._cond:
                    self._fail_locked(job, exc)

    def _fail_locked(self, job: Optional[JobHandle], error: Exception) -> None:
        jobs = [job]
        if job is None:
            jobs = [j for t in self._tenants.values() for j in t.queue]
            for tenant in self._tenants.values():
                tenant.queue.clear()
        for failed in jobs:
            if self._store.pop(failed.job_id, None) is not None:
                self._store_bytes -= failed._nbytes
            failed._state = FAILED
            failed._error = error
            self._tenants[failed.tenant].jobs_failed += 1
        self._cond.notify_all()

    def _run_job(self, job: JobHandle, tenant: _Tenant) -> None:
        error: Optional[BaseException] = None
        cancelled = False
        stream = None
        try:
            stream = job._simulator.run_sweep_iter(
                job.circuit, job.params, job.repetitions
            )
            for result in stream:
                with self._cond:
                    if job._cancel.is_set():
                        cancelled = True
                        break
                    job._results.append(result)
                    self._cond.notify_all()
        except Exception as exc:
            error = exc
        finally:
            if stream is not None and hasattr(stream, "close"):
                # Abandoned iterators (cancellation, failure) cancel
                # pending work and release their shm planes here.
                stream.close()
        with self._cond:
            if cancelled or (error is None and job._cancel.is_set()):
                job._state = CANCELLED
                job._results = []
                tenant.jobs_cancelled += 1
            elif error is not None:
                self._fail_locked(job, error)
            else:
                self._bank_locked(job)
                job._state = DONE
                job._result_count = len(job._results)
                tenant.jobs_completed += 1
            self._cond.notify_all()

    # -- bounded result store ----------------------------------------------
    @staticmethod
    def _result_nbytes(results: List[Result]) -> int:
        return sum(
            sum(int(arr.nbytes) for arr in result.measurements.values())
            for result in results
        )

    def _bank_locked(self, job: JobHandle) -> None:
        job._nbytes = self._result_nbytes(job._results)
        self._store[job.job_id] = job
        self._store_bytes += job._nbytes
        # Evict least-recently-read finished jobs past either budget.
        # The newest entry is always admitted (even a single oversized
        # job), so a fresh result can never be evicted by its own
        # arrival alone.
        while len(self._store) > 1 and (
            len(self._store) > self.max_result_entries
            or self._store_bytes > self.max_result_bytes
        ):
            _, victim = self._store.popitem(last=False)
            self._store_bytes -= victim._nbytes
            victim._evicted = True
            victim._results = []
            self._evictions += 1

    def _touch_locked(self, job: JobHandle) -> None:
        if job.job_id in self._store:
            self._store.move_to_end(job.job_id)


__all__ = [
    "CANCELLED",
    "DONE",
    "FAILED",
    "JobCancelled",
    "JobHandle",
    "QUEUED",
    "RUNNING",
    "ResultExpired",
    "SamplingService",
]
