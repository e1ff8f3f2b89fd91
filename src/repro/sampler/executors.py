"""Where a call's seeded task list runs: in-process or on a warm pool.

The :class:`~repro.sampler.simulator.Simulator` owns the *algorithm*
(parallel-front evolution or quantum trajectories over a compiled
:class:`~repro.sampler.plan.ExecutionPlan`); an :class:`Executor` owns
only *placement*.  One task list, one in-process runner; the pool
changes only placement:

* Every call is one deterministic task list.  A ``run`` is
  :func:`_chunk_tasks`: its repetitions in seeded chunks.  A sweep or
  batch is :func:`_point_tasks`: one stream per point, or points split
  into seeded repetition sub-chunks by the scheduling mode
  (:func:`repro.sampler.schedule.schedule`).
* :meth:`Executor._stream` runs the list in-process, in task order,
  through :class:`_PointCollector`.  That loop is the reference every
  pooled run equals bit for bit.
* :class:`ProcessPoolExecutor` overrides only ``_stream``: it sends the
  list to the warm pool of a
  :class:`~repro.sampler.service.PoolManager`.  A packed initial state
  and the simulator config ship to each worker once, when the worker
  starts; each task carries its compiled unit (one plan, or one Program
  of a batch) pickled, plus ``(resolver, size, seed, ctx)`` and an
  optional result-plane slot.  One pool per (initial state, simulator
  config, pool geometry) lives across calls, whatever circuits they run;
  a caller wanting a cold pool passes its own manager and shuts it down
  after the call.
* :class:`SerialExecutor` keeps one extra contract: with ``chunks=1`` a
  ``run`` is one stream off the simulator's own RNG, exactly like the
  simulator's default.

Seeding is deterministic: with an integer simulator seed, chunk ``i`` of
a ``run`` receives ``SeedSequence([seed, i])`` and point ``p`` of a sweep
``SeedSequence([seed, p])``, regardless of pool geometry or placement, so
identically seeded runs reproduce bit-for-bit (and repeated ``run``
calls on one simulator return identical samples).

Pooled execution requires picklable components: a module-level
``apply_op`` and ``compute_probability`` (the shipped ``act_on`` and
``born`` functions qualify) and a state whose registry descriptor either
pickles directly or provides ``snapshot``/``restore`` hooks (the packed
tableau/CH backends ship raw ``uint64`` words this way).
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .requests import (
    normalize_count,
    normalize_num_workers,
    normalize_repetitions,
    require_positive_finite,
)
from .result_planes import PointPlanes, shm_available
from .schedule import (
    BatchEntry,
    ScheduledTask,
    check_mode,
    estimate_cost,
    schedule,
)
from .service import (
    _POLL_SECONDS,
    PoolManager,
    RunParts,
    _WorkerPayload,
    _base_seed,
    _chunk_seeds_from_base,
    _chunk_sizes,
    _pool_context,
    _run_task,
    _unit_ref,
    shared_pool_manager,
)


class TaskTimeoutError(RuntimeError):
    """No pool task completed within the executor's ``task_timeout``.

    Raised by the pooled drain when the completion *gap* — the time since
    the last task finished (or since submission) — exceeds
    ``ProcessPoolExecutor(task_timeout=...)``.  A running task cannot be
    cancelled, so before raising, the executor **poisons the pool**:
    worker processes are killed, the pool is torn down, and every
    in-flight shared-memory result plane is released.  The next pooled
    call rebuilds a fresh pool.
    """


class ResultTransportError(OSError):
    """The shared-memory result planes of a pooled call could not be
    allocated (e.g. ``ENOSPC`` on ``/dev/shm``).

    Raised before any task is submitted, chained from the allocation's
    ``OSError``.  The planes already made are released and the warm pool
    is left untouched, so a retry through an executor with
    ``result_transport="pickle"`` on the same pool manager reuses it.
    """


# ----------------------------------------------------------------------
# the executor interface
# ----------------------------------------------------------------------

class Executor:
    """Where a call's task list runs; this base runs it in-process.

    :meth:`execute` (a ``run``) and :meth:`execute_batch_iter` (a sweep or
    batch) build the seeded task list and hand it to :meth:`_stream`, the
    one place that decides where it runs.  The list's geometry is fixed
    at construction: a ``run`` splits into ``_workers`` seeded chunks, and
    sweeps and batches are scheduled for ``_workers`` in ``_mode``.
    """

    _workers = 1
    _mode = "fifo"

    def execute(self, simulator, plan, repetitions: int) -> RunParts:
        """Produce ``(records, bits)`` for ``repetitions`` of ``plan``: a
        one-point task list of seeded chunks (:func:`_chunk_tasks`)."""
        normalize_repetitions(repetitions)
        tasks, argses = _chunk_tasks(simulator, repetitions, self._workers)
        (parts,) = self._stream(simulator, (plan,), tasks, argses, repetitions)
        return parts

    def execute_batch_iter(
        self,
        simulator,
        programs: Sequence,
        resolvers: Sequence,
        repetitions: int,
    ) -> Iterator[RunParts]:
        """Lazily yield one ``(records, bits)`` per (program, resolver)
        point, in point order — the one hook behind every sweep and batch.

        The task list comes from :func:`_point_tasks`.  Validation and
        scheduling happen eagerly, at call time; only the execution is
        lazy.
        """
        table, tasks, argses = _point_tasks(
            simulator, programs, resolvers, repetitions, self._workers, self._mode
        )
        return self._stream(simulator, table, tasks, argses, repetitions)

    def _stream(self, simulator, units, tasks, argses, repetitions):
        """Run ``tasks`` in-process, in task order, and yield each point
        once its last chunk has run.

        ``argses[j]`` is the :func:`~repro.sampler.service._run_task`
        argument tuple of ``tasks[j]`` over the unit table ``units``.
        Units are used as they are, never pickled, and a point's chunks
        merge in chunk order.
        """
        collector = _PointCollector(tasks)
        for task, args in zip(tasks, argses):
            part = _run_task(simulator, units, *args)
            yield from collector.feed(task, part, _merge_chunks)


class SerialExecutor(Executor):
    """In-process execution, optionally in deterministic seeded chunks.

    ``chunks=1`` (default) runs a ``run`` exactly like the simulator's
    default — one stream off the simulator's own RNG.  ``chunks=k`` runs
    the base task list of ``k`` seeded chunks in-process: the output for
    a given (seed, chunk count) is bit-for-bit identical to
    :class:`ProcessPoolExecutor` with the same total chunk count.  Sweeps
    and batches run one stream per point.
    """

    def __init__(self, chunks: int = 1):
        self.chunks = self._workers = normalize_count("chunks", chunks)

    def execute(self, simulator, plan, repetitions):
        if self.chunks > 1:
            return super().execute(simulator, plan, repetitions)
        normalize_repetitions(repetitions)
        return simulator._run_plan(plan, repetitions, None)


# ----------------------------------------------------------------------
# pooled execution with one-time worker initialization and warm reuse
# ----------------------------------------------------------------------

class ProcessPoolExecutor(Executor):
    """Fan repetition chunks or whole sweep points over a process pool.

    Args:
        num_workers: Pool size, and the chunk count of a pooled ``run``;
            None (default) means ``os.cpu_count()``.  Anything below 1
            raises ``ValueError``.
        start_method: ``"fork"``, ``"forkserver"``, or ``"spawn"``.  An
            *explicitly requested* method the platform does not provide
            raises ``ValueError`` here, at construction (no silent
            substitution; see :func:`repro.sampler.service._pool_context`).  The default
            sentinel ``"auto"`` resolves to ``forkserver`` where
            available and the platform default elsewhere (Windows has
            only ``spawn``), so default-configured executors work on
            every platform.  With ``fork`` the packed state is inherited
            copy-on-write; with ``forkserver``/``spawn`` it is pickled
            once per worker as the worker's start arguments.
        pool_manager: The :class:`~repro.sampler.service.PoolManager`
            keeping the pool **warm**: consecutive calls with an
            unchanged worker payload submit straight to the
            already-initialized workers, whatever circuits they carry.
            None (default) uses the process-wide shared manager; pass a
            dedicated manager for scoped lifetimes or isolated init
            counters (a fresh one shut down after the call is a cold
            pool — same output, more startup cost).
        scheduler: How batch/sweep points map to pool tasks (see
            :func:`repro.sampler.schedule.schedule`).  ``"fifo"``
            (default) is one task per point in point order, bit-for-bit
            identical to the serial path.  ``"adaptive"`` orders tasks
            largest-first by the static cost model and splits oversized
            points into repetition chunks (seeds ``SeedSequence([seed,
            point, chunk])``, merged in chunk order) so mixed-depth
            batches keep every worker busy.  ``"stealing"`` also
            pre-splits every point so idle workers can take the tail of
            a straggler.  Any other value raises ``ValueError``.  Idle
            workers pull tasks from the pool's shared queue; the task
            list (geometry and seeds, hence the output) depends only on
            the mode.
        task_timeout: Optional liveness bound (seconds) for pooled
            execution: if no task completes for this long, the executor
            assumes a wedged worker, kills the pool (running tasks
            cannot be cancelled), releases all in-flight result planes,
            and raises :class:`TaskTimeoutError`.  It is a
            completion-*gap* bound, not a per-task or total bound — set
            it above the longest expected single task: a positive,
            finite number of seconds.  ``None`` (default) waits
            indefinitely.
        result_transport: How worker results travel back to the parent.
            ``"shm"`` writes samples into pre-allocated
            :mod:`~repro.sampler.result_planes` shared-memory segments —
            each task returns only a row count, and the parent's results
            are read-only zero-copy views over the filled planes.
            ``"pickle"`` is the documented fallback: each task returns
            its ``(records, bits)`` tuple through the pool's result
            queue.  ``"auto"`` (default) resolves to ``"shm"`` where
            ``multiprocessing.shared_memory`` works, else ``"pickle"``;
            requesting ``"shm"`` explicitly on a platform without it
            raises.  The two transports are bit-for-bit identical —
            only the number of bytes crossing the result queue changes.
            A call whose planes cannot be allocated (``/dev/shm`` full)
            raises :class:`ResultTransportError` before submitting
            anything; it releases the planes it made and leaves the warm
            pool as it was, so a retry with ``"pickle"`` reuses it.

    A ``run`` splits into ``num_workers`` chunks; given the same
    simulator seed and chunk count, :class:`SerialExecutor` produces
    bit-for-bit identical output.  Warm
    and cold pools are bit-for-bit identical too — reuse changes only
    where the startup cost is paid.

    Attributes:
        measure_result_bytes: When True, every parent↔worker result
            payload is serialized once more in the parent and its size
            accumulated into ``last_result_bytes`` — benchmark
            instrumentation for the transport comparison, off by
            default (it re-pickles results).  Reset
            ``last_result_bytes`` to 0 between measured sections.
    """

    def __init__(
        self,
        num_workers: Optional[int] = None,
        start_method: Optional[str] = "auto",
        pool_manager: Optional[PoolManager] = None,
        scheduler: str = "fifo",
        result_transport: str = "auto",
        task_timeout: Optional[float] = None,
    ):
        self.num_workers = self._workers = normalize_num_workers(num_workers)
        if start_method == "auto":
            available = multiprocessing.get_all_start_methods()
            start_method = "forkserver" if "forkserver" in available else None
        _pool_context(start_method)  # raises for an unavailable method
        self.start_method = start_method
        self._pool_manager = pool_manager
        self.scheduler = self._mode = check_mode(scheduler)
        if result_transport not in ("auto", "shm", "pickle"):
            raise ValueError(
                "result_transport must be 'auto', 'shm', or 'pickle', got "
                f"{result_transport!r}"
            )
        if result_transport == "auto":
            result_transport = "shm" if shm_available() else "pickle"
        elif result_transport == "shm" and not shm_available():
            raise ValueError(
                "result_transport='shm' requested but shared memory is not "
                "functional on this platform; use 'pickle' or 'auto'."
            )
        self.result_transport = result_transport
        if task_timeout is not None:
            require_positive_finite("task_timeout", task_timeout)
        self.task_timeout = task_timeout
        self.measure_result_bytes = False
        self.last_result_bytes = 0

    @property
    def pool_manager(self) -> PoolManager:
        """The manager owning this executor's warm pool."""
        if self._pool_manager is None:
            self._pool_manager = shared_pool_manager()
        return self._pool_manager

    def _record_result_bytes(self, payload) -> None:
        """Accumulate the pickled size of a result payload (bench probe)."""
        if self.measure_result_bytes:
            self.last_result_bytes += len(
                pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            )

    def _stream(self, simulator, units, tasks, argses, repetitions):
        """Send ``tasks`` to the warm pool as one run and yield one
        ``(records, bits)`` per point, in point order.

        With one worker (or one task) the list runs in the base's
        in-process loop instead.  Otherwise idle workers pull the next
        task from the pool's shared queue; the drain below collects
        results in completion order, and :class:`_PointCollector`
        releases points in point order (chunks merge by chunk index,
        never by arrival).  Each task carries its unit, so a fresh
        ensemble runs on the warm workers, which keep recent units
        unpickled.  Shared-memory transport allocates one
        :class:`~repro.sampler.result_planes.PointPlanes` per point (row
        bands from the deterministic chunk geometry) and turns each
        finished point into zero-copy views; pickle transport merges the
        returned chunk tuples.

        Error paths: an abandoned iterator (``close()``) closes its run —
        workers skip the leftovers, the warm pool stays — and releases
        every unviewed plane; a task failure or dead worker also shuts the
        pool down, and a completion gap exceeding ``task_timeout`` kills
        it and raises :class:`TaskTimeoutError`.  Planes are allocated
        before anything is submitted; failing that raises
        :class:`ResultTransportError` with the pool untouched.
        """
        if self.num_workers == 1 or len(tasks) <= 1:
            yield from super()._stream(simulator, units, tasks, argses, repetitions)
            return
        collector = _PointCollector(tasks)
        # Each distinct unit is pickled once; every task carries it.
        refs = [_unit_ref(unit) for unit in units]
        shm = self.result_transport == "shm"
        planes = _allocate_planes(units, tasks, repetitions) if shm else {}
        manager = self.pool_manager
        run = None

        def finalize(point, chunks):
            if shm:
                return planes.pop(point).views()
            return _merge_chunks(point, chunks)

        try:
            if shm:
                argses = [
                    args
                    + (planes[task.point_index].slot(_row_offset(task, repetitions)),)
                    for task, args in zip(tasks, argses)
                ]
            run = manager.submit(
                _WorkerPayload(simulator),
                self.num_workers,
                self.start_method,
                [(refs[args[0]], args) for args in argses],
                planes=tuple(planes.values()),
            )
            received = 0
            last_completion = time.monotonic()
            while received < len(tasks):
                # Raises when a worker died or the pool went away.
                result = manager.receive(run, _POLL_SECONDS)
                if result is None:
                    gap = time.monotonic() - last_completion
                    if self.task_timeout is not None and gap > self.task_timeout:
                        raise TaskTimeoutError(
                            "no pool task completed within task_timeout="
                            f"{self.task_timeout}s ({len(tasks) - received} "
                            f"of {len(tasks)} tasks outstanding); killing "
                            "the worker pool"
                        )
                    continue
                last_completion = time.monotonic()
                task_id, error, payload = result
                if error is not None:
                    raise error
                self._record_result_bytes(payload)
                received += 1
                yield from collector.feed(tasks[task_id], payload, finalize)
        except BaseException as exc:
            # Closed first, so workers skip the run's leftovers.
            if run is not None:
                manager.close(run)
            if isinstance(exc, TaskTimeoutError):
                manager.terminate()
            elif not isinstance(exc, GeneratorExit):
                # A failed task may have poisoned the pool: shut it down
                # (which also releases its adopted planes) before
                # propagating.
                manager.shutdown()
            raise
        finally:
            if run is not None:
                manager.close(run)
            for plane in planes.values():
                plane.release()


def _allocate_planes(units, tasks, repetitions) -> Dict[int, PointPlanes]:
    """One shared-memory result plane per point of ``tasks``.

    All-or-nothing: when an allocation fails, the planes already made
    are released and :class:`ResultTransportError` is raised, chained
    from the ``OSError``.
    """
    planes: Dict[int, PointPlanes] = {}
    try:
        for task in tasks:
            if task.point_index not in planes:
                unit = units[task.program_index]
                planes[task.point_index] = PointPlanes(
                    unit.key_axes, unit.num_qubits, repetitions
                )
    except OSError as exc:
        for plane in planes.values():
            plane.release()
        raise ResultTransportError(
            f"could not allocate shared-memory result planes ({exc}); "
            'use result_transport="pickle" to return results through the '
            "pool's result queue"
        ) from exc
    return planes


def _merge_chunks(point, chunks) -> RunParts:
    """Concatenate one point's ``(chunk_index, (records, bits))`` pairs in
    chunk order."""
    parts = [part for _, part in sorted(chunks, key=lambda c: c[0])]
    if len(parts) == 1:
        return parts[0]
    records = {
        key: np.concatenate([rec[key] for rec, _ in parts], axis=0)
        for key in parts[0][0]
    }
    return records, np.concatenate([bits for _, bits in parts], axis=0)


def _chunk_tasks(simulator, repetitions, num_chunks):
    """The one-point task list of a ``run``.

    ``repetitions`` split into at most ``num_chunks`` near-equal chunks;
    chunk ``i`` draws from its chunk seed (``SeedSequence([seed, i])``)
    and its batched-engine anchor ``(seed, 0, rep_base)`` offsets
    ``rep_base`` by the chunk's starting row — so output is a pure
    function of (seed, chunk count), invariant under worker count and
    placement.  Returns ``(tasks, argses)`` over the one-unit table
    ``(plan,)``.
    """
    sizes = _chunk_sizes(repetitions, num_chunks)
    base = _base_seed(simulator.seed)
    tasks = [
        ScheduledTask(0, 0, None, chunk, len(sizes), size)
        for chunk, size in enumerate(sizes)
    ]
    argses = [
        (0, None, task.repetitions, seed, (base, 0, _row_offset(task, repetitions)))
        for task, seed in zip(tasks, _chunk_seeds_from_base(base, len(sizes)))
    ]
    return tasks, argses


def _point_tasks(
    simulator, programs, resolvers, repetitions: int, num_workers: int, mode: str
):
    """The one task builder of every sweep and batch.

    Dedupes ``programs`` by identity into the unit table (a batch
    repeating a circuit — the Program cache returns the same object —
    pickles each distinct Program once), costs every (program, resolver)
    point, and schedules the points for ``num_workers`` in ``mode``
    (:func:`repro.sampler.schedule.schedule`): ``"fifo"`` is one task per
    point in point order.  Returns ``(table, tasks, argses)``, where
    ``argses[j]`` is the :func:`~repro.sampler.service._run_task`
    argument tuple of ``tasks[j]`` (see :func:`_task_args`).
    """
    programs = list(programs)
    resolvers = list(resolvers)
    if len(programs) != len(resolvers):
        raise ValueError(
            f"Got {len(programs)} programs but {len(resolvers)} resolvers"
        )
    normalize_repetitions(repetitions)
    base = _base_seed(simulator.seed)
    table: List = []
    table_index = {}
    entries = []
    for point, (program, resolver) in enumerate(zip(programs, resolvers)):
        index = table_index.setdefault(id(program), len(table))
        if index == len(table):
            table.append(program)
        entries.append(
            BatchEntry(index, point, resolver, estimate_cost(program, repetitions))
        )
    tasks = schedule(entries, repetitions, num_workers, mode)
    argses = [_task_args(task, base, repetitions) for task in tasks]
    return tuple(table), tasks, argses


def _row_offset(task, repetitions: int) -> int:
    """A task's first repetition (row) within its point.

    0 for unsplit points, else the prefix sum of the deterministic
    near-equal chunk split.  It anchors the batched trajectory engine's
    per-repetition seed streams (``rep_base``) and places the task's rows
    in the point's result plane.
    """
    if task.num_chunks == 1:
        return 0
    return sum(_chunk_sizes(repetitions, task.num_chunks)[: task.chunk_index])


def _task_args(task, base: int, repetitions: int) -> Tuple:
    """The :func:`~repro.sampler.service._run_task` args of a scheduled task.

    Whole points (``num_chunks == 1``) draw one stream off
    ``SeedSequence([base, point])`` — the per-point seed of every sweep
    and batch, pooled or in-process, built only here.  Chunks of a split
    point draw from ``SeedSequence([base, point,
    chunk])``: a stable function of the indices alone, so the output
    never depends on worker count, submission order, or timing.
    """
    if task.num_chunks == 1:
        seed = [base, task.point_index]
    else:
        seed = [base, task.point_index, task.chunk_index]
    return (
        task.program_index,
        task.resolver,
        task.repetitions,
        seed,
        (base, task.point_index, _row_offset(task, repetitions)),
    )


class _PointCollector:
    """Completion-ordered input, point-ordered output.

    Tasks finish in any order; :meth:`feed` banks each task's payload
    under its point, finalizes a point the moment its last chunk lands,
    and releases finished points **strictly in point order** — so a
    streaming consumer sees exactly the list API's sequence, one point
    early instead of all points late.
    """

    def __init__(self, tasks):
        self._remaining: Dict[int, int] = {}
        for task in tasks:
            self._remaining[task.point_index] = (
                self._remaining.get(task.point_index, 0) + 1
            )
        self._chunks: Dict[int, List[Tuple[int, object]]] = {}
        self._ready: Dict[int, object] = {}
        self._next = 0

    def feed(self, task, payload, finalize) -> List:
        """Bank one task's payload; return the newly releasable points.

        ``finalize(point_index, [(chunk_index, payload), ...])`` turns a
        completed point's banked payloads into its ``(records, bits)``
        (merge for pickled chunks, zero-copy views for planes).
        """
        point = task.point_index
        self._chunks.setdefault(point, []).append((task.chunk_index, payload))
        self._remaining[point] -= 1
        if self._remaining[point] == 0:
            self._ready[point] = finalize(point, self._chunks.pop(point))
        out = []
        while self._next in self._ready:
            out.append(self._ready.pop(self._next))
            self._next += 1
        return out


__all__ = [
    "Executor",
    "SerialExecutor",
    "ProcessPoolExecutor",
    "PoolManager",
    "ResultTransportError",
    "TaskTimeoutError",
    "shared_pool_manager",
]
