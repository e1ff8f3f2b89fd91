"""Pluggable execution strategies: serial, chunked, and process-pooled.

The :class:`~repro.sampler.simulator.Simulator` owns the *algorithm*
(parallel-front evolution or quantum trajectories over a compiled
:class:`~repro.sampler.plan.ExecutionPlan`); an :class:`Executor` owns the
*strategy* — where and in how many pieces that algorithm runs:

* :class:`SerialExecutor` — in-process.  With ``chunks > 1`` the
  repetitions split into deterministic chunks whose RNGs derive from
  ``SeedSequence([base_seed, chunk_index])``, which makes its output
  bit-for-bit identical to a pooled run with the same chunk count — the
  executor-parity contract the test suite pins.
* :class:`ProcessPoolExecutor` — every call becomes one deterministic
  task list drained through a :class:`~repro.sampler.service.PoolManager`:
  a repetition-scope ``execute`` is a one-point batch of seeded chunks,
  a sweep or batch is whatever the configured scheduler
  (:mod:`repro.sampler.schedule`) made of its points.  The compiled units
  (one plan, or the **program table** of a heterogeneous batch), a packed
  snapshot of the initial state, and the simulator configuration ship to
  each worker exactly once through the pool *initializer*; each task then
  carries only ``(unit_index, resolver, size, seed, ctx)`` plus an
  optional result-plane slot.  By default (``reuse_pool=True``) the pool
  is **warm**: the shared manager keeps the workers alive across calls
  and re-initializes them only when the execution key — compiled units,
  initial-state payload, simulator config, pool geometry — changes.
  ``reuse_pool=False`` uses a private manager closed when the call ends.

Under the default FIFO scheduler each point is one stream seeded from
``SeedSequence([seed, index])``, making pooled output bit-for-bit
identical to a serial ``run_sweep``/``run_batch``; adaptive and
work-stealing schedulers reorder and split points into deterministic
repetition sub-chunks.  The base :class:`Executor` ``execute_sweep``
preserves each executor's own repetition geometry per point, which is
what ``run_sweep`` used before point scope existed.

Chunk seeding is deterministic: with an integer simulator seed, chunk
``i`` always receives ``SeedSequence([seed, i])`` regardless of pool
geometry or scheduling, so identically seeded runs reproduce bit-for-bit
(and repeated ``run`` calls on one simulator return identical samples).

Pooled execution requires picklable components: a module-level
``apply_op`` and ``compute_probability`` (the shipped ``act_on`` and
``born`` functions qualify) and a state whose registry descriptor either
pickles directly or provides ``snapshot``/``restore`` hooks (the packed
tableau/CH backends ship raw ``uint64`` words this way).
"""

from __future__ import annotations

import abc
import multiprocessing
import os
import pickle
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .requests import normalize_repetitions
from .result_planes import PointPlanes, shm_available
from .schedule import (
    BatchEntry,
    FifoScheduler,
    ScheduledTask,
    Scheduler,
    estimate_cost,
)
from .service import (
    _POLL_SECONDS,
    PoolManager,
    RunParts,
    _WorkerPayload,
    _base_seed,
    _chunk_seeds,
    _chunk_seeds_from_base,
    _chunk_sizes,
    _dispatch,
    _merge_parts,
    _run_task,
    execution_key,
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


# ----------------------------------------------------------------------
# the executor interface
# ----------------------------------------------------------------------

class Executor(abc.ABC):
    """Strategy object deciding where a compiled plan's repetitions run."""

    #: Whether :meth:`execute_sweep` fans whole sweep points across
    #: parallel workers (single stream per point).  Executors that leave
    #: this False run sweeps point-by-point with their own repetition
    #: geometry, exactly like ``run_sweep`` before point scope existed.
    supports_point_scope = False

    @abc.abstractmethod
    def execute(
        self,
        simulator,
        plan,
        repetitions: int,
        rng: Optional[np.random.Generator] = None,
        ctx: Optional[Tuple[int, int, int]] = None,
    ) -> RunParts:
        """Produce ``(records, bits)`` for ``repetitions`` of ``plan``.

        ``ctx = (base_seed, point_index, rep_base)`` is the batched
        trajectory engine's seeding anchor (see
        :mod:`repro.sampler.trajectory_batch`); executors offset
        ``rep_base`` per repetition chunk so batched output never
        depends on chunk geometry.  Serial mode ignores it.
        """

    def execute_sweep_iter(
        self, simulator, program, resolvers, repetitions: int
    ) -> Iterator[RunParts]:
        """Lazily yield one ``(records, bits)`` per resolver, in order.

        Default: specialize and :meth:`execute` each point with this
        executor's own repetition geometry, point ``i`` seeded from
        ``SeedSequence([seed, i])`` — identical to the pre-point-scope
        ``run_sweep`` loop, but one point at a time, so a consumer sees
        point 0 before point 1 has run.
        """
        base = _base_seed(simulator.seed)
        resolvers = list(resolvers)

        def stream():
            for index, resolver in enumerate(resolvers):
                plan = program.specialize(resolver)
                rng = np.random.default_rng(
                    np.random.SeedSequence([base, index])
                )
                yield self.execute(
                    simulator, plan, repetitions, rng=rng,
                    ctx=(base, index, 0),
                )

        return stream()

    def execute_sweep(
        self, simulator, program, resolvers, repetitions: int
    ) -> List[RunParts]:
        """One ``(records, bits)`` per resolver of a parameter sweep.

        ``list(...)`` over :meth:`execute_sweep_iter` — same geometry,
        same seeds, collected eagerly.
        """
        return list(
            self.execute_sweep_iter(simulator, program, resolvers, repetitions)
        )

    def execute_batch_iter(
        self,
        simulator,
        programs: Sequence,
        resolvers: Sequence,
        repetitions: int,
    ) -> Iterator[RunParts]:
        """Lazily yield one ``(records, bits)`` per batch entry, in order.

        Default: specialize and :meth:`execute` each entry with this
        executor's own repetition geometry, entry ``i`` seeded from
        ``SeedSequence([seed, i])`` — identical to the serial
        ``run_batch`` loop, streamed one entry at a time.
        """
        base = _base_seed(simulator.seed)
        pairs = list(zip(programs, resolvers))

        def stream():
            for index, (program, resolver) in enumerate(pairs):
                plan = program.specialize(resolver)
                rng = np.random.default_rng(
                    np.random.SeedSequence([base, index])
                )
                yield self.execute(
                    simulator, plan, repetitions, rng=rng,
                    ctx=(base, index, 0),
                )

        return stream()

    def execute_batch(
        self,
        simulator,
        programs: Sequence,
        resolvers: Sequence,
        repetitions: int,
    ) -> List[RunParts]:
        """One ``(records, bits)`` per (program, resolver) batch entry.

        ``list(...)`` over :meth:`execute_batch_iter` — same geometry,
        same seeds, collected eagerly.
        """
        return list(
            self.execute_batch_iter(simulator, programs, resolvers, repetitions)
        )


class SerialExecutor(Executor):
    """In-process execution, optionally in deterministic seeded chunks.

    ``chunks=1`` (default) runs exactly like a bare simulator — one
    stream off the simulator's own RNG.  ``chunks=k`` reproduces the
    pooled executor's chunk geometry in-process: the output for a given
    (seed, chunk count) is bit-for-bit identical to
    :class:`ProcessPoolExecutor` with the same total chunk count.
    """

    def __init__(self, chunks: int = 1):
        if chunks < 1:
            raise ValueError(f"chunks must be >= 1, got {chunks}")
        self.chunks = chunks

    def execute(self, simulator, plan, repetitions, rng=None, ctx=None):
        normalize_repetitions(repetitions)
        if self.chunks == 1:
            return _dispatch(
                simulator,
                plan,
                repetitions,
                rng if rng is not None else simulator._rng,
                ctx,
            )
        _, argses = _chunk_tasks(simulator, repetitions, self.chunks, rng, ctx)
        return _merge_parts(
            [_run_task_in_process(simulator, (plan,), args) for args in argses]
        )


# ----------------------------------------------------------------------
# pooled execution with one-time worker initialization and warm reuse
# ----------------------------------------------------------------------

class ProcessPoolExecutor(Executor):
    """Fan repetition chunks or whole sweep points over a process pool.

    Args:
        num_workers: Pool size; defaults to ``os.cpu_count()``.
        chunks_per_worker: >1 gives smaller tasks (better load balance).
        start_method: ``"fork"``, ``"forkserver"``, or ``"spawn"``.  An
            *explicitly requested* method the platform does not provide
            raises at pool construction (no silent substitution; see
            :func:`repro.sampler.service._pool_context`).  The default
            sentinel ``"auto"`` resolves to ``forkserver`` where
            available and the platform default elsewhere (Windows has
            only ``spawn``), so default-configured executors work on
            every platform.  With ``fork`` the shared units and packed
            state are inherited copy-on-write; with
            ``forkserver``/``spawn`` they are pickled once per worker by
            the initializer.
        reuse_pool: True (default) keeps the pool **warm** through a
            :class:`~repro.sampler.service.PoolManager`: consecutive
            calls with an unchanged execution key submit straight to the
            already-initialized workers.  False runs each call on a
            private manager closed when the call ends — same output,
            more startup cost.
        pool_manager: The manager owning the warm pool.  None (default)
            uses the process-wide shared manager; pass a dedicated
            :class:`~repro.sampler.service.PoolManager` for scoped
            lifetimes or isolated init counters.
        scheduler: How batch/sweep points map to pool tasks.  None
            (default) is FIFO — one task per point, submission order,
            bit-for-bit identical to the serial path.  Pass an
            :class:`~repro.sampler.schedule.AdaptiveScheduler` to order
            tasks largest-first by the static cost model and split
            oversized points into repetition sub-chunks (seeds
            ``SeedSequence([seed, point, chunk])``, merged in chunk
            order) so mixed-depth batches keep every worker busy, or a
            :class:`~repro.sampler.schedule.WorkStealingScheduler` to
            pre-split every point so idle workers can steal the tail of
            a straggler.  Every scheduler's tasks are pulled from the
            pool's shared queue by whichever worker is idle; the task
            list itself (geometry + seeds, and therefore the output) is
            exactly what the scheduler produced.
        task_timeout: Optional liveness bound (seconds) for pooled
            execution: if no task completes for this long, the executor
            assumes a wedged worker, kills the pool (running tasks
            cannot be cancelled), releases all in-flight result planes,
            and raises :class:`TaskTimeoutError`.  It is a
            completion-*gap* bound, not a per-task or total bound — set
            it above the longest expected single task.  ``None``
            (default) waits indefinitely.
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

    The total chunk count is ``num_workers * chunks_per_worker``; given
    the same simulator seed and total chunk count,
    :class:`SerialExecutor` produces bit-for-bit identical output.  Warm
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

    supports_point_scope = True

    def __init__(
        self,
        num_workers: Optional[int] = None,
        chunks_per_worker: int = 1,
        start_method: Optional[str] = "auto",
        reuse_pool: bool = True,
        pool_manager: Optional[PoolManager] = None,
        scheduler: Optional[Scheduler] = None,
        result_transport: str = "auto",
        task_timeout: Optional[float] = None,
    ):
        self.num_workers = max(1, int(num_workers or (os.cpu_count() or 1)))
        self.chunks_per_worker = max(1, int(chunks_per_worker))
        if start_method == "auto":
            available = multiprocessing.get_all_start_methods()
            start_method = "forkserver" if "forkserver" in available else None
        self.start_method = start_method
        self.reuse_pool = reuse_pool
        self._pool_manager = pool_manager
        self.scheduler = scheduler if scheduler is not None else FifoScheduler()
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
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(
                f"task_timeout must be positive or None, got {task_timeout}"
            )
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

    def execute(self, simulator, plan, repetitions, rng=None, ctx=None):
        """Run ``repetitions`` of ``plan`` as a one-point batch of
        ``num_workers * chunks_per_worker`` seeded chunks."""
        normalize_repetitions(repetitions)
        tasks, argses = _chunk_tasks(
            simulator,
            repetitions,
            self.num_workers * self.chunks_per_worker,
            rng,
            ctx,
        )
        (parts,) = self._stream(simulator, (plan,), tasks, argses, repetitions)
        return parts

    def execute_sweep_iter(self, simulator, program, resolvers, repetitions):
        """Fan whole sweep points across the (warm) pool, streaming.

        A sweep is a one-program batch: each point runs as one stream
        seeded from ``SeedSequence([seed, index])`` — bit-for-bit
        identical to a serial ``run_sweep`` — and specializes the shared
        Program inside the worker (memoized, so optimizer loops
        revisiting a point skip the param-slot rebuild).  Consecutive
        sweeps over the same compiled Program and initial-state payload
        reuse the warm workers with zero re-initializations.  Results
        stream in point order (see :meth:`execute_batch_iter`).
        """
        resolvers = list(resolvers)
        return self.execute_batch_iter(
            simulator, [program] * len(resolvers), resolvers, repetitions
        )

    def execute_batch_iter(self, simulator, programs, resolvers, repetitions):
        """Fan a (possibly heterogeneous) batch across the (warm) pool.

        The batch's distinct compiled Programs form one **program
        table** shipped to every worker by the pool initializer — the
        execution key covers the whole table, so ``run_batch`` over N
        different circuits performs **one** pool initialization instead
        of N, and repeated identical batches reuse the warm workers with
        zero re-initializations (the process-wide Program cache hands
        the manager the same table objects).  The configured scheduler
        maps entries to tasks: FIFO (default) is one task per point in
        order, bit-for-bit identical to the serial ``run_batch``;
        adaptive scheduling reorders largest-first and splits oversized
        points into deterministic repetition sub-chunks.

        Collection is **completion-ordered** (chunks merge by chunk
        index, never by arrival) and the yields are **point-ordered**:
        each point's ``(records, bits)`` is released once its last chunk
        lands and all earlier points are out.  Validation and scheduling
        happen eagerly, at call time; only the execution is lazy.
        """
        resolvers = list(resolvers)
        programs = list(programs)
        if len(programs) != len(resolvers):
            raise ValueError(
                f"Got {len(programs)} programs but {len(resolvers)} resolvers"
            )
        normalize_repetitions(repetitions)
        base = _base_seed(simulator.seed)
        # Dedupe by identity: a batch repeating a circuit (the Program
        # cache returns the same object) ships each distinct Program once.
        table: List = []
        table_index = {}
        entries = []
        backend = type(simulator.initial_state).__name__
        for point, (program, resolver) in enumerate(zip(programs, resolvers)):
            index = table_index.get(id(program))
            if index is None:
                index = len(table)
                table.append(program)
                table_index[id(program)] = index
            entries.append(
                BatchEntry(
                    index,
                    point,
                    resolver,
                    estimate_cost(program, repetitions),
                    backend=backend,
                    num_qubits=program.num_qubits,
                )
            )
        tasks = self.scheduler.schedule(entries, repetitions, self.num_workers)
        argses = [_task_args(task, base, repetitions) for task in tasks]
        return self._stream(
            simulator, tuple(table), tasks, argses, repetitions, entries
        )

    def _stream(self, simulator, units, tasks, argses, repetitions, entries=()):
        """Run ``tasks`` and yield one ``(records, bits)`` per point.

        ``argses[j]`` is the :func:`~repro.sampler.service._run_task`
        argument tuple of ``tasks[j]`` over the unit table ``units``.
        With one worker (or one task) the tasks run in-process, in order,
        with direct arrays.  Otherwise they go to the pool as one run:
        idle workers pull the next task from the shared queue, and the
        drain below collects results in completion order and releases
        points in point order.  Shared-memory transport allocates one
        :class:`~repro.sampler.result_planes.PointPlanes` per point (row
        bands from the deterministic chunk geometry) and turns each
        finished point into zero-copy views; pickle transport merges the
        returned chunk tuples in chunk order.

        Each result's worker-side duration feeds
        :meth:`Scheduler.calibrate` (and the attached calibration table,
        flushed after a successful drain).  Error paths: an abandoned
        iterator (``close()``) closes its run — workers skip the
        leftovers, the warm pool stays — and releases every unviewed
        plane; a task failure or dead worker also shuts the pool down,
        and a completion gap exceeding ``task_timeout`` kills it and
        raises :class:`TaskTimeoutError`.
        """
        collector = _PointCollector(tasks)
        if self.num_workers == 1 or len(tasks) <= 1:
            for task, args in zip(tasks, argses):
                part = _run_task_in_process(simulator, units, args)
                yield from collector.feed(task, part, _merge_chunks)
            return
        entry_by_point = {e.point_index: e for e in entries}
        planes: Dict[int, PointPlanes] = {}
        manager = self.pool_manager if self.reuse_pool else PoolManager()
        run = None
        shm = self.result_transport == "shm"

        def finalize(point, chunks):
            if shm:
                return planes.pop(point).views()
            return _merge_chunks(point, chunks)

        try:
            if shm:
                for task in tasks:
                    if task.point_index not in planes:
                        unit = units[task.program_index]
                        planes[task.point_index] = PointPlanes(
                            unit.key_axes, unit.num_qubits, repetitions
                        )
                argses = [
                    args
                    + (planes[task.point_index].slot(_row_offset(task, repetitions)),)
                    for task, args in zip(tasks, argses)
                ]
            run = manager.submit(
                execution_key(simulator, units),
                min(self.num_workers, len(tasks)),
                self.start_method,
                lambda: _WorkerPayload(simulator, units),
                argses,
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
                task_id, seconds, error, payload = result
                if error is not None:
                    raise error
                task = tasks[task_id]
                entry = entry_by_point.get(task.point_index)
                if entry is not None:
                    self.scheduler.calibrate(
                        task.cost,
                        seconds,
                        backend=entry.backend,
                        num_qubits=entry.num_qubits,
                    )
                self._record_result_bytes(payload)
                received += 1
                yield from collector.feed(task, payload, finalize)
            calibration = getattr(self.scheduler, "calibration", None)
            if calibration is not None:
                calibration.flush()
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
            if not self.reuse_pool:
                manager.shutdown()
            for plane in planes.values():
                plane.release()


def _merge_chunks(point, chunks) -> RunParts:
    """Merge one point's ``(chunk_index, (records, bits))`` pairs."""
    return _merge_parts([part for _, part in sorted(chunks, key=lambda c: c[0])])


def _chunk_tasks(simulator, repetitions, num_chunks, rng, ctx):
    """The one-point task list of a repetition-scope run.

    ``repetitions`` split into at most ``num_chunks`` near-equal chunks;
    chunk ``i`` draws from its chunk seed (``SeedSequence([seed, i])``)
    and its batched-engine anchor offsets ``rep_base`` by the chunk's
    starting row — so output is a pure function of (seed, chunk count),
    invariant under worker count and placement.  Returns ``(tasks,
    argses)`` over the one-unit table ``(plan,)``.
    """
    sizes = _chunk_sizes(repetitions, num_chunks)
    base = _base_seed(simulator.seed if rng is None else rng)
    if ctx is None:
        ctx = (base, 0, 0)
    tasks = [
        ScheduledTask(0, 0, None, chunk, len(sizes), size, size)
        for chunk, size in enumerate(sizes)
    ]
    argses = [
        (
            0,
            None,
            task.repetitions,
            seed,
            (ctx[0], ctx[1], ctx[2] + _row_offset(task, repetitions)),
        )
        for task, seed in zip(tasks, _chunk_seeds_from_base(base, len(sizes)))
    ]
    return tasks, argses


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

    Whole points (``num_chunks == 1``) keep the serial ``run_sweep`` /
    ``run_batch`` recipe — one stream off ``SeedSequence([base, point])``
    — so unsplit scheduling is bit-for-bit identical to the serial path.
    Chunks of a split point draw from ``SeedSequence([base, point,
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


def _run_task_in_process(simulator, units, args) -> RunParts:
    """Run one task's ``args`` in the parent (single-worker fallbacks).

    The same :func:`~repro.sampler.service._run_task` body the workers
    run — same unit selection, memoized specialization and seed stream —
    so in-process fallbacks are bit-for-bit identical to the pool.
    """
    return _run_task(simulator, units, *args)


__all__ = [
    "Executor",
    "SerialExecutor",
    "ProcessPoolExecutor",
    "PoolManager",
    "TaskTimeoutError",
    "shared_pool_manager",
]
