"""Warm-pool execution service: persistent workers across sampling calls.

Every pooled call — a one-point ``run``, a sweep, or a heterogeneous
batch — is one contract: a deterministic task list that may run on any
worker.  This module runs it:

* :class:`PoolManager` keeps one process pool per (worker payload, pool
  geometry) alive across calls.  The :class:`_WorkerPayload` is the one
  record of what a worker is built from — the initial state (the
  registry ``snapshot`` payload where declared, the object otherwise)
  and the simulator config — and :meth:`_WorkerPayload.key` derives the
  pool key from exactly those fields.  Compiled units (Programs or
  specialized plans) travel with the tasks, so a fresh circuit ensemble
  runs on the warm workers.
* The workers are plain processes the manager starts, each running one
  :func:`_pull_tasks` loop for its whole life; a reaper thread per pool
  joins them as they exit (:class:`_Pool`).  :meth:`PoolManager.submit`
  is the one dispatch entry: it puts ``(run_id, task_id, unit_ref,
  args)`` items on the pool's shared task queue; idle workers pull the
  next one, run the one task body :func:`_run_task`, and report
  ``(run_id, task_id, error, payload)`` on the shared result queue.
  Placement is dynamic; the task list (geometry and seeds) is whatever
  the caller built, so output never depends on which worker ran what.
  Results are routed by run id, so several runs (threads) can share one
  pool, and closing an abandoned run (:meth:`PoolManager.close`) makes
  workers skip its leftover items without tearing the warm pool down.
* :func:`shared_pool_manager` is the default process-wide manager of
  every ``ProcessPoolExecutor`` not given its own; it is shut down
  automatically at interpreter exit (``atexit``), and :class:`PoolManager`
  doubles as a context manager for scoped lifetimes.  ``shutdown()``
  joins every worker, so no child processes outlive the manager.

Determinism contracts (pinned by ``tests/test_pool_service.py``):

* a task's generator is ``default_rng(seed)`` with the seed carried in the
  task itself: chunk ``i`` of a ``run`` gets the first word of
  ``SeedSequence([seed, i])``, a whole sweep/batch point ``[base,
  point]`` and chunk ``c`` of a split point ``[base, point, chunk]`` — so
  warm, cold, serial, pooled and in-process runs of equal geometry are
  bit-for-bit identical;
* batched trajectory mode (``trajectory_mode="batched"``) anchors
  trajectory ``r`` of point ``p`` to ``SeedSequence([base, p, rep_base +
  r])``, where ``rep_base`` is the task's global repetition offset (the
  prefix sum of earlier chunks) — pooled batched output is a pure
  function of the global repetition index, invariant to worker count and
  chunk geometry (``tests/test_trajectory_batch.py``);
* the initial state is treated as immutable (the sampler only ever copies
  it); mutating it in place between calls is outside the contract.
"""

from __future__ import annotations

import atexit
import collections
import hashlib
import multiprocessing
import os
import pickle
import queue as _queue
import threading
import weakref
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..states.registry import capabilities_for
from .result_planes import write_chunk_to_slot

RunParts = Tuple[Dict[str, np.ndarray], np.ndarray]


# ----------------------------------------------------------------------
# chunk geometry and deterministic seeding (shared by every strategy)
# ----------------------------------------------------------------------

def _chunk_sizes(repetitions: int, num_chunks: int) -> List[int]:
    """Split ``repetitions`` into at most ``num_chunks`` near-equal parts.

    ``repetitions == 0`` yields no chunks (``[]``) rather than dividing
    by the zero-clamped chunk count; negative repetitions and a
    non-positive ``num_chunks`` are caller errors and raise ``ValueError``
    naming the offending argument (the service tier feeds this geometry
    straight off user input).
    """
    if repetitions < 0:
        raise ValueError(f"repetitions must be >= 0, got {repetitions}")
    if num_chunks < 1:
        raise ValueError(f"num_chunks must be >= 1, got {num_chunks}")
    if repetitions == 0:
        return []
    num_chunks = min(num_chunks, repetitions)
    base, extra = divmod(repetitions, num_chunks)
    return [base + (1 if i < extra else 0) for i in range(num_chunks)]


def _chunk_seeds_from_base(base: int, num_chunks: int) -> List[int]:
    """Per-chunk seeds derived deterministically from the integer base.

    Chunk ``i`` receives the first word of ``SeedSequence([base, i])`` —
    a stable function of the base and the chunk *index* alone, so
    identically seeded runs hand every chunk the same stream, streams of
    different chunks are statistically independent, and chunk ``i``'s
    seed does not shift when the total chunk count changes.  ``base`` is
    :func:`_base_seed` of the user seed, also the batched engine's ctx
    anchor.
    """
    return [
        int(np.random.SeedSequence([base, i]).generate_state(1, np.uint64)[0])
        >> 2
        for i in range(num_chunks)
    ]


def _base_seed(seed: Union[int, np.random.Generator, None]) -> int:
    """Collapse a user seed argument to one non-negative integer base.

    A negative integer seed would surface much later as an opaque NumPy
    error from ``SeedSequence([base, i])`` inside a worker, so it is
    rejected here (the backstop behind the ``Simulator`` constructor's
    own boundary check) with a ``ValueError`` naming ``seed``.
    """
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(2**62))
    if seed is None:
        return int(np.random.SeedSequence().entropy) % 2**62
    base = int(seed)
    if base < 0:
        raise ValueError(f"seed must be non-negative, got seed={base}")
    return base


def _main_is_importable() -> bool:
    """Whether ``__main__`` can be re-imported by a forkserver/spawn child.

    Both start methods replay the parent's ``__main__`` from its file
    path; interactive sessions and stdin scripts have none (or a
    placeholder like ``<stdin>``), which kills the worker at startup.
    """
    import sys

    main = sys.modules.get("__main__")
    path = getattr(main, "__file__", None)
    return path is not None and os.path.exists(path)


def _pool_context(start_method: Optional[str]):
    """A multiprocessing context for the requested start method.

    A requested method that the platform does not provide raises a
    ``ValueError`` naming it and the available alternatives — silently
    substituting a different method would mask platform differences (a
    ``forkserver`` config "passing" on a fork-only box tests nothing).
    The one deliberate substitution that remains: ``forkserver``/``spawn``
    fall back to ``fork`` (when available) if ``__main__`` cannot be
    re-imported (REPL / stdin parents), because those methods *cannot*
    work there at all.  ``None`` selects ``fork`` when available, else the
    platform default.
    """
    available = multiprocessing.get_all_start_methods()
    if start_method is not None and start_method not in available:
        raise ValueError(
            f"Start method {start_method!r} is not available on this "
            f"platform (available: {', '.join(available)}); pass one of "
            "those or start_method=None for the platform default."
        )
    if (
        start_method in ("forkserver", "spawn")
        and "fork" in available
        and not _main_is_importable()
    ):
        return multiprocessing.get_context("fork")
    if start_method is not None:
        return multiprocessing.get_context(start_method)
    if "fork" in available:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


# ----------------------------------------------------------------------
# worker-side plumbing: payload shipped once, one task body
# ----------------------------------------------------------------------

class _WorkerPayload:
    """Everything a pool worker needs for its whole life, shipped once.

    The initial state travels as its registry ``snapshot`` payload when
    its type registered one (restored via the matching ``restore`` hook;
    hooks are exact-type, so a subclass is pickled and the worker state
    keeps the subclass type), else as the state object itself; either
    way it is pickled once per *worker* as the worker's Process args —
    never per task.  Compiled units ride the tasks instead (:func:`_unit_ref`).
    """

    __slots__ = (
        "state_payload",
        "restore",
        "apply_op",
        "compute_probability",
        "user_candidates",
        "skip_diagonal_updates",
        "trajectory_mode",
    )

    def __init__(self, simulator):
        caps = capabilities_for(type(simulator.initial_state))
        if caps.snapshot is not None:
            self.state_payload = _snapshot_payload(
                simulator.initial_state, caps
            )
            self.restore = caps.restore
        else:
            self.state_payload = simulator.initial_state
            self.restore = None
        self.apply_op = simulator.apply_op
        self.compute_probability = simulator.compute_probability
        self.user_candidates = simulator.user_candidate_function
        self.skip_diagonal_updates = simulator.skip_diagonal_updates
        self.trajectory_mode = simulator.trajectory_mode

    def key(self) -> Tuple:
        """The warm-pool reuse key: every field this payload ships.

        A snapshot-backed state keys on its payload *content* (two
        equal-content states share a warm pool); any other state keys on
        object identity.  Identity is safe from id-reuse aliasing because
        the manager holds the payload — and therefore the state — alive
        for as long as its key is current.
        """
        fields = [getattr(self, name) for name in self.__slots__]
        if self.restore is None:
            fields[0] = id(self.state_payload)
        return tuple(fields)

    def build_simulator(self):
        from .simulator import Simulator

        state = (
            self.restore(self.state_payload)
            if self.restore is not None
            else self.state_payload
        )
        return Simulator(
            state,
            self.apply_op,
            self.compute_probability,
            compute_candidate_probabilities=self.user_candidates,
            skip_diagonal_updates=self.skip_diagonal_updates,
            trajectory_mode=self.trajectory_mode,
        )


#: Size of the shared ring of closed run ids (``cancelled[id % size] ==
#: id`` marks run ``id`` closed).  Only leftovers of a closed run are
#: skipped, so a slot reused by a much later run costs at most some
#: wasted work whose results are dropped anyway.
_RUN_SLOTS = 64

#: How many unpickled units a worker keeps, least recently used first out.
_UNIT_CACHE_SIZE = 64
_UNITS: "collections.OrderedDict[bytes, object]" = collections.OrderedDict()


def _unit_ref(unit) -> Tuple[bytes, bytes]:
    """``(unit_key, blob)``: a unit pickled for a task, keyed by digest
    (so a key can never name a stale unit of an earlier run)."""
    blob = pickle.dumps(unit, protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.blake2b(blob, digest_size=16).digest(), blob


def _load_unit(unit_key: bytes, blob: bytes):
    """The unit a task names, unpickled at most once per cache stay."""
    unit = _UNITS.pop(unit_key, None)
    if unit is None:
        unit = pickle.loads(blob)
    _UNITS[unit_key] = unit
    if len(_UNITS) > _UNIT_CACHE_SIZE:
        _UNITS.popitem(last=False)
    return unit


def _run_task(
    simulator,
    units: Sequence,
    unit_index: int,
    resolver,
    size: int,
    seed,
    ctx: Tuple[int, int, int],
    slot=None,
):
    """The one task body, pooled or in-process.

    Specializes ``units[unit_index]`` for ``resolver`` (memoized — revisited
    grid points skip the rebuild) and runs ``size`` repetitions off
    ``default_rng(seed)``: the seed is carried by the task itself (a chunk
    seed, or ``[base, point(, chunk)]``).  ``ctx = (base, point,
    rep_base)`` anchors the batched trajectory engine, ``rep_base`` being
    the task's global repetition offset within its point.  Without a
    ``slot`` the payload is the ``(records, bits)`` tuple itself; with a
    shared-memory slot descriptor the samples land in the parent's result
    plane at that row band and only the row count comes back.
    """
    plan = units[unit_index].specialize(resolver)
    records, bits = simulator._run_plan(
        plan, size, np.random.default_rng(seed), ctx
    )
    if slot is None:
        return records, bits
    return write_chunk_to_slot(plan, slot, records, bits)


def _picklable_error(exc: BaseException) -> BaseException:
    """An exception safe to send through a multiprocessing queue.

    An unpicklable exception would kill the queue's feeder thread
    silently and the parent would never hear about the failure, so probe
    the pickle round-trip here and degrade to a RuntimeError carrying the
    repr."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(
            f"pool task failed with unpicklable "
            f"{type(exc).__name__}: {exc!r}"
        )


def _pull_tasks(
    payload: _WorkerPayload, task_queue, result_queue, cancelled
) -> None:
    """A pool worker's whole life: build the simulator, then pull
    ``(run_id, task_id, unit_ref, args)`` items (whichever idle worker
    gets there first), skip those of closed runs, run :func:`_run_task`
    on the item's own unit, and report ``(run_id, task_id, error,
    payload)`` — task errors too, never raised.  A ``None`` sentinel, one
    per worker and enqueued only when the pool is released, ends it.
    """
    simulator = payload.build_simulator()
    while True:
        item = task_queue.get()
        if item is None:
            return
        run_id, task_id, unit_ref, args = item
        if cancelled[run_id % _RUN_SLOTS] == run_id:
            continue
        error = None
        payload = None
        try:
            # The task's unit, under the index it has in the parent's table.
            units = {args[0]: _load_unit(*unit_ref)}
            payload = _run_task(simulator, units, *args)
        except BaseException as exc:
            error = _picklable_error(exc)
        result_queue.put((run_id, task_id, error, payload))


# Snapshot payloads memoized per state object: building the worker payload
# on every pooled call must not re-serialize the state each time.  Keyed
# weakly — a collected state drops its entry — and sound because the
# initial state is immutable by contract while in sampler hands (the
# sampler only ever copies it).
_SNAPSHOT_CACHE: "weakref.WeakKeyDictionary[object, Tuple]" = (
    weakref.WeakKeyDictionary()
)


def _snapshot_payload(state, caps) -> Tuple:
    """``caps.snapshot(state)``, computed once per state object."""
    try:
        payload = _SNAPSHOT_CACHE.get(state)
    except TypeError:  # unhashable/unweakrefable state: just recompute
        return caps.snapshot(state)
    if payload is None:
        payload = caps.snapshot(state)
        try:
            _SNAPSHOT_CACHE[state] = payload
        except TypeError:  # pragma: no cover - unweakrefable state
            pass
    return payload


# ----------------------------------------------------------------------
# the warm pool itself
# ----------------------------------------------------------------------

class _Pool:
    """One generation of workers, their channels, and their reaper thread.

    Each worker is a plain process running :func:`_pull_tasks`; the
    channels ``(task_queue, result_queue, cancelled)`` ride its Process
    args, the one place queues and shared arrays are picklable.  The
    reaper joins each worker as it exits.  A worker exiting before
    :meth:`release` asked it to (or with an error) loses the pool:
    ``lost`` is set before that worker is reaped, so whoever sees its pid
    gone sees the flag, and the others are killed — one may be blocked
    on a queue lock the dead worker held.  The reaper is no daemon: once
    the main thread has ended (interpreter exit, or the end of a worker
    process that built a pool of its own) it releases the pool itself.
    """

    def __init__(self, ctx, payload: _WorkerPayload, num_workers: int):
        self.channels = (ctx.Queue(), ctx.Queue(), ctx.RawArray("q", _RUN_SLOTS))
        # Undelivered items (tasks for dead workers, a closed run's
        # leftovers) must not block this process's exit on a feeder.
        for q in self.channels[:2]:
            q.cancel_join_thread()
        self.lost = threading.Event()
        self.stopping = self.closed = False
        # While stopping, the reaper drains results (a full result pipe
        # blocks a worker's exit) through ``route``, else drops them.
        self.route = None
        self.workers = []
        try:
            for _ in range(num_workers):
                worker = ctx.Process(
                    target=_pull_tasks, args=(payload, *self.channels)
                )
                worker.start()
                self.workers.append(worker)
            self.reaper = threading.Thread(target=self._reap, daemon=False)
            self.reaper.start()
        except BaseException:
            self.kill()
            raise

    def kill(self) -> None:
        self.lost.set()
        for worker in self.workers:
            worker.kill()

    def release(self) -> None:
        """Send each worker one sentinel, once: it finishes the tasks
        queued ahead of it and exits."""
        if not self.stopping:
            self.stopping = True
            for _ in self.workers:
                self.channels[0].put(None)

    def _reap(self) -> None:
        from multiprocessing.connection import wait

        pending = {worker.sentinel: worker for worker in self.workers}
        main = threading.main_thread()
        while pending:
            if not main.is_alive():
                self.release()
            while self.stopping and self._drain_one():
                pass
            timeout = _POLL_SECONDS / 10 if self.stopping else _POLL_SECONDS
            for sentinel in wait(list(pending), timeout):
                worker = pending.pop(sentinel)
                if not self.stopping:
                    self.lost.set()
                worker.join()
                if self.lost.is_set() or worker.exitcode:
                    self.kill()

    def _drain_one(self) -> bool:
        """Move one waiting result off the result queue; False if none."""
        if self.route is not None:
            return self.route(self.channels[1])
        try:
            self.channels[1].get_nowait()
        except _queue.Empty:
            return False
        return True


class _Run:
    """One submitted task list: its id, its pool, and the results another
    reader routed to its ``inbox``."""

    __slots__ = ("id", "pool", "inbox")

    def __init__(self, run_id: int, pool: _Pool):
        self.id = run_id
        self.pool = pool
        self.inbox: collections.deque = collections.deque()


class PoolManager:
    """Owns one process pool and reuses its initialized workers.

    The manager lazily starts a pool for the first worker payload it sees
    and keeps it warm: subsequent calls whose payload and geometry key
    equal (:meth:`_WorkerPayload.key`) submit straight to the live
    workers (``stats["reuses"]``) whatever circuits they carry, while a
    different key — new initial-state payload, changed simulator config
    or pool geometry — or a dead worker (even an idle one) shuts the old
    pool down cleanly and starts a fresh one (``stats["key_changes"]`` +
    ``stats["inits"]``).

    Lifecycle: use as a context manager, call :meth:`shutdown` (joins
    every worker; idempotent; the next call starts a new pool), or rely
    on the shared manager's ``atexit`` hook.  A manager nobody shuts down
    lets its workers go when it is collected or the main thread ends.
    The executor shuts the pool down on any task failure, so a poisoned
    pool is never reused.
    """

    def __init__(self):
        self._pool: Optional[_Pool] = None
        self._key: Optional[Tuple] = None
        self._payload: Optional[_WorkerPayload] = None
        self._last_pids: List[int] = []
        # Ensure + enqueue are atomic, so another thread's key change
        # cannot shut the pool down in between.  Concurrent different-key
        # callers therefore alternate rebuilds: give them their own managers.
        self._lock = threading.RLock()
        # One reader of the shared result queue at a time; results of
        # other live runs are routed to their inboxes.
        self._recv_lock = threading.Lock()
        self._runs: Dict[int, _Run] = {}
        self._next_run = 0
        # Shared-memory result planes in flight on this pool: a pool
        # shutdown unlinks every one not yet retired (viewed or released),
        # so no segment survives a pool reset.  Retired planes fall out.
        self._planes: "weakref.WeakSet" = weakref.WeakSet()
        self.stats = {"inits": 0, "reuses": 0, "key_changes": 0}

    # -- lifecycle ---------------------------------------------------------
    def worker_pids(self) -> List[int]:
        """PIDs of the current pool's workers (last pool's if shut down)."""
        if self._pool is not None:
            return sorted(worker.pid for worker in self._pool.workers)
        return list(self._last_pids)

    def shutdown(self) -> None:
        """Join all workers and drop the pool; idempotent, reusable after.

        Each worker gets a sentinel and first finishes every queued task
        of a live run (closed runs' leftovers are skipped); the reaper
        routes their results to the live runs' inboxes meanwhile.  A pool
        that lost a worker was killed instead.  Also the segment backstop:
        any adopted, still-live shared-memory result plane is released
        once the workers are gone (no in-flight task writes to an
        already-unlinked name).
        """
        with self._lock:
            pool, self._pool = self._pool, None
            self._key = None
            self._payload = None
            if pool is not None:
                self._last_pids = sorted(worker.pid for worker in pool.workers)
                self._release_on_gc.detach()
                pool.route = self._route
                pool.release()
                pool.reaper.join()
                while pool._drain_one():
                    pass
                with self._recv_lock:  # no receive() is reading them
                    pool.closed = True
                    for q in pool.channels[:2]:
                        q.close()
            planes, self._planes = list(self._planes), weakref.WeakSet()
            for plane in planes:
                plane.release()

    def terminate(self) -> None:
        """Kill the pool's workers, then clean up as :meth:`shutdown`.

        The escalation path for a *wedged* pool, whose hung task would
        block ``shutdown`` forever: the task-timeout path takes it.
        """
        with self._lock:
            if self._pool is not None:
                self._pool.kill()
            self.shutdown()

    def __enter__(self) -> "PoolManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- execution ---------------------------------------------------------
    def submit(
        self,
        payload: _WorkerPayload,
        num_workers: int,
        start_method: Optional[str],
        tasks: Sequence[Tuple],
        planes: Sequence = (),
    ) -> _Run:
        """Queue one task list on the (warm) pool; return its run handle.

        The pool is the warm one when ``payload``'s key and the geometry
        match it, else a fresh pool of ``num_workers`` workers built from
        ``payload``.  Every ``(unit_ref, args)`` task becomes a ``(run_id,
        task_id, unit_ref, args)`` item on the pool's shared task queue.
        ``num_workers`` is the pool's size and part of its key, so a batch
        with fewer tasks than workers reuses the warm pool.  The caller
        drains ``len(tasks)`` results with :meth:`receive` and then passes
        the run to :meth:`close` — also when it abandons the run early,
        which makes workers skip its leftover items.

        ``planes`` are this run's shared-memory result planes: the manager
        **adopts** them, so a shutdown of this pool (poisoned pool, key
        change, explicit reset) before a plane is retired releases it.
        Adoption happens after :meth:`_ensure`, so a rebuild tears the
        *previous* pool down without touching this call's fresh planes.
        """
        with self._lock:
            pool = self._ensure(payload, num_workers, start_method)
            self._planes.update(planes)
            self._next_run += 1
            run = _Run(self._next_run, pool)
            # Registered before any item is queued: another reader must
            # route (not drop) this run's first results.
            with self._recv_lock:
                self._runs[run.id] = run
            for task_id, (unit_ref, args) in enumerate(tasks):
                pool.channels[0].put((run.id, task_id, unit_ref, args))
            return run

    def receive(self, run: _Run, timeout: float) -> Optional[Tuple]:
        """The next ``(task_id, error, payload)`` of ``run``.

        Waits at most ``timeout`` seconds; returns None when nothing for
        this run arrived in that window (a result of another live run is
        routed to that run's inbox, one of a closed run is dropped).
        Raises once the run can no longer complete: ``BrokenProcessPool``
        when a worker of its pool died, or ``RuntimeError`` when the pool
        was shut down under it.
        """
        with self._recv_lock:
            if run.inbox:
                return run.inbox.popleft()
            if not run.pool.closed:
                try:
                    item = run.pool.channels[1].get(timeout=timeout)
                except _queue.Empty:
                    item = None
                if item is not None and item[0] == run.id:
                    return item[1:]
                if item is not None:
                    self._deliver(item)
            orphaned = run.pool.closed and not run.inbox
        if run.pool.lost.is_set():
            from concurrent.futures.process import BrokenProcessPool

            raise BrokenProcessPool(
                "a worker process died; the pool is not usable anymore"
            )
        if orphaned:
            raise RuntimeError(
                "the worker pool was shut down while this run was in flight"
            )
        return None

    def close(self, run: _Run) -> None:
        """Retire ``run``: workers skip its leftovers, late results drop.

        Idempotent; called when a run completes, fails, or is abandoned.
        """
        run.pool.channels[2][run.id % _RUN_SLOTS] = run.id
        with self._recv_lock:
            self._runs.pop(run.id, None)
            run.inbox.clear()

    def _route(self, results) -> bool:
        """Move one waiting result to its run's inbox; False if none."""
        with self._recv_lock:
            try:
                item = results.get_nowait()
            except _queue.Empty:
                return False
            self._deliver(item)
            return True

    def _deliver(self, item: Tuple) -> None:
        owner = self._runs.get(item[0])
        if owner is not None:
            owner.inbox.append(item[1:])

    def _ensure(self, payload, num_workers, start_method) -> _Pool:
        full_key = (payload.key(), num_workers, start_method)
        if self._pool is not None:
            # A worker that died between calls loses the pool (is_alive
            # sees a death the reaper has not): rebuild, do not fail the run.
            healthy = not self._pool.lost.is_set() and all(
                worker.is_alive() for worker in self._pool.workers
            )
            if full_key == self._key and healthy:
                self.stats["reuses"] += 1
                return self._pool
            self.stats["key_changes"] += int(full_key != self._key)
            self.shutdown()
        self._pool = _Pool(_pool_context(start_method), payload, num_workers)
        # A manager collected without a shutdown lets its workers go.
        self._release_on_gc = weakref.finalize(self, self._pool.release)
        # The payload ref keeps an id()-keyed initial state alive while
        # the key is current, so its id cannot alias a recycled address.
        self._payload = payload
        self._key = full_key
        self.stats["inits"] += 1
        return self._pool


#: How often a drain wakes to check for dead workers and the
#: ``task_timeout`` gap while no result arrives.  Purely a liveness poll —
#: results are picked up the moment they arrive.
_POLL_SECONDS = 0.05


_SHARED: Optional[PoolManager] = None


def shared_pool_manager() -> PoolManager:
    """The process-wide default :class:`PoolManager`.

    Created on first use and registered with ``atexit`` so its workers
    are joined at interpreter exit even when no one calls ``shutdown``.
    """
    global _SHARED
    if _SHARED is None:
        _SHARED = PoolManager()
        atexit.register(_SHARED.shutdown)
    return _SHARED


def shutdown_shared_pool() -> None:
    """Shut the shared manager's pool down now (tests, session teardown)."""
    if _SHARED is not None:
        _SHARED.shutdown()


__all__ = [
    "PoolManager",
    "shared_pool_manager",
    "shutdown_shared_pool",
]
