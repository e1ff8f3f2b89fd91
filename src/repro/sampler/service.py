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
* :meth:`PoolManager.submit` is the one dispatch entry.  It puts ``(run_id,
  task_id, unit_ref, args)`` items on the pool's shared task queue and
  hands each worker a :func:`_pull_tasks` loop: idle workers pull the
  next task, run the one task body :func:`_run_task`, and report
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
from concurrent import futures as _cf
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


def _merge_parts(parts: List[RunParts]) -> RunParts:
    """Concatenate per-chunk (records, bits) outputs in chunk order."""
    if len(parts) == 1:
        return parts[0]
    all_bits = np.concatenate([bits for _, bits in parts], axis=0)
    keys = parts[0][0].keys()
    records = {
        key: np.concatenate([rec[key] for rec, _ in parts], axis=0)
        for key in keys
    }
    return records, all_bits


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
    way it is pickled once per *worker* by the pool initializer — never
    per task.  Compiled units ride the tasks instead (:func:`_unit_ref`).
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


# The worker's simulator, built once by the pool initializer.
_WORKER = None

# The worker's end of the pool's channels — ``(task_queue, result_queue,
# cancelled)`` — shipped by the initializer alongside the payload.
# Queues and shared arrays ride the *process-creation* channel (Process
# args), the one place they are picklable, so this works identically
# under fork, forkserver, and spawn.
_WORKER_CHANNELS: Optional[Tuple[object, object, object]] = None

#: Size of the shared ring of closed run ids (``cancelled[id % size] ==
#: id`` marks run ``id`` closed).  Only leftovers of a closed run are
#: skipped, so a slot reused by a much later run costs at most some
#: wasted work whose results are dropped anyway.
_RUN_SLOTS = 64

#: How many unpickled units a worker keeps, least recently used first out.
_UNIT_CACHE_SIZE = 64
_UNITS: "collections.OrderedDict[bytes, object]" = collections.OrderedDict()


def _init_pool_worker(payload: _WorkerPayload, channels) -> None:
    """Pool initializer: build the worker-local simulator."""
    global _WORKER, _WORKER_CHANNELS
    _WORKER = payload.build_simulator()
    _WORKER_CHANNELS = channels


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


def _pull_tasks() -> int:
    """Worker loop: pull tasks off the shared queue until a sentinel.

    Each submission hands every worker one of these.  It pulls ``(run_id,
    task_id, unit_ref, args)`` items — *placement* is whichever worker gets
    there first — skips items of closed runs, runs :func:`_run_task` on
    the item's own unit, and reports ``(run_id, task_id, error,
    payload)`` on the result queue.
    A ``None`` sentinel (one per puller, enqueued after the run's tasks)
    ends the loop; the return value is how many tasks this worker ran.
    Task errors are reported per task, never raised — the parent decides
    whether to abandon the run.
    """
    task_queue, result_queue, cancelled = _WORKER_CHANNELS
    ran = 0
    while True:
        item = task_queue.get()
        if item is None:
            return ran
        run_id, task_id, unit_ref, args = item
        if cancelled[run_id % _RUN_SLOTS] == run_id:
            continue
        error = None
        payload = None
        try:
            # The task's unit, under the index it has in the parent's table.
            units = {args[0]: _load_unit(*unit_ref)}
            payload = _run_task(_WORKER, units, *args)
        except BaseException as exc:
            error = _picklable_error(exc)
        result_queue.put((run_id, task_id, error, payload))
        ran += 1


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

class _Run:
    """One submitted task list: its id, the pool's pullers, routed results.

    ``pullers`` is the pool-wide list of live :func:`_pull_tasks` futures
    (shared by every run on that pool); ``results`` is the pool's result
    queue (None once that pool is shut down); ``inbox`` holds results
    another reader routed here.
    """

    __slots__ = ("id", "pullers", "results", "cancelled", "inbox")

    def __init__(self, run_id: int, channels, pullers: List[_cf.Future]):
        self.id = run_id
        self.pullers = pullers
        self.results = channels[1]
        self.cancelled = channels[2]
        self.inbox: collections.deque = collections.deque()


class PoolManager:
    """Owns one process pool and reuses its initialized workers.

    The manager lazily builds a pool for the first worker payload it sees
    and keeps it warm: subsequent calls whose payload and geometry key
    equal (:meth:`_WorkerPayload.key`) submit straight to the live
    workers (``stats["reuses"]``) whatever circuits they carry, while a
    different key — new initial-state payload, changed simulator config
    or pool geometry — or a dead worker (even an idle one) shuts the old
    pool down cleanly and builds a fresh one (``stats["key_changes"]`` +
    ``stats["inits"]``).

    Lifecycle: use as a context manager for scoped pools, call
    :meth:`shutdown` explicitly, or rely on the shared manager's
    ``atexit`` hook.  ``shutdown`` joins every worker (no leaked
    processes) and is idempotent; the manager is reusable afterwards (the
    next call simply builds a new pool).  The executor shuts the pool
    down on any task failure, so a poisoned pool is never reused.
    """

    def __init__(self):
        self._pool: Optional[_cf.ProcessPoolExecutor] = None
        self._key: Optional[Tuple] = None
        self._payload: Optional[_WorkerPayload] = None
        self._channels: Optional[Tuple] = None
        # Every not-yet-finished puller of the current pool.  A puller
        # exits on whichever sentinel it takes, so one submitted for an
        # abandoned run may go on to run a later run's tasks: a run's
        # liveness signal is the whole list, not its own pullers (a dead
        # worker fails every pending future of its pool).
        self._pullers: List[_cf.Future] = []
        self._last_pids: List[int] = []
        # Ensure + enqueue are atomic: without the lock, a second
        # thread's key change could shut the pool down between another
        # thread's _ensure and its enqueue.  Concurrent different-key
        # callers therefore alternate pool rebuilds — give such threads
        # their own managers.
        self._lock = threading.RLock()
        # One reader of the shared result queue at a time; results of
        # other live runs are routed to their inboxes.
        self._recv_lock = threading.Lock()
        self._runs: Dict[int, _Run] = {}
        self._next_run = 0
        # Shared-memory result planes currently in flight on this pool.
        # The manager is the lifecycle backstop the executor's own
        # try/finally cannot cover: a poisoned pool shuts down through
        # here, and any plane not yet retired (viewed or released) is
        # unlinked with it — no segment survives a pool reset.  WeakSet:
        # retired planes just fall out.
        self._planes: "weakref.WeakSet" = weakref.WeakSet()
        self.stats = {"inits": 0, "reuses": 0, "key_changes": 0}

    # -- lifecycle ---------------------------------------------------------
    def worker_pids(self) -> List[int]:
        """PIDs of the current pool's workers (last pool's if shut down)."""
        if self._pool is not None and getattr(self._pool, "_processes", None):
            return sorted(self._pool._processes)
        return list(self._last_pids)

    def shutdown(self) -> None:
        """Join all workers and drop the pool; idempotent, reusable after.

        Workers finish every queued task of a live run (closed runs'
        leftovers are skipped) while this thread keeps routing their
        results — a full result pipe would otherwise block a worker's
        exit.  Live runs keep those results in their inboxes.  Also the
        segment backstop: any adopted, still-live shared-memory result
        plane is released once the workers are gone (after the join, so
        no in-flight task writes to an already-unlinked name).
        """
        with self._lock:
            pool, self._pool = self._pool, None
            channels, self._channels = self._channels, None
            self._key = None
            self._payload = None
            if pool is not None:
                if getattr(pool, "_processes", None):
                    self._last_pids = sorted(pool._processes)
                closer = threading.Thread(target=pool.shutdown)
                closer.start()
                while closer.is_alive():
                    if not self._route(channels[1]):
                        closer.join(_POLL_SECONDS / 10)
            if channels is not None:
                while self._route(channels[1]):
                    pass
                with self._recv_lock:
                    for run in self._runs.values():
                        if run.results is channels[1]:
                            run.results = None
                # cancel_join_thread so undelivered items (a closed run's
                # leftovers) cannot block interpreter exit on the feeder.
                for q in channels[:2]:
                    q.close()
                    q.cancel_join_thread()
            planes, self._planes = list(self._planes), weakref.WeakSet()
            for plane in planes:
                plane.release()

    def terminate(self) -> None:
        """Kill the pool's workers, then clean up as :meth:`shutdown`.

        The escalation path for a *wedged* pool: ``shutdown`` joins
        workers, which blocks forever behind a hung task, so the
        task-timeout path kills the worker processes first and then runs
        the normal teardown (queue close, plane release) against the
        already-dead pool.
        """
        with self._lock:
            pool = self._pool
            if pool is not None:
                processes = dict(getattr(pool, "_processes", None) or {})
                if processes:
                    self._last_pids = sorted(processes)
                for proc in processes.values():
                    proc.kill()
                for proc in processes.values():
                    proc.join()
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
        match it, else a fresh pool whose workers are built from
        ``payload``.

        Every ``(unit_ref, args)`` task becomes a ``(run_id, task_id,
        unit_ref, args)`` item on the pool's shared task queue, followed
        by one ``None`` sentinel per puller, and ``min(num_workers,
        len(tasks))`` workers are each handed one :func:`_pull_tasks`
        loop.  ``num_workers`` is the pool's size and part of its key, so
        a batch with fewer tasks than workers reuses the warm pool.  The
        caller drains ``len(tasks)``
        results with :meth:`receive` and then passes the run to
        :meth:`close` — also when it abandons
        the run early, which makes workers skip its leftover items.  A
        submission failure shuts the pool down fail-safe.

        ``planes`` are this run's shared-memory result planes: the
        manager **adopts** them — becomes their lifecycle backstop — so
        that if this pool is ever shut down (poisoned pool, key change,
        explicit reset) before a plane is retired, :meth:`shutdown`
        releases it and no segment outlives the pool filling it.
        Adoption happens after :meth:`_ensure` (still under the lock):
        a key change or a rebuild tears the *previous* pool and its
        leftovers down without touching this call's fresh planes.
        """
        with self._lock:
            pool = self._ensure(payload, num_workers, start_method)
            self._planes.update(planes)
            self._next_run += 1
            run = _Run(self._next_run, self._channels, self._pullers)
            # Registered before any item is queued: another reader must
            # route (not drop) this run's first results.
            with self._recv_lock:
                self._runs[run.id] = run
            try:
                task_queue = self._channels[0]
                for task_id, (unit_ref, args) in enumerate(tasks):
                    task_queue.put((run.id, task_id, unit_ref, args))
                pullers = min(num_workers, len(tasks))
                for _ in range(pullers):
                    task_queue.put(None)
                # In place: live runs hold this list.  Failed pullers stay
                # so that every run still waiting sees the failure.
                self._pullers[:] = [
                    p for p in self._pullers
                    if not p.done() or p.exception() is not None
                ]
                self._pullers.extend(
                    pool.submit(_pull_tasks) for _ in range(pullers)
                )
            except BaseException:
                self.close(run)
                self.shutdown()
                raise
            if getattr(pool, "_processes", None):
                self._last_pids = sorted(pool._processes)
            return run

    def receive(self, run: _Run, timeout: float) -> Optional[Tuple]:
        """The next ``(task_id, error, payload)`` of ``run``.

        Waits at most ``timeout`` seconds; returns None when nothing for
        this run arrived in that window (a result of another live run is
        routed to that run's inbox, one of a closed run is dropped).
        Raises once the run can no longer complete: the pool's own error
        (``BrokenProcessPool`` when a worker died, read off any of the
        pool's pullers), or ``RuntimeError`` when the pool was shut down
        under it.
        """
        with self._recv_lock:
            if run.inbox:
                return run.inbox.popleft()
            if run.results is not None:
                try:
                    item = run.results.get(timeout=timeout)
                except _queue.Empty:
                    item = None
                if item is not None and item[0] == run.id:
                    return item[1:]
                if item is not None:
                    self._deliver(item)
            orphaned = run.results is None and not run.inbox
        for puller in run.pullers:
            if puller.done() and puller.exception():
                puller.result()
        if orphaned:
            raise RuntimeError(
                "the worker pool was shut down while this run was in flight"
            )
        return None

    def close(self, run: _Run) -> None:
        """Retire ``run``: workers skip its leftovers, late results drop.

        Idempotent; called when a run completes, fails, or is abandoned.
        """
        run.cancelled[run.id % _RUN_SLOTS] = run.id
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

    def _ensure(
        self, payload, num_workers, start_method
    ) -> _cf.ProcessPoolExecutor:
        full_key = (payload.key(), num_workers, start_method)
        if self._pool is not None:
            # A worker that died between calls breaks the pool (the pool
            # may not have noticed yet): rebuild, do not fail the run.
            processes = list((self._pool._processes or {}).values())
            broken = self._pool._broken or not all(
                proc.is_alive() for proc in processes
            )
            if full_key == self._key and not broken:
                self.stats["reuses"] += 1
                return self._pool
            self.stats["key_changes"] += int(full_key != self._key)
            self.shutdown()
        ctx = _pool_context(start_method)
        # The channels are born with the pool (same mp context, shipped
        # through the initializer — the one channel they may travel).
        self._channels = (ctx.Queue(), ctx.Queue(), ctx.RawArray("q", _RUN_SLOTS))
        self._pool = _cf.ProcessPoolExecutor(
            max_workers=num_workers,
            mp_context=ctx,
            initializer=_init_pool_worker,
            initargs=(payload, self._channels),
        )
        # The payload ref keeps an id()-keyed initial state alive while
        # the key is current, so its id cannot alias a recycled address.
        self._payload = payload
        self._key = full_key
        self._pullers = []
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
