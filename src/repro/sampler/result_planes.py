"""Zero-copy shared-memory result planes for pooled execution.

Pooled workers historically returned every chunk's sample arrays as a
pickled ``(records, bits)`` tuple through the pool's result queue — the
last serialization hop on the hot path, and the one that scales with
``repetitions x qubits`` instead of staying O(1) per task.  This module
moves those results into ``multiprocessing.shared_memory`` **planes**:

* The parent sizes one segment per sweep/batch *point* up front — chunk
  geometry is a deterministic function of the schedule
  (:mod:`repro.sampler.schedule`), so every chunk's row band is known
  before anything runs.  A segment holds one ``bits`` plane of shape
  ``(repetitions, num_qubits)`` plus one plane per measurement key of
  shape ``(repetitions, len(axes))``, all ``int8``, laid out by
  :func:`plane_layout`.
* Each task receives a tiny **slot descriptor** ``(segment_name,
  repetitions, row_offset)``; the worker derives the full plane layout
  from its shared plan's ``key_axes`` (the layout is a pure function of
  ``(key_axes, num_qubits, repetitions)``, computed identically on both
  sides) and writes its chunk's slice in place.  The task's *return*
  value shrinks to one integer — the rows written — regardless of
  repetition count.
* Once every chunk of a point has landed, the parent wraps the filled
  planes as **read-only zero-copy NumPy views** (:meth:`PointPlanes.views`)
  and immediately unlinks the segment: on POSIX the mapping stays valid
  until the last view dies (exactly like an unlinked open file), a
  ``weakref.finalize`` hook closes the mapping when the views are
  garbage-collected, and the early unlink guarantees the *name* can
  never leak even if the process is killed later.

Lifecycle contract (pinned by ``tests/test_result_planes.py`` and the
``BGLS_SHM_AUDIT`` hook in ``tests/conftest.py``):

* the parent allocates, the parent unlinks — workers only ever attach,
  write, and detach (unregistering from the ``resource_tracker`` so a
  worker exit can never unlink a segment behind the parent's back);
* :meth:`PointPlanes.release` is the error-path teardown — idempotent,
  safe before or after :meth:`~PointPlanes.views` — and every allocated
  segment is registered in a process-wide table
  (:func:`live_segment_names`) until its unlink, so leaked segments are
  detectable and collectable (:func:`release_leaked_segments`);
* shared memory is an optional *transport*: when the platform lacks it
  (:func:`shm_available` is False) executors fall back to the pickled
  ``(records, bits)`` tuples, bit-for-bit identical.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np

try:  # pragma: no cover - import failure is the exotic-platform path
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

#: Every plane is int8: measurement records and bitstrings are bits.
PLANE_DTYPE = np.int8

#: A task's slot descriptor: ``(segment_name, repetitions, row_offset)``.
SlotDescriptor = Tuple[str, int, int]


def shm_available() -> bool:
    """Whether shared-memory result planes can be used on this platform.

    Probes one tiny create/close/unlink round-trip (memoized): importable
    ``multiprocessing.shared_memory`` alone does not guarantee a working
    ``/dev/shm``-style backing store.
    """
    global _SHM_AVAILABLE
    if _SHM_AVAILABLE is None:
        if _shared_memory is None:
            _SHM_AVAILABLE = False
        else:
            try:
                probe = _shared_memory.SharedMemory(create=True, size=1)
                probe.close()
                probe.unlink()
                _SHM_AVAILABLE = True
            except Exception:
                _SHM_AVAILABLE = False
    return _SHM_AVAILABLE


_SHM_AVAILABLE: Optional[bool] = None


def plane_layout(
    key_axes: Dict[str, Tuple[int, ...]], num_qubits: int, rows: int
) -> Tuple[List[Tuple[Optional[str], int, Tuple[int, int]]], int]:
    """The deterministic plane layout of one point's result segment.

    Returns ``(specs, nbytes)`` where each spec is ``(key, byte_offset,
    shape)``; the ``bits`` plane comes first under key ``None``, then one
    plane per measurement key in ``key_axes`` iteration order (insertion
    order — the circuit's measurement order — which pickling preserves,
    so the parent and a worker holding the same plan always agree).
    """
    itemsize = np.dtype(PLANE_DTYPE).itemsize
    specs: List[Tuple[Optional[str], int, Tuple[int, int]]] = []
    offset = 0
    for key, shape in [(None, (rows, num_qubits))] + [
        (key, (rows, len(axes))) for key, axes in key_axes.items()
    ]:
        specs.append((key, offset, shape))
        offset += shape[0] * shape[1] * itemsize
    return specs, max(1, offset)


def _attach(name: str):
    """Worker-side attach to an existing segment, tracker-neutral.

    Attaching registers the segment with the resource tracker on
    Python < 3.13 (bpo-38119), which would let a *worker* exit unlink a
    segment the parent still reads — and under ``fork``, every worker
    shares one tracker daemon, so even register/unregister pairs race
    across workers.  Only the creating parent may own the name, so on
    interpreters without ``track=False`` the registration call itself is
    suppressed for the duration of the attach (workers run tasks
    serially; there is no concurrent attach in one process).
    """
    try:
        return _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def _skip_shared_memory(res_name, rtype):  # pragma: no cover - trivial
        if rtype != "shared_memory":
            original(res_name, rtype)

    resource_tracker.register = _skip_shared_memory
    try:
        return _shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


# Allocated-but-not-yet-unlinked segments, for the leak audit.  Entries
# are added at allocation and removed the moment the segment is unlinked
# (by views() or release()), so an empty table means no name can leak.
_LIVE: Dict[str, "PointPlanes"] = {}
_LIVE_LOCK = threading.Lock()


def live_segment_names() -> List[str]:
    """Names of result segments allocated but not yet unlinked."""
    with _LIVE_LOCK:
        return sorted(_LIVE)


def release_leaked_segments() -> List[str]:
    """Unlink every still-live segment (audit cleanup); returns the names."""
    with _LIVE_LOCK:
        leaked = list(_LIVE.values())
    for planes in leaked:
        planes.release()
    return sorted(p.name for p in leaked)


def _close_segment(shm) -> None:
    """Finalizer body: drop the parent's mapping once all views died."""
    try:  # pragma: no cover - interpreter-teardown ordering
        shm.close()
    except Exception:
        pass


class PointPlanes:
    """One point's shared-memory result segment, parent-side.

    Allocated by the executor before any task is submitted (the parent
    owns the name); workers fill row bands through
    :func:`write_chunk_to_slot`; :meth:`views` wraps the filled planes as
    read-only zero-copy arrays and unlinks; :meth:`release` is the
    error-path unlink.  Exactly one of ``views``/``release`` retires the
    registry entry, and both are safe to call afterwards.
    """

    __slots__ = ("key_axes", "num_qubits", "rows", "_specs", "nbytes",
                 "_shm", "_unlinked", "__weakref__")

    def __init__(
        self, key_axes: Dict[str, Tuple[int, ...]], num_qubits: int, rows: int
    ):
        if _shared_memory is None:  # pragma: no cover - exotic platforms
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        self.key_axes = dict(key_axes)
        self.num_qubits = int(num_qubits)
        self.rows = int(rows)
        self._specs, self.nbytes = plane_layout(
            self.key_axes, self.num_qubits, self.rows
        )
        self._shm = _shared_memory.SharedMemory(create=True, size=self.nbytes)
        # POSIX: the mapping holds its own duplicate of the segment's fd
        # and unlink works by name, so close the fd now — a kept result
        # then costs one descriptor, not two (``close`` skips ``-1``).
        if getattr(self._shm, "_fd", -1) >= 0:
            os.close(self._shm._fd)
            self._shm._fd = -1
        self._unlinked = False
        with _LIVE_LOCK:
            _LIVE[self._shm.name] = self

    @property
    def name(self) -> str:
        return self._shm.name

    def slot(self, row_offset: int) -> SlotDescriptor:
        """The descriptor a task carries: 3 scalars, independent of size."""
        return (self._shm.name, self.rows, int(row_offset))

    def _unlink(self) -> None:
        if self._unlinked:
            return
        self._unlinked = True
        with _LIVE_LOCK:
            _LIVE.pop(self._shm.name, None)
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - raced cleanup
            pass

    def views(self) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
        """Read-only zero-copy ``(records, bits)`` over the filled planes.

        Unlinks the segment immediately — the mapping (and therefore
        every returned view) stays valid until the last view is
        garbage-collected, at which point a finalizer closes it.  The
        arrays are marked non-writeable: they alias one buffer, and
        results are immutable by contract.
        """
        shm = self._shm
        base = np.ndarray((self.nbytes,), dtype=np.uint8, buffer=shm.buf)
        bits: Optional[np.ndarray] = None
        records: Dict[str, np.ndarray] = {}
        for key, offset, shape in self._specs:
            count = shape[0] * shape[1]
            view = (
                base[offset : offset + count].view(PLANE_DTYPE).reshape(shape)
            )
            view.flags.writeable = False
            if key is None:
                bits = view
            else:
                records[key] = view
        # The finalizer holds the SharedMemory object alive until `base`
        # (kept alive by every sliced view) is collected, then closes the
        # mapping — views never dangle, and close never races an export.
        weakref.finalize(base, _close_segment, shm)
        self._unlink()
        return records, bits

    def release(self) -> None:
        """Error-path teardown: unlink now, close if no views were built.

        Idempotent, and a no-op after :meth:`views` (the views own the
        mapping's lifetime from then on).
        """
        already_viewed = self._unlinked
        self._unlink()
        if not already_viewed:
            try:
                self._shm.close()
            except BufferError:  # pragma: no cover - views exist after all
                pass


def write_chunk_to_slot(
    plan,
    slot: SlotDescriptor,
    records: Dict[str, np.ndarray],
    bits: np.ndarray,
) -> int:
    """Worker-side: write one chunk's ``(records, bits)`` into its slot.

    Re-derives the plane layout from the worker's shared ``plan`` (same
    pure function as the parent), attaches to the named segment, copies
    the chunk's rows into the band starting at ``row_offset``, detaches,
    and returns the row count — the task's entire result payload.
    """
    name, rows, row_offset = slot
    size = int(bits.shape[0])
    specs, nbytes = plane_layout(plan.key_axes, plan.num_qubits, rows)
    shm = _attach(name)
    try:
        base = np.ndarray((nbytes,), dtype=np.uint8, buffer=shm.buf)
        for key, offset, shape in specs:
            count = shape[0] * shape[1]
            plane = base[offset : offset + count].view(PLANE_DTYPE)
            plane = plane.reshape(shape)
            chunk = bits if key is None else records[key]
            plane[row_offset : row_offset + size] = chunk
        del plane, base
    finally:
        shm.close()
    return size


__all__ = [
    "PLANE_DTYPE",
    "PointPlanes",
    "live_segment_names",
    "plane_layout",
    "release_leaked_segments",
    "shm_available",
    "write_chunk_to_slot",
]
