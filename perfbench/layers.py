"""Per-layer tracing for the traced benchmark run.

The benchmark measures the library from outside: nothing under ``src/``
changes.  :func:`install` wraps public entry points of the ``repro``
layers (class methods and module functions) with span recorders, and the
returned :class:`Installed` handle puts every original back.  Wrappers are
installed only for the traced phase of a ``--trace 1`` run.

A span records its total duration and its *self* time — the duration
minus the time of spans nested inside it — so the self times of all
spans inside one benchmark call add up to that call's duration.  Every
``*_s`` layer metric is a self time; what no wrapped layer covers is
reported as ``unattributed_s``.

When an entry point no longer exists (the ROADMAP plans to delete some),
its layer is marked missing with the reason instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    """Span and counter store for one traced phase (single thread)."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (e.g. during set-up)."""
        self._stack: List[List[float]] = []
        # span name -> [total seconds, self seconds, calls]
        self.spans: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        # Largest oracle front seen since the enclosing run() began.
        self.front_peak = 0

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def timed(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += elapsed
            rec = self.spans.setdefault(name, [0.0, 0.0, 0])
            rec[0] += elapsed
            rec[1] += elapsed - frame[0]
            rec[2] += 1

    def self_time(self, name: str) -> float:
        return self.spans.get(name, (0.0, 0.0, 0))[1]

    def calls(self, name: str) -> int:
        return int(self.spans.get(name, (0.0, 0.0, 0))[2])


# ----------------------------------------------------------------------
# span definitions
# ----------------------------------------------------------------------

def _oracle_rows(tracer: Tracer, args) -> None:
    rows = len(args[1])
    tracer.count("oracle.rows", rows)
    tracer.front_peak = max(tracer.front_peak, rows)


def _kernel_bytes(tracer: Tracer, args) -> None:
    # Computed, not measured: an out-of-place gate reads and writes the
    # whole amplitude tensor once each.
    tensor = getattr(args[0], "tensor", None)
    if tensor is not None:
        tracer.count("kernel.bytes", 2 * tensor.nbytes)


def _run_begins(tracer: Tracer, args) -> None:
    tracer.front_peak = 0


def _run_ends(tracer: Tracer) -> None:
    tracer.count("front.rows", tracer.front_peak)
    tracer.front_peak = 0


def _tile(tracer: Tracer, args) -> None:
    tracer.count("traj.tiles", 1)


_SV = "repro.states.state_vector:StateVectorSimulationState"
_TB = "repro.sampler.trajectory_batch"

# (span, target, on_call(tracer, args), on_return(tracer))
SPANS: Tuple[Tuple[str, str, Optional[Callable], Optional[Callable]], ...] = (
    ("run", "repro.sampler.simulator:Simulator.run", _run_begins, _run_ends),
    ("compile", "repro.sampler.simulator:Simulator.compile", None, None),
    ("specialize", "repro.sampler.program:Program.specialize", None, None),
    ("plan.apply", "repro.sampler.plan:ExecutionPlan.apply", None, None),
    ("kernel", _SV + ".apply_unitary", _kernel_bytes, None),
    ("oracle", _SV + ".candidate_probabilities_many", _oracle_rows, None),
    ("traj", _TB + ":run_batched_trajectories", None, None),
    ("traj.apply", _TB + ":BatchedStateVector.apply_record", None, None),
    ("traj.kraus", _TB + ":BatchedStateVector.apply_kraus", None, None),
    ("traj.candidates", _TB + ":BatchedStateVector.candidate_probabilities",
     None, None),
    ("traj.tile", _TB + ":BatchedStateVector.from_state", _tile, None),
    ("pool.dispatch", "repro.sampler.service:PoolManager.run", None, None),
    ("pool.dispatch", "repro.sampler.service:PoolManager.submit", None, None),
    ("pool.dispatch", "repro.sampler.service:PoolManager.steal", None, None),
)


def _resolve(target: str):
    """``(owner, attr, raw attribute)`` for ``"module:Owner.attr"``."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr, inspect.getattr_static(owner, attr)


def _wrap(tracer: Tracer, span: str, fn: Callable, on_call, on_return):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if on_call is not None:
            on_call(tracer, args)
        try:
            return tracer.timed(span, fn, *args, **kwargs)
        finally:
            if on_return is not None:
                on_return(tracer)

    return wrapper


class Installed:
    """Handle for installed wrappers; :meth:`remove` restores originals."""

    def __init__(self):
        self._restore: List[Tuple[object, str, object]] = []
        # span name -> reasons its targets are missing
        self.missing_targets: Dict[str, List[str]] = {}
        self.present_spans: set = set()

    def missing(self, span: str) -> Optional[str]:
        """Why ``span`` cannot be measured, or None when it can."""
        if span in self.present_spans:
            return None
        reasons = self.missing_targets.get(span)
        return "; ".join(reasons) if reasons else None

    def remove(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()


def install(tracer: Tracer) -> Installed:
    """Wrap every target of :data:`SPANS` that still exists."""
    handle = Installed()
    for span, target, on_call, on_return in SPANS:
        try:
            owner, attr, raw = _resolve(target)
        except (ImportError, AttributeError) as exc:
            handle.missing_targets.setdefault(span, []).append(
                f"{target} not found ({type(exc).__name__})"
            )
            continue
        if isinstance(raw, classmethod):
            new = classmethod(_wrap(tracer, span, raw.__func__, on_call, on_return))
        else:
            new = _wrap(tracer, span, raw, on_call, on_return)
        setattr(owner, attr, new)
        handle._restore.append((owner, attr, raw))
        handle.present_spans.add(span)
    return handle
