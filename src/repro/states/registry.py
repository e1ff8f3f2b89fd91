"""Backend capability registry: what a state backend can do, read once per type.

The sampler stack asks one question of a state backend in several places
(the Simulator's candidate oracle, the planner's fast paths, the Kraus
branch's renormalization, the pool's state shipping).  This module answers
it once per state *type* and caches the answer, so no caller probes a
state object.

A state class says what it can do through its own surface:

* ``candidate_probabilities_many(bits_list, support)`` — the candidate
  oracle, answering a ``(B, 2^k)`` row block of candidate probabilities
  for ``B`` tracked bitstrings;
* ``_act_on_``, not overridden — the class keeps a dispatcher the
  library ships (``SimulationState._act_on_`` or
  ``StabilizerSimulationState._act_on_``), so plans may skip it: a class
  with ``apply_stabilizer_sequence`` then takes cached
  ``(phase, primitives)`` decompositions directly (the plan's
  ``fast_stab`` path), any other class takes ``apply_unitary`` with a
  record's cached matrix (``fast_unitary``).  A class that overrides
  ``_act_on_`` gets neither, on every backend, and sees every gate;
* ``apply_single_qubit_moment`` — a moment of disjoint single-qubit
  Clifford gates applies in one call;
* ``renormalize()`` — used after non-unitary Kraus branches;
* ``_exact_channels_ = True`` — channels apply exactly (density
  matrices) instead of branching stochastically.

:func:`capabilities_for` reads these flags off the class itself, so a
subclass gets a descriptor of its own: one that overrides ``_act_on_``
loses both fast paths, and none inherits its parent's snapshot hooks.
:func:`register_backend` records only what a class cannot say:

* the scalar Born function ``(state, bits) -> float`` that means "use
  this class's ``candidate_probabilities_many``";
* a ``snapshot``/``restore`` pair the process-pool executor uses to ship
  the initial state to workers in packed form, for exactly that type.
  Payloads must be picklable and ``==``-comparable (prefer plain tuples
  of bytes/ints): the warm-pool service (:mod:`repro.sampler.service`)
  compares them to decide whether already-initialized workers can be
  reused.  The shipped bit-packed tableau and CH-form backends register
  one pair, ``StabilizerSimulationState.snapshot``/``restore``, with
  raw ``uint64`` word payloads, and the MPS backend ships
  raw tensor bytes plus bond metadata; see the README "snapshot-hook
  contract";
* a display ``name``.

Shipped backends register at import time (see :mod:`repro.born`); user
backends call :func:`register_backend` and get the same fast paths as
built-ins, including the row-block candidate oracle.  States that never
register still work: they get the introspected descriptor.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .base import SimulationState, StabilizerSimulationState

#: The ``_act_on_`` dispatchers the library ships; plans skip only these.
_SHIPPED_DISPATCHERS = (
    SimulationState._act_on_,
    StabilizerSimulationState._act_on_,
)


def _candidates_many_via_state(state, bits_list, support):
    """The candidate oracle: delegate to the state's own method."""
    return state.candidate_probabilities_many(bits_list, support)


class BackendCapabilities:
    """What one state backend can do, read off its class once.

    Attributes:
        state_type: The simulation-state class this descriptor covers.
        name: Human-readable backend name (diagnostics, README tables).
        compute_probability: The registered scalar Born oracle
            ``(state, bits) -> float`` for this backend, or None.
        candidates_many: The candidate oracle
            ``(state, bits_list, support) -> ndarray[(B, 2^k)]``: row ``b``
            holds the ``2^k`` candidate probabilities of ``bits_list[b]``
            over ``support``.  Parallel mode asks it for the whole front,
            trajectory mode for one row.  None when the class has no
            ``candidate_probabilities_many``.
        stabilizer_sequences: The class has ``apply_stabilizer_sequence``.
        fused_moments: The class has ``apply_single_qubit_moment``.
        shipped_dispatch: The class keeps a shipped ``_act_on_``
            (``SimulationState``'s or ``StabilizerSimulationState``'s),
            so plans may apply records without calling it.
        renormalize: The class has ``renormalize()``.
        exact_channels: The class sets ``_exact_channels_``.
        snapshot: Optional ``(state) -> payload`` producing a compact
            picklable payload for process-pool workers; None means the
            state object itself is pickled.
        restore: Inverse of ``snapshot``; set iff ``snapshot`` is.
    """

    __slots__ = (
        "state_type",
        "name",
        "compute_probability",
        "candidates_many",
        "stabilizer_sequences",
        "fused_moments",
        "shipped_dispatch",
        "renormalize",
        "exact_channels",
        "snapshot",
        "restore",
    )

    def __init__(
        self,
        state_type: type,
        name: Optional[str] = None,
        compute_probability: Optional[Callable] = None,
        snapshot: Optional[Callable] = None,
        restore: Optional[Callable] = None,
    ):
        self.state_type = state_type
        self.name = name or state_type.__name__
        self.compute_probability = compute_probability
        self.snapshot = snapshot
        self.restore = restore
        self.candidates_many = (
            _candidates_many_via_state
            if hasattr(state_type, "candidate_probabilities_many")
            else None
        )
        self.stabilizer_sequences = hasattr(
            state_type, "apply_stabilizer_sequence"
        )
        self.fused_moments = hasattr(state_type, "apply_single_qubit_moment")
        self.shipped_dispatch = (
            getattr(state_type, "_act_on_", None) in _SHIPPED_DISPATCHERS
        )
        self.renormalize = hasattr(state_type, "renormalize")
        self.exact_channels = bool(getattr(state_type, "_exact_channels_", False))

    def __repr__(self) -> str:
        flags = [
            flag
            for flag, on in [
                ("stab_seq", self.stabilizer_sequences),
                ("fused_moments", self.fused_moments),
                ("shipped_dispatch", self.shipped_dispatch),
                ("renormalize", self.renormalize),
                ("exact_channels", self.exact_channels),
                ("many_front", self.candidates_many is not None),
                ("snapshot", self.snapshot is not None),
            ]
            if on
        ]
        return f"BackendCapabilities({self.name!r}, {'|'.join(flags) or 'none'})"


_REGISTRY: Dict[type, BackendCapabilities] = {}
_DERIVED: Dict[type, BackendCapabilities] = {}
_BY_PROBABILITY_FN: Dict[Callable, BackendCapabilities] = {}


def register_backend(
    state_type: type,
    *,
    compute_probability: Optional[Callable] = None,
    snapshot: Optional[Callable] = None,
    restore: Optional[Callable] = None,
    name: Optional[str] = None,
) -> BackendCapabilities:
    """Register (or re-register) a state backend.

    The capability flags come from the class itself; registration adds
    only what the class cannot say.  The minimal user registration is::

        register_backend(MyState, compute_probability=my_born_fn)

    which is enough for :class:`repro.sampler.Simulator` to send
    ``my_born_fn``'s candidate queries to
    ``MyState.candidate_probabilities_many`` when that method exists — the
    row-block oracle the shipped backends use.

    Returns the registered descriptor.
    """
    if (snapshot is None) != (restore is None):
        raise ValueError("snapshot and restore must be provided together")
    unregister_backend(state_type)
    caps = BackendCapabilities(
        state_type, name, compute_probability, snapshot, restore
    )
    _REGISTRY[state_type] = caps
    if compute_probability is not None:
        _BY_PROBABILITY_FN[compute_probability] = caps
    return caps


def unregister_backend(state_type: type) -> None:
    """Remove a backend registration (primarily for tests)."""
    caps = _REGISTRY.pop(state_type, None)
    if caps is not None and (
        _BY_PROBABILITY_FN.get(caps.compute_probability) is caps
    ):
        del _BY_PROBABILITY_FN[caps.compute_probability]


def capabilities_for(state_or_type) -> BackendCapabilities:
    """The capabilities descriptor for a state instance or class.

    The registered descriptor of exactly this type, else one read off the
    class and cached.  Never returns None.
    """
    tp = state_or_type if isinstance(state_or_type, type) else type(state_or_type)
    caps = _REGISTRY.get(tp) or _DERIVED.get(tp)
    if caps is None:
        caps = _DERIVED[tp] = BackendCapabilities(tp)
    return caps


def capabilities_for_probability_fn(
    compute_probability: Callable,
) -> Optional[BackendCapabilities]:
    """The descriptor whose scalar Born oracle is ``compute_probability``.

    Returns None for unknown (user-supplied, unregistered) functions, in
    which case the sampler falls back to its per-candidate loop.
    """
    return _BY_PROBABILITY_FN.get(compute_probability)


def registered_backends() -> List[BackendCapabilities]:
    """All explicitly registered descriptors, in registration order."""
    return list(_REGISTRY.values())


__all__ = [
    "BackendCapabilities",
    "register_backend",
    "unregister_backend",
    "capabilities_for",
    "capabilities_for_probability_fn",
    "registered_backends",
]
