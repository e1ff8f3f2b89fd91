"""Backend capability registry: declare a state backend's fast paths once.

Before this module existed, the sampler stack discovered what a state
backend could do in scattered places: ``born/__init__.py`` kept
per-function maps from scalar Born oracles to their batched siblings, and
``sampler/plan.py`` probed ``hasattr(state, "apply_stabilizer_sequence")``
(and friends) on every compile.  A user state — "any object with
``copy``/``qubit_index``" per the BGLS contract — could never reach the
batched candidate paths because the maps were closed.

This registry is the single seam.  Each backend registers one
:class:`BackendCapabilities` descriptor naming

* its scalar Born oracle(s) and its candidate oracle, which answers a
  ``(B, 2^k)`` row block of candidate probabilities for ``B`` tracked
  bitstrings (by default the state's ``candidate_probabilities_many``),
* which *application* fast paths are sound (stabilizer-sequence
  dispatch, fused single-qubit moments, base unitary dispatch),
* bookkeeping flags (``renormalize`` support, exact channel
  application), and
* optional ``snapshot``/``restore`` hooks the process-pool executor uses
  to ship the initial state to workers in packed form.  Payloads must be
  picklable and ``==``-comparable (prefer plain tuples of bytes/ints):
  the warm-pool service (:mod:`repro.sampler.service`) compares them to
  decide whether already-initialized workers can be reused.  The shipped
  bit-packed tableau and CH-form backends implement the hooks with raw
  ``uint64`` word payloads, and the MPS backend with raw tensor bytes
  plus bond metadata; see the README "snapshot-hook contract".

Shipped backends register at import time (see :mod:`repro.born`); user
backends call :func:`register_backend` and immediately get the same fast
paths as built-ins — including the row-block candidate oracle.
States that never register still work: :func:`capabilities_for` derives a
descriptor by introspecting the class once and caches it, which preserves
the old ``hasattr`` behavior without re-probing per compile.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .base import SimulationState


def _candidates_many_via_state(state, bits_list, support):
    """Default candidate oracle: delegate to the state's own method."""
    return state.candidate_probabilities_many(bits_list, support)


class BackendCapabilities:
    """What one state backend can do, declared once at registration.

    Attributes:
        state_type: The simulation-state class this descriptor covers.
        name: Human-readable backend name (diagnostics, README tables).
        compute_probability: The canonical scalar Born oracle
            ``(state, bits) -> float`` for this backend, or None.
        candidates_many: The candidate oracle
            ``(state, bits_list, support) -> ndarray[(B, 2^k)]``: row ``b``
            holds the ``2^k`` candidate probabilities of ``bits_list[b]``
            over ``support``.  Parallel mode asks it for the whole front,
            trajectory mode for one row.  None means the sampler loops
            over the scalar oracle per candidate.
        stabilizer_sequences: The state applies cached
            ``(phase, primitives)`` decompositions via
            ``apply_stabilizer_sequence`` (the plan's ``fast_stab`` path).
        fused_moments: The state batches a moment of disjoint single-qubit
            Clifford gates via ``apply_single_qubit_moment``.
        base_unitary_dispatch: The state uses the base ``SimulationState``
            act-on dispatch, so plans may call ``apply_unitary`` with the
            record's cached matrix (the plan's ``fast_unitary`` path).
        renormalize: The state exposes ``renormalize()`` (used after
            non-unitary Kraus branches).
        exact_channels: Channels apply exactly (density matrices) instead
            of branching stochastically.
        snapshot: Optional ``(state) -> payload`` producing a compact
            picklable payload for process-pool workers; None means the
            state object itself is pickled.
        restore: Inverse of ``snapshot``; required iff ``snapshot`` is set.
        batched_trajectories: Optional hook advertising a batched
            trajectory adapter for this backend: the adapter class itself,
            or a zero-argument callable returning it (the lazy-import
            form the shipped backends use).  The adapter must expose
            ``supports_plan(plan) -> bool`` and
            ``from_state(state, batch) -> adapter`` classmethods plus the
            per-record batch interface consumed by
            :mod:`repro.sampler.trajectory_batch`.  An adapter holds one
            row per distinct trajectory state and an ``owner`` map from
            each of the ``batch`` trajectories to its row: ``from_state``
            starts with one row owned by all of them, and the adapter
            splits rows only where trajectories diverge.  None (the default)
            means trajectory mode always runs the serial per-repetition
            loop for this backend.
    """

    __slots__ = (
        "state_type",
        "name",
        "compute_probability",
        "candidates_many",
        "stabilizer_sequences",
        "fused_moments",
        "base_unitary_dispatch",
        "renormalize",
        "exact_channels",
        "snapshot",
        "restore",
        "batched_trajectories",
    )

    def __init__(
        self,
        state_type: type,
        name: str,
        compute_probability: Optional[Callable],
        candidates_many: Optional[Callable],
        stabilizer_sequences: bool,
        fused_moments: bool,
        base_unitary_dispatch: bool,
        renormalize: bool,
        exact_channels: bool,
        snapshot: Optional[Callable],
        restore: Optional[Callable],
        batched_trajectories: Optional[Callable] = None,
    ):
        self.state_type = state_type
        self.name = name
        self.compute_probability = compute_probability
        self.candidates_many = candidates_many
        self.stabilizer_sequences = stabilizer_sequences
        self.fused_moments = fused_moments
        self.base_unitary_dispatch = base_unitary_dispatch
        self.renormalize = renormalize
        self.exact_channels = exact_channels
        self.snapshot = snapshot
        self.restore = restore
        self.batched_trajectories = batched_trajectories

    def __repr__(self) -> str:
        flags = [
            flag
            for flag, on in [
                ("stab_seq", self.stabilizer_sequences),
                ("fused_moments", self.fused_moments),
                ("base_unitary", self.base_unitary_dispatch),
                ("renormalize", self.renormalize),
                ("exact_channels", self.exact_channels),
                ("many_front", self.candidates_many is not None),
                ("snapshot", self.snapshot is not None),
                ("batched_traj", self.batched_trajectories is not None),
            ]
            if on
        ]
        return f"BackendCapabilities({self.name!r}, {'|'.join(flags) or 'none'})"


_REGISTRY: Dict[type, BackendCapabilities] = {}
_DERIVED: Dict[type, BackendCapabilities] = {}
# Subclasses of a registered backend that override _act_on_ get a cached
# per-subclass copy of the parent descriptor with base_unitary_dispatch
# off (keyed by subclass, validated against the parent descriptor).
_SPECIALIZED: Dict[type, Tuple[BackendCapabilities, BackendCapabilities]] = {}
_BY_PROBABILITY_FN: Dict[Callable, BackendCapabilities] = {}


def _derive(state_type: type, **overrides) -> BackendCapabilities:
    """Introspect a state class once into a capabilities descriptor.

    Explicit keyword overrides win; everything else is derived from the
    class surface (the same checks the old per-compile probes ran, now
    executed exactly once per type).
    """
    base_dispatch = (
        getattr(state_type, "_act_on_", None) is SimulationState._act_on_
    )
    derived = dict(
        name=state_type.__name__,
        compute_probability=None,
        candidates_many=(
            _candidates_many_via_state
            if hasattr(state_type, "candidate_probabilities_many")
            else None
        ),
        stabilizer_sequences=hasattr(state_type, "apply_stabilizer_sequence"),
        fused_moments=hasattr(state_type, "apply_single_qubit_moment"),
        base_unitary_dispatch=base_dispatch,
        renormalize=hasattr(state_type, "renormalize"),
        exact_channels=bool(getattr(state_type, "_exact_channels_", False)),
        snapshot=None,
        restore=None,
        batched_trajectories=None,
    )
    for key, value in overrides.items():
        if key not in derived:
            raise TypeError(f"Unknown capability {key!r}")
        if value is not None or key in ("compute_probability", "snapshot", "restore"):
            derived[key] = value
    return BackendCapabilities(state_type, **derived)


def register_backend(
    state_type: type,
    *,
    compute_probability: Optional[Callable] = None,
    scalar_aliases: Iterable[Callable] = (),
    candidates_many: Optional[Callable] = None,
    stabilizer_sequences: Optional[bool] = None,
    fused_moments: Optional[bool] = None,
    base_unitary_dispatch: Optional[bool] = None,
    renormalize: Optional[bool] = None,
    exact_channels: Optional[bool] = None,
    snapshot: Optional[Callable] = None,
    restore: Optional[Callable] = None,
    batched_trajectories: Optional[Callable] = None,
    name: Optional[str] = None,
) -> BackendCapabilities:
    """Register (or re-register) a state backend's capabilities.

    Every argument except ``state_type`` is optional: omitted capability
    flags are derived by introspecting the class (``None`` means "derive"),
    so the minimal user registration is::

        register_backend(MyState, compute_probability=my_born_fn)

    which is enough for :class:`repro.sampler.Simulator` to send
    ``my_born_fn``'s candidate queries to
    ``MyState.candidate_probabilities_many`` when that method exists — the
    row-block oracle the shipped backends use.  ``candidates_many``
    overrides that default with any ``(state, bits_list, support) ->
    (B, 2^k)`` function.  ``scalar_aliases`` maps additional scalar
    functions (e.g. a paper-listing alias) to the same descriptor.

    Returns the registered descriptor.
    """
    if (snapshot is None) != (restore is None):
        raise ValueError("snapshot and restore must be provided together")
    caps = _derive(
        state_type,
        name=name,
        compute_probability=compute_probability,
        candidates_many=candidates_many,
        stabilizer_sequences=stabilizer_sequences,
        fused_moments=fused_moments,
        base_unitary_dispatch=base_unitary_dispatch,
        renormalize=renormalize,
        exact_channels=exact_channels,
        snapshot=snapshot,
        restore=restore,
        batched_trajectories=batched_trajectories,
    )
    previous = _REGISTRY.get(state_type)
    if previous is not None:
        _purge_probability_fns(previous)
    _REGISTRY[state_type] = caps
    _DERIVED.pop(state_type, None)
    if compute_probability is not None:
        _BY_PROBABILITY_FN[compute_probability] = caps
    for alias in scalar_aliases:
        _BY_PROBABILITY_FN[alias] = caps
    return caps


def _purge_probability_fns(caps: BackendCapabilities) -> None:
    """Drop every scalar-function mapping owned by ``caps``."""
    for fn, owner in list(_BY_PROBABILITY_FN.items()):
        if owner is caps:
            del _BY_PROBABILITY_FN[fn]


def unregister_backend(state_type: type) -> None:
    """Remove a backend registration (primarily for tests)."""
    caps = _REGISTRY.pop(state_type, None)
    _DERIVED.pop(state_type, None)
    if caps is not None:
        _purge_probability_fns(caps)


def capabilities_for(state_or_type) -> BackendCapabilities:
    """The capabilities descriptor for a state instance or class.

    Resolution order: exact registered type, registered base class (MRO
    order), then a derived-and-cached descriptor from one-time class
    introspection.  Never returns None — unregistered user states get the
    introspected defaults, which reproduce the legacy ``hasattr`` probes.

    A subclass inheriting a parent's descriptor keeps the parent's oracle
    functions, but ``base_unitary_dispatch`` is type-identity-sensitive:
    a subclass that overrides ``_act_on_`` must not be fast-pathed around
    its own dispatch, so it gets a specialized copy with that flag
    re-derived (cached per subclass).
    """
    tp = state_or_type if isinstance(state_or_type, type) else type(state_or_type)
    caps = _REGISTRY.get(tp)
    if caps is not None:
        return caps
    for base in tp.__mro__[1:]:
        caps = _REGISTRY.get(base)
        if caps is not None:
            if caps.base_unitary_dispatch and (
                getattr(tp, "_act_on_", None) is not SimulationState._act_on_
            ):
                cached = _SPECIALIZED.get(tp)
                if cached is not None and cached[0] is caps:
                    return cached[1]
                spec = BackendCapabilities(
                    tp,
                    caps.name,
                    caps.compute_probability,
                    caps.candidates_many,
                    caps.stabilizer_sequences,
                    caps.fused_moments,
                    False,
                    caps.renormalize,
                    caps.exact_channels,
                    caps.snapshot,
                    caps.restore,
                    # Overridden _act_on_ invalidates the batched engine's
                    # record application too: the subclass runs serially.
                    None,
                )
                _SPECIALIZED[tp] = (caps, spec)
                return spec
            return caps
    caps = _DERIVED.get(tp)
    if caps is None:
        caps = _derive(tp)
        _DERIVED[tp] = caps
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
