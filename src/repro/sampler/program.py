"""Cached, parameter-aware compiled Programs (compile once / run many).

``compile_plan`` gives one resolved circuit one :class:`ExecutionPlan`; this
module adds the layer above it: a :class:`Program` compiles a (possibly
parameterized) circuit's *structure* exactly once — qubit validation,
support axes, measurement keys, unitary/stabilizer-sequence/Kraus caches,
the diagonal flags, moment-fusion grouping — and then *specializes* per
parameter resolver, rebuilding only the records whose gates actually
depend on the resolver.  A 20-point QAOA sweep therefore pays the full
compilation cost once; each sweep point re-derives only its ``Rz``/``Rx``
unitaries, while every Hadamard, CNOT and measurement record (and every
fully parameter-free moment, pre-fused) is shared by all 20 plans.

Programs are cached process-wide, keyed by (circuit fingerprint, qubit
register, state type, ``apply_op``).  The fingerprint is structural —
every gate and qubit of every moment — so mutating a circuit in place
misses the cache and recompiles, while re-running an identical circuit
(even a separately-built equal one) hits.  Cache traffic is observable
through :func:`program_cache_info`, which the plan-cache tests and
``benchmarks/bench_program_cache.py`` use to assert the compile-once
behavior.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple, Union

from ..circuits.circuit import Circuit
from ..circuits.parameters import ParamResolver
from ..protocols.act_on import act_on
from ..states.registry import capabilities_for
from .plan import (
    MAX_FUSED_SUPPORT,
    ExecutionPlan,
    FusedOpRecord,
    OpRecord,
    _is_fusible,
)


def _gate_key(gate):
    """A cache-exact key for one gate.

    Most gates key on themselves (their equality is exact on the defining
    parameters).  ``MatrixGate`` equality is ``np.allclose`` and its hash
    covers only the shape, which would alias nearly-equal matrices (e.g.
    finite-difference perturbations) onto one cached Program — so matrix
    gates key on their exact bytes instead, recursively through controls.
    """
    matrix = getattr(gate, "_matrix", None)
    if matrix is not None:
        return (type(gate).__name__, matrix.shape, matrix.tobytes())
    sub = getattr(gate, "sub_gate", None)
    if sub is not None:
        return (
            type(gate).__name__,
            getattr(gate, "num_controls", None),
            _gate_key(sub),
        )
    return gate


def circuit_fingerprint(circuit: Circuit) -> Tuple:
    """A hashable structural key of a circuit: every (gate, qubits) pair of
    every moment, in order.  Equal circuits fingerprint equal; any in-place
    mutation (appended op, swapped gate, perturbed matrix) changes the
    fingerprint."""
    return tuple(
        tuple((_gate_key(op.gate), op.qubits) for op in moment.operations)
        for moment in circuit.moments
    )


# Bounded size of each Program's per-resolver specialization cache.
_SPECIALIZE_CACHE_MAX = 128
_CACHE_STATS_ZERO = {"hits": 0, "misses": 0, "evictions": 0, "uncachable": 0}


def _resolver_cache_key(resolver) -> Optional[Tuple]:
    """A hashable key for one resolver's assignments, or None.

    :class:`~repro.circuits.parameters.ParamResolver` exposes its
    (name -> float) assignments, which key exactly.  Anything that cannot
    be keyed — a custom resolver object without ``_assignments``, or
    assignments holding unhashable values such as arrays — returns None,
    and ``specialize`` falls back to an uncached rebuild instead of
    guessing at equality.
    """
    assignments = getattr(resolver, "_assignments", None)
    if not isinstance(assignments, dict):
        return None
    try:
        key = tuple(sorted(assignments.items()))
        hash(key)
    except TypeError:
        return None
    return key


class _ParamSlot:
    """A parameterized operation's placeholder in a compiled Program."""

    __slots__ = ("op", "support")

    def __init__(self, op, support: Tuple[int, ...]):
        self.op = op
        self.support = support


class Program:
    """A circuit compiled once against a backend, specializable per resolver.

    The constructor performs all resolver-independent work: register
    validation, measurement-key collection, per-op record construction
    (cached unitaries, stabilizer sequences, Kraus forms, branching
    decisions), fast-path selection through the backend capability
    registry, and moment fusion for every parameter-free moment.
    Parameterized operations compile into :class:`_ParamSlot` placeholders;
    :meth:`specialize` fills them per resolver and re-runs only the fusion
    grouping of the moments that contain them, so the record stream is
    identical to compiling the resolved circuit directly.

    Specializations are memoized per resolved parameter tuple in a
    bounded LRU (``_SPECIALIZE_CACHE_MAX`` entries): an optimizer loop or
    grid refinement revisiting a point gets the *same* plan object back
    without touching the param slots.  Resolvers whose assignments cannot
    be keyed (custom resolver objects, array-valued assignments) fall
    back to an uncached rebuild — always correct, never cached.

    Counters: ``specializations`` increments per specialize call;
    ``shared_record_count``/``param_slot_count`` say how much of the
    circuit is compiled once versus per point;
    :meth:`specialize_cache_info` exposes the memoization traffic
    (hits/misses/evictions/uncachable) for the benchmarks and tests.
    """

    __slots__ = (
        "num_qubits",
        "state_type",
        "apply_op",
        "key_axes",
        "fast_stab",
        "fast_unitary",
        "shared_record_count",
        "param_slot_count",
        "specializations",
        "_can_fuse",
        "_owned_channel",
        "_exact_channels",
        "_stabilizer_backend",
        "_structural_traj",
        "_nonparam_all_unitary",
        "_segments",
        "_base_plan",
        "_plan_cache",
        "_plan_cache_stats",
    )

    def __init__(self, circuit: Circuit, state, apply_op):
        _require_register(state)
        qubit_index = state.qubit_index
        missing = [q for q in circuit.all_qubits() if q not in qubit_index]
        if missing:
            raise ValueError(f"Circuit qubits not in state register: {missing}")
        caps = capabilities_for(state)
        self.num_qubits = len(state.qubits)
        self.state_type = type(state)
        self.apply_op = apply_op
        # The empty tuple owns no gate under isinstance.
        self._owned_channel = getattr(apply_op, "_bgls_owns_channel_", ())
        self._exact_channels = caps.exact_channels
        self._stabilizer_backend = caps.stabilizer_sequences
        # One rule for both fast paths: the default act_on reaching a
        # dispatcher the library ships may be skipped.
        fast = apply_op is act_on and caps.shipped_dispatch
        self.fast_stab = fast and caps.stabilizer_sequences
        self.fast_unitary = fast and not caps.stabilizer_sequences
        self._can_fuse = self.fast_unitary or (
            self.fast_stab and caps.fused_moments
        )

        key_axes: Dict[str, Tuple[int, ...]] = {}
        measured = set()
        all_terminal = True
        nonparam_all_unitary = True
        # Segments: ("fixed", [records...]) stretches are fully compiled
        # (fused) here and shared verbatim by every specialization;
        # ("moment", [entry...]) stretches contain at least one _ParamSlot
        # and re-assemble per resolver.
        segments: List[Tuple[str, list]] = []
        shared_records = 0
        param_slots = 0
        for moment in circuit.moments:
            entries: list = []
            has_param = False
            for op in moment.operations:
                support = tuple(qubit_index[q] for q in op.qubits)
                if any(q in measured for q in op.qubits):
                    all_terminal = False
                if op.is_measurement:
                    key = op.measurement_key
                    if key in key_axes:
                        raise ValueError(f"Duplicate measurement key {key!r}")
                    key_axes[key] = support
                    measured.update(op.qubits)
                    entries.append(OpRecord(op, support))
                    shared_records += 1
                elif op._is_parameterized_():
                    entries.append(_ParamSlot(op, support))
                    has_param = True
                    param_slots += 1
                else:
                    rec = self._finish_record(OpRecord(op, support))
                    if rec.unitary is None:
                        nonparam_all_unitary = False
                    entries.append(rec)
                    shared_records += 1
            if has_param:
                segments.append(("moment", entries))
            else:
                assembled = self._assemble_moment(entries)
                if segments and segments[-1][0] == "fixed":
                    segments[-1][1].extend(assembled)
                else:
                    segments.append(("fixed", assembled))

        self.key_axes = key_axes
        self._segments = segments
        self._structural_traj = (
            getattr(apply_op, "_bgls_stochastic_", False) or not all_terminal
        )
        self._nonparam_all_unitary = nonparam_all_unitary
        self.shared_record_count = shared_records
        self.param_slot_count = param_slots
        self.specializations = 0
        self._base_plan: Optional[ExecutionPlan] = None
        self._plan_cache: "OrderedDict[Tuple, ExecutionPlan]" = OrderedDict()
        self._plan_cache_stats = dict(_CACHE_STATS_ZERO)

    def __getstate__(self):
        """Pickle everything except the per-process specialize cache.

        Programs ship to pool workers inside the warm-pool payload; the
        worker rebuilds its own (initially empty) memoization state
        rather than inheriting — and re-shipping — the parent's cached
        plans.
        """
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot not in ("_plan_cache", "_plan_cache_stats")
        }

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)
        self._plan_cache = OrderedDict()
        self._plan_cache_stats = dict(_CACHE_STATS_ZERO)

    # ------------------------------------------------------------------
    def _finish_record(self, rec: OpRecord) -> OpRecord:
        """Attach the resolver-independent branching decision: a Kraus
        record branches unless the backend applies channels exactly or
        ``apply_op`` owns its channel class.  Stabilizer states cannot
        apply branch operators, so they reject it here, not mid-run."""
        rec.needs_branching = (
            rec.kraus is not None
            and not self._exact_channels
            and not isinstance(getattr(rec.op, "gate", None), self._owned_channel)
        )
        if rec.needs_branching and self._stabilizer_backend:
            raise ValueError(
                f"{self.state_type.__name__} cannot branch the channel "
                f"{rec.op!r} (not Clifford); sample Pauli channels with "
                "act_on_with_pauli_noise."
            )
        return rec

    def _assemble_moment(self, records: list) -> list:
        """One moment's records in final plan order (fused groups first).

        Matches ``compile_plan`` exactly: fusible single-qubit Clifford
        records group into :class:`FusedOpRecord` chunks of at most
        ``MAX_FUSED_SUPPORT`` qubits ahead of the remaining records
        (operations within a moment are disjoint, so reordering is sound);
        groups of one stay plain.
        """
        if not self._can_fuse:
            return list(records)
        fusible: List[OpRecord] = []
        rest: list = []
        for rec in records:
            (fusible if _is_fusible(rec) else rest).append(rec)
        out: list = []
        for start in range(0, len(fusible), MAX_FUSED_SUPPORT):
            group = fusible[start : start + MAX_FUSED_SUPPORT]
            out.append(group[0] if len(group) == 1 else FusedOpRecord(group))
        out.extend(rest)
        return out

    @property
    def is_parameterized(self) -> bool:
        return self.param_slot_count > 0

    @property
    def needs_trajectories(self) -> bool:
        """Whether specializations of this Program run in trajectory mode.

        Computed from compile-time structure alone (no plan build): a
        stochastic ``apply_op``, a mid-circuit measurement, or any
        non-unitary fixed record forces trajectories.  Parameter slots
        resolve to eigen-gate unitaries, so they never flip this after
        specialization; the cost model reads it without specializing.
        """
        return self._structural_traj or not self._nonparam_all_unitary

    def specialize(
        self, param_resolver: Union[ParamResolver, dict, None] = None
    ) -> ExecutionPlan:
        """The :class:`ExecutionPlan` for one resolver assignment.

        Parameter-free programs return one cached plan regardless of the
        resolver (resolution cannot change them).  Parameterized programs
        rebuild only their ``_ParamSlot`` records — everything else,
        including whole pre-fused parameter-free moments, is shared with
        every other specialization of this Program — and the result is
        memoized per resolved parameter tuple, so re-specializing an
        already-seen assignment returns the identical plan object without
        rebuilding anything.
        """
        resolver = (
            ParamResolver(param_resolver)
            if isinstance(param_resolver, dict)
            else param_resolver
        )
        self.specializations += 1
        if self.param_slot_count == 0:
            if self._base_plan is None:
                records: list = []
                for _, entries in self._segments:
                    records.extend(entries)
                self._base_plan = ExecutionPlan(
                    records,
                    self.key_axes,
                    self.num_qubits,
                    self._structural_traj or not self._nonparam_all_unitary,
                    self.fast_stab,
                    self.fast_unitary,
                )
            return self._base_plan
        if resolver is None:
            raise ValueError("Circuit still has unresolved parameters")
        key = _resolver_cache_key(resolver)
        if key is None:
            self._plan_cache_stats["uncachable"] += 1
            return self._build_plan(resolver)
        cached = self._plan_cache.get(key)
        if cached is not None:
            self._plan_cache_stats["hits"] += 1
            self._plan_cache.move_to_end(key)
            return cached
        self._plan_cache_stats["misses"] += 1
        plan = self._build_plan(resolver)
        self._plan_cache[key] = plan
        if len(self._plan_cache) > _SPECIALIZE_CACHE_MAX:
            self._plan_cache.popitem(last=False)
            self._plan_cache_stats["evictions"] += 1
        return plan

    def specialize_cache_info(self) -> Dict[str, int]:
        """Memoization counters: hits, misses, evictions, uncachable, size."""
        return {**self._plan_cache_stats, "size": len(self._plan_cache)}

    def clear_specialize_cache(self) -> None:
        """Drop the memoized plans and reset the counters (tests)."""
        self._plan_cache.clear()
        self._plan_cache_stats = dict(_CACHE_STATS_ZERO)

    def _build_plan(self, resolver) -> ExecutionPlan:
        """Rebuild the ``_ParamSlot`` records for one resolver (uncached)."""
        all_unitary = self._nonparam_all_unitary
        records = []
        for kind, entries in self._segments:
            if kind == "fixed":
                records.extend(entries)
                continue
            moment_records = []
            for entry in entries:
                if type(entry) is _ParamSlot:
                    rec = self._finish_record(
                        OpRecord(entry.op._resolve_parameters_(resolver), entry.support)
                    )
                    if rec.unitary is None:
                        all_unitary = False
                    moment_records.append(rec)
                else:
                    moment_records.append(entry)
            records.extend(self._assemble_moment(moment_records))
        return ExecutionPlan(
            records,
            self.key_axes,
            self.num_qubits,
            self._structural_traj or not all_unitary,
            self.fast_stab,
            self.fast_unitary,
        )


def _require_register(state) -> None:
    """Reject bare backend states (no qubit register) with a typed error.

    Raw engine states like ``StabilizerChForm(num_qubits=2)`` carry
    amplitudes but no qubit register, so the Program path — which keys
    the cache on ``state.qubits`` and maps circuit qubits through
    ``state.qubit_index`` — cannot compile against them.  Instead of the
    opaque ``AttributeError`` that used to escape here, raise a
    ``TypeError`` naming the fix: wrap the engine in its registered
    ``*SimulationState`` sibling, which carries the register (and the
    ``_act_on_`` dispatch every run API needs).
    """
    if not hasattr(state, "qubits") or not hasattr(state, "qubit_index"):
        raise TypeError(
            f"{type(state).__name__} has no qubit register (missing "
            "'qubits'/'qubit_index'), so it cannot be compiled into a "
            "Program. Wrap the bare engine state in its SimulationState "
            f"sibling (e.g. {type(state).__name__}SimulationState(qubits)) "
            "before constructing a Simulator."
        )


# ----------------------------------------------------------------------
# process-wide Program cache
# ----------------------------------------------------------------------

_PROGRAM_CACHE: "OrderedDict[Tuple, Program]" = OrderedDict()
_PROGRAM_CACHE_MAX = 128
_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def compiled_program(circuit: Circuit, state, apply_op) -> Program:
    """The cached :class:`Program` for (circuit, backend, apply_op).

    The key is (structural fingerprint, qubit register, state type,
    ``apply_op``): any in-place circuit mutation or backend swap misses
    and recompiles; identical re-runs and sweeps hit.
    Entries are evicted least-recently-used beyond ``_PROGRAM_CACHE_MAX``.

    A bare backend state without a qubit register raises ``TypeError``
    (see :func:`_require_register`) before the cache key is built.
    """
    _require_register(state)
    key = (
        circuit_fingerprint(circuit),
        tuple(state.qubits),
        type(state),
        apply_op,
    )
    program = _PROGRAM_CACHE.get(key)
    if program is not None:
        _STATS["hits"] += 1
        _PROGRAM_CACHE.move_to_end(key)
        return program
    _STATS["misses"] += 1
    program = Program(circuit, state, apply_op)
    _PROGRAM_CACHE[key] = program
    if len(_PROGRAM_CACHE) > _PROGRAM_CACHE_MAX:
        _PROGRAM_CACHE.popitem(last=False)
        _STATS["evictions"] += 1
    return program


def program_cache_info() -> Dict[str, int]:
    """Cache counters: hits, misses, evictions, current size."""
    return {**_STATS, "size": len(_PROGRAM_CACHE)}


def clear_program_cache() -> None:
    """Drop all cached Programs and reset the counters (tests)."""
    _PROGRAM_CACHE.clear()
    for key in _STATS:
        _STATS[key] = 0


__all__ = [
    "Program",
    "circuit_fingerprint",
    "compiled_program",
    "program_cache_info",
    "clear_program_cache",
]
