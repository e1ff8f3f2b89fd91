"""Compiled execution plans for the BGLS sampler.

The sampler's hot loop historically re-derived per-operation metadata on
every gate application of every repetition: qubit-to-axis lookups, the
``_stabilizer_sequence_`` decomposition, the gate unitary, the
diagonal-unitary check (which rebuilds the matrix and runs ``allclose``),
and the Kraus-branching decision.  None of that depends on the run state —
only on the resolved circuit, the state *type*, and the ``apply_op``
function — so :func:`compile_plan` computes it once per execution into a
flat list of :class:`OpRecord` plain-data entries the run loops iterate
over with zero per-op protocol dispatch.

A plan also records which *fast application path* is sound.  One rule
decides it: ``apply_op`` is the default :func:`repro.protocols.act_on`
and the state class keeps a ``_act_on_`` the library ships (the
registry's ``shipped_dispatch``), so skipping that dispatcher changes
nothing.  Then:

* ``fast_stab`` — on a state with ``apply_stabilizer_sequence``,
  Clifford records apply their cached primitive sequence directly (no
  per-op decomposition, no axis lookups);
* ``fast_unitary`` — on any other state, unitary records call
  ``state.apply_unitary`` with the cached matrix (gates never rebuild
  it).

Any other configuration (custom ``apply_op`` functions, a state class
that overrides ``_act_on_``, on any backend) falls back to calling
``apply_op(op, state)`` for every record.

**Moment fusion.**  When a moment holds several disjoint single-qubit
Clifford gates, compiling them as individual records leaves the run loops
paying the full per-gate constant — ~10 small NumPy calls for a one-column
tableau update plus one resampling round per gate.  :func:`compile_plan`
therefore fuses them (in groups of at most :data:`MAX_FUSED_SUPPORT`
qubits) into a single :class:`FusedOpRecord`: the state update becomes one
batched column pass over the packed GF(2) words
(``apply_single_qubit_moment``) and the sampler resamples the *union*
support once.  Treating the fused group as one ``k``-qubit gate is exactly
as sound as BGLS itself — the group only acts on its union support, so the
off-support marginals are untouched — and the candidate count stays small
because the union is capped.  Fusion engages exactly when the backend's
registry capabilities allow it on the default ``act_on`` fast paths; every
other configuration compiles per-gate records.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..circuits.circuit import Circuit


class OpRecord:
    """One operation of a compiled plan, with all per-op metadata cached."""

    __slots__ = (
        "op",
        "support",
        "is_measurement",
        "measurement_key",
        "stab_seq",
        "unitary",
        "kraus",
        "needs_branching",
        "_diagonal",
    )

    def __init__(self, op, support: Tuple[int, ...]):
        self.op = op
        self.support = support
        self.is_measurement = op.is_measurement
        self.measurement_key = op.measurement_key
        self.needs_branching = False
        self._diagonal: Optional[bool] = None
        if self.is_measurement:
            self.stab_seq = None
            self.unitary = None
            self.kraus = None
        else:
            self.stab_seq = op._stabilizer_sequence_()
            self.unitary = op._unitary_()
            self.kraus = None if self.unitary is not None else op._kraus_()

    def is_diagonal(self) -> bool:
        """Whether the cached unitary is diagonal (computed once, lazily)."""
        if self._diagonal is None:
            u = self.unitary
            self._diagonal = bool(
                u is not None and np.allclose(u, np.diag(np.diagonal(u)))
            )
        return self._diagonal


MAX_FUSED_SUPPORT = 6
"""Cap on a fused group's union support: resampling enumerates ``2^k``
candidates, so fusing beyond ~6 qubits trades a small constant for an
exponential candidate front."""

_FUSIBLE_PRIMS = frozenset({"H", "S", "SDG", "X", "Y", "Z"})


class FusedOpRecord:
    """One moment's disjoint single-qubit Clifford gates as a single step.

    Application runs as one batched column pass when the state implements
    ``apply_single_qubit_moment`` (both stabilizer backends do), or as a
    short unitary loop otherwise; the sampler resamples the union
    ``support`` once instead of once per gate.  Mirrors the parts of the
    :class:`OpRecord` interface the run loops consume.
    """

    __slots__ = (
        "records",
        "axes",
        "seqs",
        "support",
        "is_measurement",
        "measurement_key",
        "kraus",
        "needs_branching",
        "_diagonal",
    )

    def __init__(self, records: List["OpRecord"]):
        self.records = tuple(records)
        self.axes = [rec.support[0] for rec in self.records]
        self.support = tuple(sorted(self.axes))
        # Per-gate (phase, [primitive, ...]) for apply_single_qubit_moment.
        self.seqs = [
            (rec.stab_seq[0], [name for name, _ in rec.stab_seq[1]])
            for rec in self.records
        ]
        self.is_measurement = False
        self.measurement_key = None
        self.kraus = None
        self.needs_branching = False
        self._diagonal: Optional[bool] = None

    def is_diagonal(self) -> bool:
        """Whether every fused gate is diagonal (resampling skippable)."""
        if self._diagonal is None:
            self._diagonal = all(rec.is_diagonal() for rec in self.records)
        return self._diagonal


def _is_fusible(rec: "OpRecord") -> bool:
    """Single-qubit Clifford with both a unitary and batchable primitives."""
    if rec.is_measurement or len(rec.support) != 1:
        return False
    if rec.unitary is None or rec.stab_seq is None:
        return False
    return all(
        name in _FUSIBLE_PRIMS and len(local) == 1
        for name, local in rec.stab_seq[1]
    )


class ExecutionPlan:
    """A resolved circuit flattened into :class:`OpRecord` tuples."""

    __slots__ = (
        "records",
        "key_axes",
        "num_qubits",
        "needs_trajectories",
        "fast_stab",
        "fast_unitary",
    )

    def __init__(
        self,
        records: List[OpRecord],
        key_axes: Dict[str, Tuple[int, ...]],
        num_qubits: int,
        needs_trajectories: bool,
        fast_stab: bool,
        fast_unitary: bool,
    ):
        self.records = records
        self.key_axes = key_axes
        self.num_qubits = num_qubits
        self.needs_trajectories = needs_trajectories
        self.fast_stab = fast_stab
        self.fast_unitary = fast_unitary

    def specialize(self, param_resolver=None) -> "ExecutionPlan":
        """A plan is already resolved: it is its own specialization."""
        return self

    def apply(self, rec: OpRecord, state, apply_op) -> None:
        """Apply a record to ``state`` through the fastest sound path."""
        if type(rec) is FusedOpRecord:
            if self.fast_stab:
                state.apply_single_qubit_moment(rec.seqs, rec.axes)
            elif self.fast_unitary:
                for sub in rec.records:
                    state.apply_unitary(sub.unitary, sub.support)
            else:  # pragma: no cover - fusion compiles only on fast paths
                for sub in rec.records:
                    apply_op(sub.op, state)
            return
        if self.fast_stab and rec.stab_seq is not None:
            state.apply_stabilizer_sequence(rec.stab_seq, rec.support)
        elif self.fast_unitary and rec.unitary is not None:
            state.apply_unitary(rec.unitary, rec.support)
        else:
            apply_op(rec.op, state)


def compile_plan(circuit: Circuit, state, apply_op) -> ExecutionPlan:
    """Compile a resolved circuit into an :class:`ExecutionPlan`.

    Validates the circuit against the state register (unknown qubits,
    duplicate measurement keys) and decides up front whether execution
    needs trajectory mode (stochastic ``apply_op``, non-unitary operations,
    or non-terminal measurements).  Where the backend allows fusion, each
    moment's disjoint single-qubit Clifford gates compile into
    :class:`FusedOpRecord` groups of at most :data:`MAX_FUSED_SUPPORT`
    qubits; groups of one stay plain records.

    All backend-shape questions (stabilizer-sequence dispatch, fused
    moments, shipped dispatch, exact channels) are answered by the
    capability registry — the planner never probes the state object.  The
    compilation walk itself lives in :class:`repro.sampler.program.Program`;
    this function is the one-shot convenience for an already-resolved
    circuit (uncached, one specialization).
    """
    from .program import Program

    return Program(circuit, state, apply_op).specialize(None)
