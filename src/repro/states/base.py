"""Base machinery shared by all simulation states.

A *simulation state* owns (1) an ordered qubit register fixing bitstring
positions, (2) a PRNG for stochastic branches (Kraus trajectories,
measurement collapse), and (3) an ``_act_on_`` entry point the
:func:`repro.protocols.act_on` protocol dispatches to.

The act-on flow is Cirq-like: unitary ops apply deterministically; channel
ops apply exactly where the representation allows (density matrices), and
pure states leave the Kraus-branch choice to the sampler (paper Sec.
3.2.1); measurement ops collapse the state and record nothing (the sampler
owns measurement bookkeeping).

The two stabilizer backends (CH form, tableau) are one
:class:`StabilizerSimulationState` over different packed engines, and
those engines share one copy/stack surface, :class:`StabilizerEngine`.
"""

from __future__ import annotations

import abc
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from ..circuits.operations import GateOperation
from ..circuits.qubits import Qid


class SimulationState(abc.ABC):
    """Common base: qubit register, RNG, act-on dispatch."""

    def __init__(
        self,
        qubits: Sequence[Qid],
        seed: Union[int, np.random.Generator, None] = None,
    ):
        self.qubits: Tuple[Qid, ...] = tuple(qubits)
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("Duplicate qubits in state register")
        self.qubit_index: Dict[Qid, int] = {q: i for i, q in enumerate(self.qubits)}
        self._rng = (
            seed
            if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    @property
    def rng(self) -> np.random.Generator:
        return self._rng

    def axes_of(self, op_qubits: Sequence[Qid]) -> List[int]:
        """Map operation qubits to state axes."""
        try:
            return [self.qubit_index[q] for q in op_qubits]
        except KeyError as exc:
            raise ValueError(f"Qubit {exc.args[0]} not in state register") from exc

    # -- act_on dispatch ---------------------------------------------------
    def _act_on_(self, op: GateOperation) -> None:
        """Apply an operation: unitary, channel, or measurement."""
        axes = self.axes_of(op.qubits)
        if op.is_measurement:
            self.measure(axes)
            return
        u = op._unitary_()
        if u is not None:
            self.apply_unitary(u, axes)
            return
        ks = op._kraus_()
        if ks is not None:
            self.apply_channel(ks, axes)
            return
        raise TypeError(f"Cannot apply {op!r}: no unitary or Kraus form")

    # -- abstract state mutations -------------------------------------------
    @abc.abstractmethod
    def apply_unitary(self, u: np.ndarray, axes: Sequence[int]) -> None:
        """Apply the ``2^k x 2^k`` unitary ``u`` to the given axes."""

    def apply_channel(self, kraus: List[np.ndarray], axes: Sequence[int]) -> None:
        """Apply a channel exactly (density matrices); pure states raise,
        since the Simulator picks their Kraus branches."""
        raise ValueError(
            f"{type(self).__name__} does not apply channels; the Simulator "
            "chooses Kraus branches (run the circuit through bgls.Simulator)."
        )

    @abc.abstractmethod
    def measure(self, axes: Sequence[int]) -> List[int]:
        """Measure axes in the computational basis, collapse, return bits."""

    @abc.abstractmethod
    def project(self, axes: Sequence[int], bits: Sequence[int]) -> None:
        """Collapse the given axes onto known outcome ``bits`` (renormalized).

        Used by the BGLS trajectory mode: the tracked bitstring already *is*
        a sample of the mid-circuit measurement, so the state is projected
        onto it rather than re-sampled.
        """

    @abc.abstractmethod
    def copy(self, seed: Union[int, np.random.Generator, None] = None) -> "SimulationState":
        """Deep copy (fresh RNG unless ``seed`` shares one)."""


def check_basis_index(initial_state: int, num_qubits: int) -> int:
    """``initial_state`` as a basis index of a ``num_qubits``-qubit register.

    Raises ``ValueError`` outside ``[0, 2^n)``: a negative index would
    otherwise wrap through NumPy indexing or sign bits, and one past the
    register would be silently truncated.
    """
    index = int(initial_state)
    if not 0 <= index < 2**num_qubits:
        raise ValueError(
            f"initial_state {initial_state} out of range for "
            f"{num_qubits} qubits"
        )
    return index


#: ``_stabilizer_sequence_`` primitive name -> engine method.  Both
#: stabilizer engines (and their batch stacks) implement every method.
STABILIZER_PRIMITIVES = {
    "H": "apply_h",
    "S": "apply_s",
    "SDG": "apply_sdg",
    "X": "apply_x",
    "Y": "apply_y",
    "Z": "apply_z",
    "CX": "apply_cx",
    "CZ": "apply_cz",
}


def apply_primitives(engine, prims, axes: Sequence[int]) -> None:
    """Run ``(name, local_axes)`` primitives on a stabilizer engine.

    ``local_axes`` index into ``axes``, the operation's state axes.
    """
    for name, local in prims:
        try:
            method = STABILIZER_PRIMITIVES[name]
        except KeyError:
            raise ValueError(f"Unknown stabilizer primitive {name!r}") from None
        getattr(engine, method)(*[axes[i] for i in local])


class StabilizerEngine:
    """The copy and stacking surface both packed stabilizer engines share.

    An engine is a few shape attributes (``_SHAPE``) plus the state
    fields named in ``_FIELDS``.  Its stack type ``_STACK`` holds the same
    fields with a leading trajectory axis, so one field list drives
    :meth:`copy`, :meth:`stack` and the stack's ``take``/``view``.
    """

    _SHAPE: Tuple[str, ...] = ("n", "_w")
    _FIELDS: Tuple[str, ...] = ()
    _STACK: type

    def _fields(self) -> list:
        return [getattr(self, name) for name in self._FIELDS]

    def _with_fields(self, cls: type, values) -> "StabilizerEngine":
        """A ``cls`` engine of this engine's shape holding ``values``."""
        out = cls.__new__(cls)
        for name in self._SHAPE:
            setattr(out, name, getattr(self, name))
        for name, value in zip(self._FIELDS, values):
            setattr(out, name, value)
        return out

    def copy(self) -> "StabilizerEngine":
        """A deep copy; a scalar field (CH's ``omega``) is immutable."""
        return self._with_fields(
            type(self),
            [
                v.copy() if isinstance(v, np.ndarray) else v
                for v in self._fields()
            ],
        )

    def stack(self, batch: int) -> "StackedEngine":
        """``batch`` independent copies as one stacked-word computation."""
        batch = int(batch)
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        return self._with_fields(
            self._STACK,
            [
                np.broadcast_to(v, (batch,) + np.shape(v)).copy()
                for v in self._fields()
            ],
        )

    def project(self, axes: Sequence[int], bits: Sequence[int]) -> None:
        """Collapse ``axes`` onto ``bits``; a zero-probability outcome
        raises ``ValueError``."""
        for axis, bit in zip(axes, bits):
            if self.project_measurement(axis, int(bit)) == 0.0:
                raise ValueError(
                    f"Projection of qubit axis {axis} onto {int(bit)} has "
                    "zero probability"
                )


class StackedEngine(StabilizerEngine):
    """``B`` engines of type ``_SCALAR`` stacked on a leading axis.

    A concrete stack also derives from ``_SCALAR``, whose ``...``-indexed
    gate updates then run on all ``B`` rows in one NumPy call.
    """

    _SCALAR: type

    @property
    def batch(self) -> int:
        return len(getattr(self, self._FIELDS[0]))

    def take(self, rows: np.ndarray) -> "StackedEngine":
        """A new stack of copies of ``rows`` (repeats allowed)."""
        return self._with_fields(type(self), [v[rows] for v in self._fields()])

    def view(self, b: int) -> StabilizerEngine:
        """Trajectory ``b`` as a scalar engine aliasing the stack.

        Array rows are zero-copy views, so in-place updates land in the
        stack.  A field holding one scalar per trajectory (CH's
        ``omega``) comes out as a Python scalar; a scalar kernel that
        rebinds a field must write it back (``StackedChForms.store``).
        """
        values = []
        for v in self._fields():
            row = v[b]
            values.append(row if isinstance(row, np.ndarray) else row.item())
        return self._with_fields(self._SCALAR, values)

    def probability_of(self, bits: Sequence[int]) -> np.ndarray:
        """The Born probability of ``bits`` under each trajectory: a
        ``(B,)`` vector, the ``k = 0`` column of the stack's
        ``candidate_probabilities_many``."""
        return self.candidate_probabilities_many([bits] * self.batch, [])[:, 0]


#: A settable alias of :attr:`StabilizerSimulationState.engine` under a
#: backend's own name (``ch_form``, ``tableau``).
engine_alias = property(
    lambda self: self.engine,
    lambda self, engine: setattr(self, "engine", engine),
    doc="The stabilizer engine (another name for ``engine``).",
)


class StabilizerSimulationState(SimulationState):
    """A simulation state held in one packed stabilizer engine.

    A backend names its ``_engine_type`` (constructed as
    ``_engine_type(num_qubits, initial_state)``) and its snapshot
    ``_payload_tag``; this class owns the act-on dispatch, measurement,
    projection, Born queries, copies, and the warm-pool snapshot pair.
    Gates apply through their ``_stabilizer_sequence_`` decomposition;
    non-Clifford operations raise ``ValueError``, as in Cirq's stabilizer
    simulator, unless routed through
    :func:`repro.sampler.act_on_near_clifford` on the CH form (paper
    Sec. 4.2).
    """

    _engine_type: type
    _payload_tag: str

    def __init__(
        self,
        qubits: Sequence[Qid],
        initial_state: int = 0,
        seed: Union[int, np.random.Generator, None] = None,
    ):
        super().__init__(qubits, seed)
        self.engine = self._engine_type(len(self.qubits), initial_state)

    def _act_on_(self, op: GateOperation) -> None:
        axes = self.axes_of(op.qubits)
        if op.is_measurement:
            self.measure(axes)
            return
        seq = op._stabilizer_sequence_()
        if seq is None:
            raise ValueError(
                f"Operation {op!r} is not a Clifford primitive; "
                f"{type(self).__name__} runs Clifford circuits only (use "
                "act_on_near_clifford on the CH form for Clifford+Rz)."
            )
        self.apply_stabilizer_sequence(seq, axes)

    def apply_stabilizer_sequence(self, seq, axes: Sequence[int]) -> None:
        """Apply a ``(phase, [(primitive, local_axes)])`` decomposition."""
        self.engine.apply_stabilizer_sequence(seq, axes)

    def apply_single_qubit_moment(
        self, seqs: Sequence, axes: Sequence[int]
    ) -> None:
        """Apply one single-qubit Clifford gate per (disjoint) axis."""
        self.engine.apply_single_qubit_moment(seqs, axes)

    def apply_unitary(self, u: np.ndarray, axes: Sequence[int]) -> None:
        raise ValueError(
            f"{type(self).__name__} cannot apply raw unitaries; "
            "gates must provide a stabilizer decomposition."
        )

    def measure(self, axes: Sequence[int]) -> List[int]:
        return [self.engine.measure(axis, self._rng) for axis in axes]

    def project(self, axes: Sequence[int], bits: Sequence[int]) -> None:
        self.engine.project(axes, bits)

    def probability_of(self, bits: Sequence[int]) -> float:
        """Born probability of a full bitstring."""
        return self.engine.probability_of(bits)

    def candidate_probabilities_many(
        self, bits_list: Sequence[Sequence[int]], support: Sequence[int]
    ) -> np.ndarray:
        """Candidate probabilities for many tracked bitstrings at once."""
        return self.engine.candidate_probabilities_many(bits_list, support)

    def copy(self, seed=None) -> "StabilizerSimulationState":
        out = type(self).__new__(type(self))  # preserve subclasses
        SimulationState.__init__(out, self.qubits, seed)
        out.engine = self.engine.copy()
        return out

    # -- registry snapshot hooks (warm-pool worker shipping) ----------------
    def snapshot(self) -> Tuple:
        """``(tag, qubits) + engine.to_words()``: the engine as raw words.

        Smaller than pickling the state object (no RNG, no qubit-index
        dict, no ndarray envelopes) and ``==``-comparable, so the warm
        pool keys worker initialization on the payload content.
        """
        return (self._payload_tag, tuple(self.qubits)) + self.engine.to_words()

    @classmethod
    def restore(cls, payload: Tuple) -> "StabilizerSimulationState":
        """Inverse of :meth:`snapshot`; the restored state gets a fresh
        RNG (the sampler re-seeds every copy it takes)."""
        tag, qubits = payload[0], payload[1]
        if tag != cls._payload_tag:
            raise ValueError(f"Not a {cls.__name__} snapshot payload: {tag!r}")
        state = cls.__new__(cls)
        SimulationState.__init__(state, qubits, None)
        state.engine = cls._engine_type.from_words(*payload[2:])
        return state

    def __repr__(self) -> str:
        return f"{type(self).__name__}(num_qubits={self.num_qubits})"


def candidate_index_matrix(
    bits_list: Sequence[Sequence[int]], support: Sequence[int], n: int
) -> np.ndarray:
    """Flat big-endian indices of every candidate of every bitstring.

    Entry ``[b, idx]`` is the computational-basis index of the candidate
    that agrees with ``bits_list[b]`` off ``support`` and encodes
    ``support[pos]`` at bit ``k - 1 - pos`` of ``idx`` (the BGLS
    convention).  Shared by the dense backends' batched oracles: the
    returned ``(B, 2^k)`` matrix gathers directly from a flat amplitude
    vector or a density-matrix diagonal.
    """
    base = np.asarray(bits_list, dtype=np.int64)
    if base.ndim != 2 or base.shape[1] != n:
        raise ValueError(f"Expected (B, {n}) bitstrings, got {base.shape}")
    off_weights, offsets = _candidate_tables(tuple(map(int, support)), n)
    return np.add.outer(base @ off_weights, offsets)


@lru_cache(maxsize=512)
def _candidate_tables(
    support: Tuple[int, ...], n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(support, n)`` tables of :func:`candidate_index_matrix`.

    ``off_weights`` are the big-endian bit weights with the support's
    zeroed, so ``bits @ off_weights`` is a row's base index; ``offsets``
    are the ``2^k`` candidate offsets added to it.  Cached because a
    circuit revisits few supports, and a one-row query (trajectory mode)
    would otherwise spend most of its time rebuilding them.  Read-only:
    every caller shares them.
    """
    k = len(support)
    weights = np.left_shift(np.int64(1), n - 1 - np.arange(n, dtype=np.int64))
    patterns = (
        np.arange(2**k, dtype=np.int64)[:, None]
        >> np.arange(k - 1, -1, -1, dtype=np.int64)[None, :]
    ) & 1
    offsets = patterns @ weights[list(support)]
    weights[list(support)] = 0
    weights.flags.writeable = False
    offsets.flags.writeable = False
    return weights, offsets


def bits_to_index(bits: Sequence[int]) -> int:
    """Big-endian bits -> integer index (qubit 0 is the most significant)."""
    index = 0
    for b in bits:
        index = (index << 1) | int(b)
    return index


def index_to_bits(index: int, width: int) -> Tuple[int, ...]:
    """Integer -> big-endian bit tuple of the given width."""
    return tuple((index >> (width - 1 - i)) & 1 for i in range(width))
