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
