"""Dense state-vector simulation state.

The workhorse general-purpose representation (and the exact reference all
other representations are tested against).  The state is stored as a
``(2,)*n`` complex tensor; gates and Kraus operators are applied by
:func:`apply_matrix` — ``tensordot`` over the support axes followed by
``moveaxis``, fully vectorized, no Python loop over amplitudes.  The
batched trajectory engine runs the same kernel on its ``(B, 2, ..., 2)``
tiles.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from ..circuits.qubits import Qid
from .base import SimulationState, candidate_index_matrix, check_basis_index


def apply_matrix(
    tensor: np.ndarray, u: np.ndarray, axes: Sequence[int]
) -> np.ndarray:
    """The ``2^k x 2^k`` matrix ``u`` applied to ``axes`` of ``tensor``.

    ``axes`` are absolute tensor axes, so a batched ``(B, 2, ..., 2)``
    tile passes its qubit support shifted by one.  Returns a new tensor
    (``tensordot`` over the axes, then ``moveaxis`` back into place).
    """
    k = len(axes)
    u = np.asarray(u, dtype=np.complex128).reshape((2,) * (2 * k))
    moved = np.tensordot(u, tensor, axes=(range(k, 2 * k), axes))
    return np.moveaxis(moved, range(k), axes)


class StateVectorSimulationState(SimulationState):
    """Pure-state simulation state over a dense ``(2,)*n`` tensor.

    Args:
        qubits: Ordered qubit register (fixes bitstring positions).
        initial_state: Computational-basis index of the initial state
            (big-endian in the register order), or an explicit normalized
            vector of length ``2**n``.
        seed: RNG seed/generator for stochastic branches.
    """

    def __init__(
        self,
        qubits: Sequence[Qid],
        initial_state: Union[int, np.ndarray] = 0,
        seed: Union[int, np.random.Generator, None] = None,
    ):
        super().__init__(qubits, seed)
        n = self.num_qubits
        if isinstance(initial_state, (int, np.integer)):
            tensor = np.zeros(2**n, dtype=np.complex128)
            tensor[check_basis_index(initial_state, n)] = 1.0
        else:
            tensor = np.asarray(initial_state, dtype=np.complex128).reshape(-1)
            if tensor.shape[0] != 2**n:
                raise ValueError(
                    f"State vector has {tensor.shape[0]} amplitudes, "
                    f"expected {2 ** n}"
                )
            norm = np.linalg.norm(tensor)
            if abs(norm - 1.0) > 1e-6:
                raise ValueError(f"Initial state not normalized (norm={norm})")
            tensor = tensor.copy()
        self.tensor = tensor.reshape((2,) * n)

    # -- mutations ---------------------------------------------------------
    def apply_unitary(self, u: np.ndarray, axes: Sequence[int]) -> None:
        self.tensor = apply_matrix(self.tensor, u, axes)

    def apply_channel(self, kraus: List[np.ndarray], axes: Sequence[int]) -> None:
        """Quantum-trajectory Kraus application: pick branch ~ its weight."""
        branch_states = []
        weights = []
        for op in kraus:
            candidate = apply_matrix(self.tensor, op, axes)
            weight = float(np.vdot(candidate, candidate).real)
            branch_states.append(candidate)
            weights.append(weight)
        total = sum(weights)
        if total <= 0:
            raise ValueError("Channel annihilated the state")
        probs = np.asarray(weights) / total
        choice = int(self._rng.choice(len(kraus), p=probs))
        self.tensor = branch_states[choice] / np.sqrt(weights[choice])

    def measure(self, axes: Sequence[int]) -> List[int]:
        """Projective measurement with collapse; returns sampled bits."""
        axes = list(axes)
        other = [i for i in range(self.num_qubits) if i not in axes]
        probs = np.abs(self.tensor) ** 2
        marginal = probs.sum(axis=tuple(other)) if other else probs
        flat = marginal.reshape(-1)
        flat = flat / flat.sum()
        outcome = int(self._rng.choice(flat.shape[0], p=flat))
        bits = [(outcome >> (len(axes) - 1 - i)) & 1 for i in range(len(axes))]
        self.project(axes, bits)
        return bits

    def project(self, axes: Sequence[int], bits: Sequence[int]) -> None:
        """Collapse ``axes`` onto ``bits`` and renormalize."""
        index: List[Union[slice, int]] = [slice(None)] * self.num_qubits
        self.tensor = self.tensor.copy()
        for axis, bit in zip(axes, bits):
            index[axis] = 1 - int(bit)
            self.tensor[tuple(index)] = 0.0
            index[axis] = slice(None)
        norm = np.linalg.norm(self.tensor)
        if norm == 0:
            raise ValueError("Projected onto a zero-probability outcome")
        self.tensor /= norm

    def renormalize(self) -> None:
        """Rescale to unit norm (after non-unitary linear maps)."""
        norm = np.linalg.norm(self.tensor)
        if norm == 0:
            raise ValueError("Cannot renormalize the zero state")
        self.tensor /= norm

    # -- queries -------------------------------------------------------------
    def state_vector(self) -> np.ndarray:
        """The dense state vector of length ``2**n`` (a copy)."""
        return self.tensor.reshape(-1).copy()

    def probability_of(self, bits: Sequence[int]) -> float:
        """Born probability |<bits|psi>|^2 of a full bitstring."""
        return float(np.abs(self.tensor[tuple(int(b) for b in bits)]) ** 2)

    def candidate_probabilities(
        self, bits: Sequence[int], support: Sequence[int]
    ) -> np.ndarray:
        """Probabilities of all ``2^k`` candidates varying over ``support``.

        This is the vectorized inner loop of BGLS for state vectors: fixing
        the non-support bits of ``bits`` and slicing the tensor yields every
        candidate amplitude in one view, no per-candidate recomputation.
        Returned in candidate index order (support bits big-endian).
        """
        index: List[Union[slice, int]] = [int(b) for b in bits]
        for axis in support:
            index[axis] = slice(None)
        block = self.tensor[tuple(index)]
        # Block axes follow ascending state-axis order; permute so axis i
        # corresponds to support[i] (candidate bits are big-endian in the
        # order the support was given).
        if block.ndim > 1:
            ranks = np.argsort(np.argsort(support))
            block = np.transpose(block, axes=ranks)
        probs = np.abs(block) ** 2
        return probs.reshape(-1)

    def candidate_probabilities_many(
        self, bits_list: Sequence[Sequence[int]], support: Sequence[int]
    ) -> np.ndarray:
        """A ``(B, 2^k)`` candidate-probability matrix for ``B`` bitstrings.

        The whole parallel-mode bitstring front is answered with ONE gather
        over the flat amplitude tensor: each row's base index (support bits
        zeroed) plus the ``2^k`` candidate offsets addresses every needed
        amplitude directly, so the cost is ``O(B * 2^k)`` loads with no
        per-bitstring Python dispatch or slicing.
        """
        idx = candidate_index_matrix(bits_list, support, self.num_qubits)
        return np.abs(self.tensor.reshape(-1)[idx]) ** 2

    def copy(self, seed=None) -> "StateVectorSimulationState":
        # type(self), not the literal class: subclasses (registered user
        # backends, method overrides) must survive the copy chain the
        # sampler's run loops depend on.
        out = type(self).__new__(type(self))
        SimulationState.__init__(out, self.qubits, seed)
        out.tensor = self.tensor.copy()
        return out

    def __repr__(self) -> str:
        return (
            f"StateVectorSimulationState(num_qubits={self.num_qubits})"
        )
