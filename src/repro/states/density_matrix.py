"""Dense density-matrix simulation state.

Stored as a ``(2,)*2n`` tensor (row axes 0..n-1, column axes n..2n-1).
Channels apply *exactly* (summed over Kraus branches) rather than by
trajectories, so a single run reproduces the mixed state; the BGLS sampler
then samples bitstrings from the diagonal via candidate probabilities.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from ..circuits.qubits import Qid
from .base import SimulationState, candidate_index_matrix, check_basis_index
from .state_vector import apply_matrix


class DensityMatrixSimulationState(SimulationState):
    """Mixed-state simulation state.

    Class attribute ``_exact_channels_`` tells the BGLS sampler that
    channels apply deterministically here (no trajectory branching needed).

    Args:
        qubits: Ordered qubit register.
        initial_state: Basis index, a pure state vector, or a full density
            matrix of shape ``(2**n, 2**n)``.
        seed: RNG seed/generator (used only by measurement collapse).
    """

    _exact_channels_ = True

    def __init__(
        self,
        qubits: Sequence[Qid],
        initial_state: Union[int, np.ndarray] = 0,
        seed: Union[int, np.random.Generator, None] = None,
    ):
        super().__init__(qubits, seed)
        n = self.num_qubits
        dim = 2**n
        if isinstance(initial_state, (int, np.integer)):
            rho = np.zeros((dim, dim), dtype=np.complex128)
            index = check_basis_index(initial_state, n)
            rho[index, index] = 1.0
        else:
            arr = np.asarray(initial_state, dtype=np.complex128)
            if arr.ndim == 1 or (arr.ndim == 2 and 1 in arr.shape):
                vec = arr.reshape(-1)
                if vec.shape[0] != dim:
                    raise ValueError(f"Expected {dim} amplitudes, got {vec.shape[0]}")
                rho = np.outer(vec, vec.conj())
            elif arr.shape == (dim, dim):
                rho = arr.copy()
                if abs(np.trace(rho) - 1.0) > 1e-6:
                    raise ValueError("Density matrix must have unit trace")
            else:
                raise ValueError(f"Bad initial_state shape {arr.shape}")
        self.tensor = rho.reshape((2,) * (2 * n))

    # -- internals ---------------------------------------------------------
    def _left_right_apply(
        self, op: np.ndarray, axes: Sequence[int], overwrite: bool = False
    ) -> np.ndarray:
        """Return ``op rho op^dag`` on the given qubit axes.

        ``overwrite`` lets the row pass update ``self.tensor`` in place;
        the column pass always owns its input.
        """
        n = self.num_qubits
        out = apply_matrix(self.tensor, op, axes, overwrite=overwrite)
        cols = [a + n for a in axes]
        return apply_matrix(out, np.conj(op), cols, overwrite=True)

    # -- mutations ------------------------------------------------------------
    def apply_unitary(self, u: np.ndarray, axes: Sequence[int]) -> None:
        self.tensor = self._left_right_apply(u, axes, overwrite=True)

    def apply_channel(self, kraus: List[np.ndarray], axes: Sequence[int]) -> None:
        """Exact channel application: rho <- sum_k K rho K^dag."""
        total = None
        for op in kraus:
            term = self._left_right_apply(op, axes)
            total = term if total is None else total + term
        self.tensor = total

    def measure(self, axes: Sequence[int]) -> List[int]:
        axes = list(axes)
        n = self.num_qubits
        diag = self.diagonal_probabilities().reshape((2,) * n)
        other = tuple(i for i in range(n) if i not in axes)
        marginal = diag.sum(axis=other) if other else diag
        flat = marginal.reshape(-1)
        flat = flat / flat.sum()
        outcome = int(self._rng.choice(flat.shape[0], p=flat))
        bits = [(outcome >> (len(axes) - 1 - i)) & 1 for i in range(len(axes))]
        self.project(axes, bits)
        return bits

    def project(self, axes: Sequence[int], bits: Sequence[int]) -> None:
        """Collapse ``axes`` onto ``bits`` (rows and columns) and renormalize."""
        n = self.num_qubits
        index: List[Union[slice, int]] = [slice(None)] * (2 * n)
        self.tensor = self.tensor.copy()
        for axis, bit in zip(axes, bits):
            for offset in (0, n):
                index[axis + offset] = 1 - int(bit)
                self.tensor[tuple(index)] = 0.0
                index[axis + offset] = slice(None)
        trace = float(
            np.real(np.trace(self.tensor.reshape(2**n, 2**n)))
        )
        if trace <= 0:
            raise ValueError("Projected onto a zero-probability outcome")
        self.tensor /= trace

    # -- queries -----------------------------------------------------------------
    def density_matrix(self) -> np.ndarray:
        """The dense ``(2**n, 2**n)`` density matrix (a copy)."""
        dim = 2**self.num_qubits
        return self.tensor.reshape(dim, dim).copy()

    def diagonal_probabilities(self) -> np.ndarray:
        """Born probabilities of all ``2**n`` bitstrings (the diagonal)."""
        dim = 2**self.num_qubits
        return np.real(np.diagonal(self.tensor.reshape(dim, dim))).copy()

    def probability_of(self, bits: Sequence[int]) -> float:
        """Born probability of a full bitstring."""
        idx = tuple(int(b) for b in bits)
        return float(np.real(self.tensor[idx + idx]))

    def candidate_probabilities_many(
        self, bits_list: Sequence[Sequence[int]], support: Sequence[int]
    ) -> np.ndarray:
        """A ``(B, 2^k)`` candidate-probability matrix for ``B`` bitstrings.

        One fancy-indexed gather over the density-matrix diagonal answers
        the whole tracked-bitstring front of a parallel-mode resampling
        step; no per-bitstring tensor slicing.
        """
        n = self.num_qubits
        idx = candidate_index_matrix(bits_list, support, n)
        rho = self.tensor.reshape(2**n, 2**n)
        return np.real(rho[idx, idx])

    def copy(self, seed=None) -> "DensityMatrixSimulationState":
        out = type(self).__new__(type(self))  # preserve subclasses
        SimulationState.__init__(out, self.qubits, seed)
        out.tensor = self.tensor.copy()
        return out

    def __repr__(self) -> str:
        return f"DensityMatrixSimulationState(num_qubits={self.num_qubits})"
