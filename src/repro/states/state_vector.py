"""Dense state-vector simulation state.

The workhorse general-purpose representation (and the exact reference all
other representations are tested against).  The state is stored as a
C-contiguous ``(2,)*n`` complex tensor, so the Born oracle's flat gather
is a view.  :func:`apply_matrix` is the one kernel that applies gates and
Kraus operators to it; the density matrix (row, then column axes) and the
batched trajectory tile (a leading batch axis) run the same kernel.

**Kernel classes.**  A ``2^k x 2^k`` matrix on ``k`` axes splits the
tensor into ``2^k`` blocks, one per value of those axes.  The matrix's
nonzero pattern picks the path (one ``count_nonzero`` settles a dense
matrix):

* *diagonal* (Z, S, CZ, projectors): each block is multiplied by its
  phase, in place for a caller that owns the buffer; unit phases are
  skipped;
* *one nonzero per row* (X, Y, CNOT, SWAP, ``sqrt(p)`` times a Pauli):
  each output block is one input block times its entry, written once (a
  plain copy for a unit entry);
* *dense*, and any matrix with an entry that has both a real and an
  imaginary part (T, Z-powers, phased permutations): one ``np.matmul``
  over ``(L, 2^k, R)`` slices when the axes are adjacent and ascending
  and the slices are few or long, else ``tensordot`` plus ``moveaxis``,
  made contiguous.

A gate whose axes all lie in the last five (ascending, if it is dense)
instead runs as one ``matmul`` with the gate expanded to those axes, in
all three classes, once the tensor holds at least 64 rows of it: there,
block views have contiguous runs too short for fast elementwise loops.

**Purity.**  ``apply_matrix`` writes into its input only when called
with ``overwrite=True``.  Only buffer owners pass it (``apply_unitary``
here and in the density matrix, the batched tile's ``apply_record``):
Kraus branching applies several operators to one input.

**Bit identity.**  Every path returns exactly the ``tensordot`` result
with OpenBLAS on x86-64, so seeded samples do not depend on the path
(``tests/test_sv_kernels.py`` pins it).  A BLAS ``zgemm`` rounds both
real products of ``(ur*ar - ui*ai)`` before subtracting, while NumPy's
SIMD complex multiply fuses one of them, so the elementwise paths only
take entries whose products are exact either way (purely real or purely
imaginary).  Zero entries add exact zeros to a BLAS sum, so the expanded
gate sums the same terms in the same order when the axes ascend (or
when there is one term per row).  BLAS rounds the last rows of a count
that is not a multiple of 4 differently, so a tensor with such a block
size takes the ``tensordot`` path.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits.qubits import Qid
from .base import SimulationState, candidate_index_matrix, check_basis_index


@lru_cache(maxsize=4096)
def _block_index(ndim: int, axes: Tuple[int, ...]) -> Tuple[tuple, ...]:
    """Index of each of the ``2^k`` blocks, big-endian over ``axes``.

    The trailing ``...`` keeps a block a view when ``axes`` covers every
    axis; fixing all of them would otherwise yield a scalar.
    """
    k = len(axes)
    blocks = []
    for j in range(1 << k):
        index: List[Union[slice, int]] = [slice(None)] * ndim
        for pos, axis in enumerate(axes):
            index[axis] = (j >> (k - 1 - pos)) & 1
        blocks.append(tuple(index) + (Ellipsis,))
    return tuple(blocks)


#: Largest expanded gate (``2^5``, the last five axes) the kernel builds
#: to apply a gate on a tensor's trailing axes with one ``matmul``.
_TAIL = 32

#: Fewest rows of that operator (or most per-slice BLAS calls) a tensor
#: must hold for one ``matmul`` to beat ``tensordot``'s fixed cost.
_ROWS = 64


def _tensordot(tensor: np.ndarray, u: np.ndarray, axes: Sequence[int]):
    """The reference path: ``tensordot`` then ``moveaxis``, contiguous."""
    k = len(axes)
    moved = np.tensordot(
        u.reshape((2,) * (2 * k)), tensor, axes=(range(k, 2 * k), axes)
    )
    return np.ascontiguousarray(np.moveaxis(moved, range(k), axes))


def _one_per_row(u: np.ndarray) -> Optional[Dict[int, Tuple[int, complex]]]:
    """``{row: (column, entry)}`` if ``u`` has at most one nonzero per row."""
    if np.count_nonzero(u) > len(u):
        return None
    terms = {}
    for r, row in enumerate(u.tolist()):
        nonzero = [(c, x) for c, x in enumerate(row) if x]
        if len(nonzero) > 1:
            return None
        if nonzero:
            terms[r] = nonzero[0]
    return terms


def apply_matrix(
    tensor: np.ndarray,
    u: np.ndarray,
    axes: Sequence[int],
    overwrite: bool = False,
) -> np.ndarray:
    """The ``2^k x 2^k`` matrix ``u`` applied to ``axes`` of ``tensor``.

    ``axes`` are absolute tensor axes, so a batched ``(B, 2, ..., 2)``
    tile passes its qubit support shifted by one.  Returns a C-contiguous
    array equal bit for bit to ``tensordot`` over the axes followed by
    ``moveaxis`` (see the module docstring for the kernel classes).
    ``tensor`` is left unchanged unless ``overwrite`` is set; then a
    diagonal ``u`` may update it in place and it is returned.
    """
    k = len(axes)
    d = 1 << k
    u = np.asarray(u, dtype=np.complex128).reshape(d, d)
    axes = tuple(axes)
    if (tensor.size >> k) % 4:
        return _tensordot(tensor, u, axes)
    terms = _one_per_row(u)
    first = min(axes)
    tail = math.prod(tensor.shape[first:])
    ascending = all(x < y for x, y in zip(axes, axes[1:]))
    if (terms is not None or ascending) and (
        4 <= tail <= _TAIL and _ROWS * tail <= tensor.size
    ):
        # A single term per entry (``terms``) has no summation order.
        span = tail.bit_length() - 1
        eye = np.eye(tail, dtype=np.complex128).reshape((2,) * span + (tail,))
        op = _tensordot(eye, u, [x - first for x in axes]).reshape(tail, tail)
        flat = tensor.reshape(-1, tail)
        out = np.empty(tensor.shape, dtype=np.complex128)
        np.matmul(flat, op.T, out=out.reshape(flat.shape))
        return out
    if terms is not None and all(
        x.real == 0 or x.imag == 0 for _, x in terms.values()
    ):
        blocks = _block_index(tensor.ndim, axes)
        if all(r == col for r, (col, _) in terms.items()):  # diagonal
            out = src = tensor if overwrite else tensor.copy()
        else:
            out, src = np.empty(tensor.shape, dtype=np.complex128), tensor
        for r in range(d):
            col, x = terms.get(r, (r, 0))
            if x != 1:
                np.multiply(src[blocks[col]], x, out=out[blocks[r]])
            elif out is not src:
                out[blocks[r]] = src[blocks[col]]
        return out
    right = tail >> k
    if ascending and axes[-1] == first + k - 1 and right >= 4:
        slices = tensor.reshape(-1, d, right)
        if slices.shape[0] <= _ROWS or right >= _TAIL:
            out = np.empty(tensor.shape, dtype=np.complex128)
            np.matmul(u, slices, out=out.reshape(slices.shape))
            return out
    return _tensordot(tensor, u, axes)


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
        self.tensor = apply_matrix(self.tensor, u, axes, overwrite=True)

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
