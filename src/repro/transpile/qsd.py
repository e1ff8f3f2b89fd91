"""Quantum Shannon decomposition: arbitrary unitaries to CNOT + rotations.

Implements Shende, Bullock & Markov (IEEE TCAD 25, 1000 (2006)): any
``2^n x 2^n`` unitary factors recursively via the cosine-sine decomposition

    U = (u1 (+) u2) . UCRy . (v1 (+) v2)

where the cosine-sine middle factor is a multiplexed Ry on the most
significant qubit, and each block-diagonal factor demultiplexes as

    w1 (+) w2 = (I (x) V) . UCRz . (I (x) W)

with ``V D^2 V^dag = w1 w2^dag`` (eigendecomposition), ``D`` the square
root of the eigenvalues, and ``W = D V^dag w2``.  Recursion bottoms out at
single-qubit ZYZ rotations.

This gives the package a general-purpose compile path: any ``MatrixGate``
(of any width) can be lowered to {Rz, Ry, CNOT}, which every simulation
state supports.  Global phase is tracked and returned, so tests can verify
*exact* equality, not just equality up to phase.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.operations import GateOperation
from ..circuits.qubits import Qid
from .euler import decompose_single_qubit
from .multiplexor import multiplexed_rotation

_ATOL = 1e-9


def _demultiplex(
    w1: np.ndarray, w2: np.ndarray, qubits: Sequence[Qid]
) -> Tuple[float, List[GateOperation]]:
    """Decompose ``w1 (+) w2`` on ``qubits`` (qubits[0] selects the block).

    Returns ``(global_phase, ops)``.
    """
    import scipy.linalg  # on use, to keep `import repro` light

    product = w1 @ w2.conj().T
    # Unitary => normal => complex Schur form is diagonal with unitary Q.
    t, v = scipy.linalg.schur(product, output="complex")
    eigs = np.diagonal(t)
    phases = np.angle(eigs) / 2.0
    # V D^2 V^dag = w1 w2^dag with D = diag(e^{i phi}).  Choosing
    # W = D V^dag w2 gives V D W = w1 and V D^dag W = w2 exactly.
    d = np.exp(1j * phases)
    w = d[:, None] * (v.conj().T @ w2)

    phase_w, ops_w = _decompose(w, qubits[1:])
    # Multiplexed Rz on qubits[0] implementing diag(D, D^dag):
    # Rz angles theta_j = -2 phi_j (so e^{-i theta/2} = e^{i phi} on block 0).
    rz_ops = multiplexed_rotation(
        "z", -2.0 * phases, controls=list(qubits[1:]), target=qubits[0]
    )
    phase_v, ops_v = _decompose(v, qubits[1:])
    return phase_w + phase_v, ops_w + rz_ops + ops_v


def _decompose(
    u: np.ndarray, qubits: Sequence[Qid]
) -> Tuple[float, List[GateOperation]]:
    """Recursive QSD returning ``(global_phase, ops)`` (left to right)."""
    n = len(qubits)
    if n == 1:
        return decompose_single_qubit(u, qubits[0])
    import scipy.linalg

    half = u.shape[0] // 2
    (u1, u2), theta, (v1h, v2h) = scipy.linalg.cossin(
        u, p=half, q=half, separate=True
    )
    phase_v, ops_v = _demultiplex(v1h, v2h, qubits)
    ry_ops = multiplexed_rotation(
        "y", 2.0 * np.asarray(theta), controls=list(qubits[1:]), target=qubits[0]
    )
    phase_u, ops_u = _demultiplex(u1, u2, qubits)
    return phase_v + phase_u, ops_v + ry_ops + ops_u


def quantum_shannon_decompose(
    u: np.ndarray, qubits: Sequence[Qid]
) -> Tuple[float, List[GateOperation]]:
    """Decompose unitary ``u`` over ``qubits`` into {Rz, Ry, CNOT} ops.

    ``qubits[0]`` is the most significant bit of the matrix index (the
    package-wide big-endian convention).  Returns ``(alpha, ops)`` such that
    the ops' composite unitary times ``e^{i alpha}`` equals ``u`` exactly.

    Raises:
        ValueError: If ``u`` is not unitary or its size does not match.
    """
    u = np.asarray(u, dtype=np.complex128)
    n = len(qubits)
    if u.shape != (2**n, 2**n):
        raise ValueError(
            f"Matrix shape {u.shape} does not match {n} qubits"
        )
    if not np.allclose(u.conj().T @ u, np.eye(2**n), atol=1e-8):
        raise ValueError("Matrix is not unitary")
    if n == 0:
        raise ValueError("Need at least one qubit")
    return _decompose(u, list(qubits))


def shannon_circuit(u: np.ndarray, qubits: Sequence[Qid]) -> Circuit:
    """The QSD as a :class:`Circuit` (global phase dropped)."""
    _, ops = quantum_shannon_decompose(u, qubits)
    circuit = Circuit()
    circuit.append(ops)
    return circuit
