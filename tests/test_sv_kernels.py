"""Bit-identity of the contiguous state-vector kernel.

:func:`repro.states.state_vector.apply_matrix` picks an elementwise,
``matmul`` or ``tensordot`` path from the matrix's nonzero pattern and
the tensor's shape.  Every path must return exactly what the original
``tensordot`` + ``moveaxis`` kernel returned (``np.array_equal``, not
``allclose``), so seeded samples never depend on the path taken.  The old
kernel is kept here as the reference.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from repro import circuits as cirq
from repro.sampler.trajectory_batch import BatchedStateVector
from repro.states import DensityMatrixSimulationState, StateVectorSimulationState
from repro.states.state_vector import apply_matrix


def reference(tensor, u, axes):
    """The original kernel: ``tensordot`` over the axes, then ``moveaxis``."""
    k = len(axes)
    u = np.asarray(u, dtype=np.complex128).reshape((2,) * (2 * k))
    moved = np.tensordot(u, tensor, axes=(range(k, 2 * k), axes))
    return np.moveaxis(moved, range(k), axes)


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_tensor(rng, shape):
    t = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return t / np.linalg.norm(t)


_RNG = np.random.default_rng(2024)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]])
_Z = np.diag([1, -1]).astype(complex)
_SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
_CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
_P = 0.03

ONE_QUBIT = {
    # diagonal
    "Z": _Z,
    "S": np.diag([1, 1j]),
    "T": np.diag([1, np.exp(1j * np.pi / 4)]),
    "Z^0.37": np.diag([1, np.exp(0.37j * np.pi)]),
    "proj1": np.diag([0, 1]).astype(complex),
    # monomial
    "X": _X,
    "Y": _Y,
    "sqrt(p)X": np.sqrt(_P / 3) * _X,
    "sqrt(p)Y": np.sqrt(_P / 3) * _Y,
    "sqrt(p)Z": np.sqrt(_P / 3) * _Z,
    "phasedX": np.array([[0, np.exp(-0.3j)], [np.exp(0.3j), 0]]),
    "decay": np.array([[0, np.sqrt(0.1)], [0, 0]], dtype=complex),
    # dense
    "H": np.array([[1, 1], [1, -1]]) / np.sqrt(2),
    "U1": random_unitary(_RNG, 2),
}

TWO_QUBIT = {
    # diagonal
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "D2": np.diag(np.exp(1j * _RNG.normal(size=4))),
    # monomial
    "CNOT": _CNOT,
    "SWAP": _SWAP,
    "phased SWAP": np.diag(np.exp(1j * _RNG.normal(size=4))) @ _SWAP,
    "sqrt(p)XY": np.sqrt(_P / 15) * np.kron(_X, _Y),
    # dense (adjacent, non-adjacent and reversed pairs all come from the
    # pair loop below)
    "U2": random_unitary(_RNG, 4),
}


def _cases(n):
    for name, u in ONE_QUBIT.items():
        for a in range(n):
            yield name, u, (a,)
    for name, u in TWO_QUBIT.items():
        for pair in itertools.permutations(range(n), 2):
            yield name, u, pair


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 10, 12])
def test_every_kernel_class_matches_tensordot_bit_for_bit(n):
    tensor = random_tensor(np.random.default_rng(n), (2,) * n)
    keep = tensor.copy()
    for name, u, axes in _cases(n):
        expected = reference(tensor, u, list(axes))
        got = apply_matrix(tensor, u, axes)
        assert np.array_equal(got, expected), (name, axes)
        assert got.flags.c_contiguous, (name, axes)
        assert np.array_equal(tensor, keep), f"{name} on {axes} wrote its input"
        owned = tensor.copy()
        got = apply_matrix(owned, u, axes, overwrite=True)
        assert np.array_equal(got, expected), (name, axes, "overwrite")


@pytest.mark.parametrize("n", [14, 16])
def test_wide_states_match_tensordot_on_every_axis(n):
    """Wide enough to take the per-slice and trailing-operator ``matmul``
    paths at every position."""
    tensor = random_tensor(np.random.default_rng(n), (2,) * n)
    for name in ("T", "X", "H", "U1"):
        for a in range(n):
            assert np.array_equal(
                apply_matrix(tensor, ONE_QUBIT[name], (a,)),
                reference(tensor, ONE_QUBIT[name], [a]),
            ), (name, a)
    adjacent = [(a, a + 1) for a in range(n - 1)]
    pairs = adjacent + [(b, a) for a, b in adjacent]
    pairs += [(a, n - 1) for a in range(n - 2)]
    for name in ("CZ", "CNOT", "U2"):
        for pair in pairs:
            assert np.array_equal(
                apply_matrix(tensor, TWO_QUBIT[name], pair),
                reference(tensor, TWO_QUBIT[name], list(pair)),
            ), (name, pair)


def test_batched_tile_matches_tensordot():
    rng = np.random.default_rng(5)
    for batch, n in ((3, 4), (4, 1), (8, 9)):
        tile = random_tensor(rng, (batch,) + (2,) * n)
        for name, u, axes in _cases(n):
            shifted = [a + 1 for a in axes]
            expected = reference(tile, u, shifted)
            adapter = BatchedStateVector(tile.copy(), n)
            rec = SimpleNamespace(support=axes, unitary=u)
            adapter.apply_record(None, rec)
            assert np.array_equal(adapter.tensor, expected), (batch, name, axes)
            assert adapter.tensor.flags.c_contiguous


@pytest.mark.parametrize("n", [1, 3, 5])
def test_density_matrix_matches_tensordot(n):
    qubits = cirq.LineQubit.range(n)
    rng = np.random.default_rng(n)
    vec = random_tensor(rng, (2**n,))
    for name, u, axes in _cases(n):
        state = DensityMatrixSimulationState(qubits, initial_state=vec)
        rho = state.tensor.copy()
        expected = reference(
            reference(rho, u, list(axes)), np.conj(u), [a + n for a in axes]
        )
        state.apply_unitary(u, axes)
        assert np.array_equal(state.tensor, expected), (name, axes)


def test_state_vector_tensor_stays_contiguous():
    qubits = cirq.LineQubit.range(5)
    state = StateVectorSimulationState(qubits, seed=3)
    for name, u, axes in _cases(5):
        if name not in ("proj1", "decay"):  # keep the state nonzero
            state.apply_unitary(u / np.linalg.norm(u, 2), axes)
            assert state.tensor.flags.c_contiguous, (name, axes)
    state.renormalize()
    # A chosen Kraus branch, as the Simulator applies it.
    state.apply_unitary(np.sqrt(_P) * _X, [2])
    state.renormalize()
    assert state.tensor.flags.c_contiguous
    state.project([0, 4], [0, 0])
    assert state.tensor.flags.c_contiguous
    assert state.copy().tensor.flags.c_contiguous


def test_state_vector_matches_the_reference_gate_by_gate():
    qubits = cirq.LineQubit.range(8)
    circuit = cirq.generate_random_circuit(qubits, 12, random_state=4)
    state = StateVectorSimulationState(qubits)
    expected = state.tensor.copy()
    for op in circuit.all_operations():
        axes = [q.x for q in op.qubits]
        expected = reference(expected, op._unitary_(), axes)
        state.apply_unitary(op._unitary_(), axes)
        assert np.array_equal(state.tensor, expected), op
