"""Contiguous state-vector kernel vs the old ``tensordot`` kernel, 20 qubits.

:func:`repro.states.state_vector.apply_matrix` keeps the amplitude tensor
C-contiguous: diagonal gates multiply blocks in place, permutation-like
gates copy each block once, dense gates run one ``matmul``.  The old
kernel was ``tensordot`` + ``moveaxis``, which left a non-contiguous
tensor that the next gate or Born-oracle gather (``reshape(-1)``) had to
copy; the old column times that copy too.

One row per gate class, each applied at every position of a 20-qubit
state (every axis, or every adjacent pair), chained as in a circuit.
The chained outputs must be bit-for-bit equal before anything is timed.
``check_regressions.py`` gates the ``speedup`` column.
"""

import numpy as np

from repro import circuits as cirq
from repro.states.state_vector import apply_matrix

from conftest import assert_timing_win, print_series, wall_time

QUBITS = 20
REPEATS = 3


def old_kernel(tensor, u, axes):
    """``tensordot`` + ``moveaxis``, then the flat view the oracle takes."""
    k = len(axes)
    u = np.asarray(u, dtype=np.complex128).reshape((2,) * (2 * k))
    moved = np.tensordot(u, tensor, axes=(range(k, 2 * k), axes))
    out = np.moveaxis(moved, range(k), axes)
    out.reshape(-1)
    return out


def new_kernel(tensor, u, axes):
    return apply_matrix(tensor, u, axes, overwrite=True)


def _gates():
    rng = np.random.default_rng(7)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    dense, _ = np.linalg.qr(z)
    singles = [[a] for a in range(QUBITS)]
    pairs = [[a, a + 1] for a in range(QUBITS - 1)]
    return [
        ("Z**0.37", (cirq.Z**0.37)._unitary_(), singles),
        ("CZ", cirq.CZ._unitary_(), pairs),
        ("CNOT", cirq.CNOT._unitary_(), pairs),
        ("SWAP", cirq.SWAP._unitary_(), pairs),
        ("H", cirq.H._unitary_(), singles),
        ("dense 2q", dense, pairs),
    ]


def _chain(kernel, start, u, positions):
    tensor = start.copy()
    for axes in positions:
        tensor = kernel(tensor, u, axes)
    return tensor


def test_contiguous_kernel_vs_tensordot():
    rng = np.random.default_rng(20)
    shape = (2,) * QUBITS
    start = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    start /= np.linalg.norm(start)
    rows = []
    for name, u, positions in _gates():
        assert np.array_equal(
            _chain(new_kernel, start, u, positions),
            _chain(old_kernel, start, u, positions),
        ), name
        old_s = wall_time(lambda: _chain(old_kernel, start, u, positions), REPEATS)
        new_s = wall_time(lambda: _chain(new_kernel, start, u, positions), REPEATS)
        count = len(positions)
        rows.append(
            (name, QUBITS, count, old_s / count * 1e3, new_s / count * 1e3, old_s / new_s)
        )
        assert_timing_win(new_s, old_s, f"{name}: contiguous kernel vs tensordot")
    print_series(
        "SV kernel contiguous vs tensordot 20q",
        ["gate", "qubits", "positions", "old_ms", "new_ms", "speedup"],
        rows,
    )
