"""Variational quantum eigensolver for the transverse-field Ising model.

Hamiltonian on an open chain of ``n`` spins:

    H = -J sum_i Z_i Z_{i+1} - h sum_i X_i

The ansatz is the standard hardware-efficient alternation of ZZ-coupling
layers (CNOT - Rz - CNOT) and Rx mixers.  Energy is estimated from two
measurement settings — Z basis for the coupling terms and X basis for the
field terms — using any bitstring sampler, i.e. exactly the interface the
BGLS simulator provides.  An exact dense diagonalization is included for
verification at small ``n``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits import (
    CNOT,
    Circuit,
    H,
    LineQubit,
    ParamResolver,
    Qid,
    Rx,
    Rz,
    Symbol,
    measure,
)
from .sampling import sample_bits as _sample_bits

SamplerFn = Callable[[Circuit, int], np.ndarray]
"""``(resolved_circuit, repetitions) -> (reps, n) bit array``.

A :class:`repro.sampler.Simulator` is accepted anywhere a ``SamplerFn``
is (drawn through its ``sample_bitstrings`` API).  A Simulator with a
pooled executor keeps its worker pool warm across calls: the pool is
keyed on the initial state and simulator config, never on the circuit,
so the two bases of the final sampled re-estimation in
:func:`optimize_tfim` share one pool."""


@dataclass(frozen=True)
class TFIMProblem:
    """A transverse-field Ising chain instance."""

    num_sites: int
    coupling: float = 1.0  # J
    field: float = 1.0  # h

    def __post_init__(self):
        if self.num_sites < 2:
            raise ValueError("TFIM chain needs at least 2 sites")

    def bonds(self) -> List[Tuple[int, int]]:
        """Open-chain nearest-neighbor couplings (i, i+1)."""
        return [(i, i + 1) for i in range(self.num_sites - 1)]


def tfim_hamiltonian_matrix(problem: TFIMProblem) -> np.ndarray:
    """Dense ``2^n x 2^n`` Hamiltonian (verification only)."""
    n = problem.num_sites
    x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
    eye = np.eye(2, dtype=np.complex128)

    def kron_at(op, sites):
        mats = [op if i in sites else eye for i in range(n)]
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return out

    ham = np.zeros((2**n, 2**n), dtype=np.complex128)
    for i, j in problem.bonds():
        ham -= problem.coupling * kron_at(z, {i, j})
    for i in range(n):
        ham -= problem.field * kron_at(x, {i})
    return ham


def exact_ground_energy(problem: TFIMProblem) -> float:
    """Smallest eigenvalue of the dense Hamiltonian."""
    return float(np.linalg.eigvalsh(tfim_hamiltonian_matrix(problem))[0])


def ansatz_symbols(layers: int) -> List[Symbol]:
    """The ``2 * layers`` symbols [g0, b0, g1, b1, ...] of the ansatz."""
    out = []
    for layer in range(layers):
        out.append(Symbol(f"g{layer}"))
        out.append(Symbol(f"b{layer}"))
    return out


def tfim_ansatz_circuit(
    problem: TFIMProblem,
    layers: int = 1,
    qubits: Optional[Sequence[Qid]] = None,
    basis: str = "z",
    measure_key: Optional[str] = "m",
) -> Circuit:
    """The p-layer ansatz, measured in the ``z`` or ``x`` basis.

    Layer structure (parameters ``g{l}``, ``b{l}``):
    ``prod_bonds exp(-i g Z_i Z_j / 2)`` then ``Rx(b)`` on every site,
    starting from ``|+>^n``.
    """
    if basis not in ("z", "x"):
        raise ValueError(f"basis must be 'z' or 'x', got {basis!r}")
    n = problem.num_sites
    if qubits is None:
        qubits = LineQubit.range(n)
    qubits = list(qubits)

    circuit = Circuit(H.on(q) for q in qubits)
    for layer in range(layers):
        gamma, beta = Symbol(f"g{layer}"), Symbol(f"b{layer}")
        for i, j in problem.bonds():
            circuit.append(CNOT.on(qubits[i], qubits[j]))
            circuit.append(Rz(gamma).on(qubits[j]))
            circuit.append(CNOT.on(qubits[i], qubits[j]))
        for q in qubits:
            circuit.append(Rx(beta).on(q))
    if basis == "x":
        # Rotate X eigenbasis onto the computational basis.
        circuit.append(H.on(q) for q in qubits)
    if measure_key is not None:
        circuit.append(measure(*qubits, key=measure_key))
    return circuit


def energy_from_samples(
    problem: TFIMProblem, z_samples: np.ndarray, x_samples: np.ndarray
) -> float:
    """TFIM energy estimate from Z-basis and X-basis sample arrays.

    ``<Z_i Z_j>`` comes from the Z samples; ``<X_i>`` from the X samples
    (where a measured bit b maps to eigenvalue (-1)^b).
    """
    z = 1.0 - 2.0 * np.asarray(z_samples, dtype=float)  # bits -> +-1
    x = 1.0 - 2.0 * np.asarray(x_samples, dtype=float)
    energy = 0.0
    for i, j in problem.bonds():
        energy -= problem.coupling * float(np.mean(z[:, i] * z[:, j]))
    for i in range(problem.num_sites):
        energy -= problem.field * float(np.mean(x[:, i]))
    return energy


def exact_energy_of_parameters(
    problem: TFIMProblem, params: Sequence[float], layers: int = 1
) -> float:
    """Noise-free ansatz energy ``<psi(theta)|H|psi(theta)>`` (dense)."""
    resolver = _resolver(params, layers)
    circuit = tfim_ansatz_circuit(
        problem, layers=layers, measure_key=None
    ).resolve_parameters(resolver)
    psi = circuit.final_state_vector()
    ham = tfim_hamiltonian_matrix(problem)
    return float(np.real(psi.conj() @ (ham @ psi)))


def _resolver(params: Sequence[float], layers: int) -> ParamResolver:
    if len(params) != 2 * layers:
        raise ValueError(f"Expected {2 * layers} parameters, got {len(params)}")
    mapping = {}
    for layer in range(layers):
        mapping[f"g{layer}"] = float(params[2 * layer])
        mapping[f"b{layer}"] = float(params[2 * layer + 1])
    return ParamResolver(mapping)


@dataclass
class VQEResult:
    """Outcome of a VQE optimization run."""

    best_params: Tuple[float, ...]
    best_energy: float
    exact_energy: float
    evaluations: int

    @property
    def relative_error(self) -> float:
        """|best - exact| / |exact| against the dense ground energy."""
        return abs(self.best_energy - self.exact_energy) / abs(self.exact_energy)


def optimize_tfim(
    problem: TFIMProblem,
    layers: int = 1,
    grid_size: int = 8,
    refinements: int = 2,
    sampler: Optional[SamplerFn] = None,
    repetitions: int = 500,
) -> VQEResult:
    """Grid search with local refinement over the ansatz parameters.

    The coarse-to-fine search keeps the optimizer deterministic and
    derivative-free.  Energies are exact (dense) during the search; if a
    ``sampler`` is given, the best parameters are re-estimated from
    samples, demonstrating the full sampling pipeline.
    """
    num_params = 2 * layers
    center = np.zeros(num_params)
    width = math.pi
    best = (float("inf"), tuple(center))
    evaluations = 0

    for _ in range(1 + refinements):
        axes = [
            np.linspace(c - width, c + width, grid_size) for c in center
        ]
        for point in itertools.product(*axes):
            energy = exact_energy_of_parameters(problem, point, layers=layers)
            evaluations += 1
            if energy < best[0]:
                best = (energy, tuple(float(p) for p in point))
        center = np.asarray(best[1])
        width /= grid_size / 2.0

    best_energy, best_params = best[0], best[1]
    if sampler is not None:
        resolver = _resolver(best_params, layers)
        z_circuit = tfim_ansatz_circuit(
            problem, layers=layers, basis="z"
        ).resolve_parameters(resolver)
        x_circuit = tfim_ansatz_circuit(
            problem, layers=layers, basis="x"
        ).resolve_parameters(resolver)
        best_energy = energy_from_samples(
            problem,
            _sample_bits(sampler, z_circuit, repetitions),
            _sample_bits(sampler, x_circuit, repetitions),
        )

    return VQEResult(
        best_params=best_params,
        best_energy=best_energy,
        exact_energy=exact_ground_energy(problem),
        evaluations=evaluations,
    )
