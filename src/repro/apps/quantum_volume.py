"""Quantum volume: heavy-output sampling on square model circuits.

The IBM quantum-volume protocol (Cross et al. 2019): an ``m``-qubit,
``m``-layer circuit of random qubit permutations and Haar-random SU(4)
blocks; a run *passes* when the sampled heavy-output probability (mass on
bitstrings above the median ideal probability) exceeds 2/3.  For an ideal
simulator the asymptotic HOP is ``(1 + ln 2) / 2 ~ 0.85``, which the BGLS
sampler must reproduce — a sharp statistical end-to-end test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..circuits import Circuit, LineQubit, MatrixGate, Qid, measure
from ..states.base import bits_to_index

IDEAL_ASYMPTOTIC_HOP = (1.0 + np.log(2.0)) / 2.0


def quantum_volume_circuit(
    m: int,
    qubits: Optional[Sequence[Qid]] = None,
    random_state: Union[int, np.random.Generator, None] = None,
    measure_key: Optional[str] = "z",
) -> Circuit:
    """An ``m x m`` quantum-volume model circuit.

    Each of the ``m`` layers permutes the qubits uniformly at random and
    applies an independent Haar-random SU(4) to each adjacent pair of the
    permuted order (one qubit idles when ``m`` is odd).
    """
    if m < 2:
        raise ValueError("Quantum volume needs at least 2 qubits")
    rng = (
        random_state
        if isinstance(random_state, np.random.Generator)
        else np.random.default_rng(random_state)
    )
    if qubits is None:
        qubits = LineQubit.range(m)
    qubits = list(qubits)
    if len(qubits) != m:
        raise ValueError(f"Expected {m} qubits, got {len(qubits)}")

    # Imported on use: it adds ~45 MB to every process importing repro.
    import scipy.stats

    circuit = Circuit()
    for _ in range(m):
        order = rng.permutation(m)
        ops = []
        for k in range(m // 2):
            a, b = qubits[order[2 * k]], qubits[order[2 * k + 1]]
            seed = int(rng.integers(2**31))
            u = scipy.stats.unitary_group.rvs(4, random_state=seed)
            ops.append(MatrixGate(u).on(a, b))
        circuit.append_new_moment(ops)
    if measure_key is not None:
        circuit.append(measure(*qubits, key=measure_key))
    return circuit


def ideal_probabilities(circuit: Circuit) -> np.ndarray:
    """Exact output distribution of the (measurement-free) circuit.

    Uses the full measured register as the qubit order: with odd ``m`` a
    qubit may idle through every layer (present only in the measurement),
    and it must still occupy its slot in the bitstring index.
    """
    qubits = circuit.all_qubits()
    psi = circuit.without_measurements().final_state_vector(qubit_order=qubits)
    return np.abs(psi) ** 2


def heavy_set(circuit: Circuit) -> Set[int]:
    """Basis states with ideal probability above the median."""
    probs = ideal_probabilities(circuit)
    median = float(np.median(probs))
    return {int(i) for i in np.flatnonzero(probs > median)}


def heavy_output_probability(
    samples: np.ndarray, heavy: Set[int]
) -> float:
    """Fraction of sampled bitstrings inside the heavy set."""
    samples = np.asarray(samples)
    hits = sum(1 for row in samples if bits_to_index(row) in heavy)
    return hits / samples.shape[0]


@dataclass
class QuantumVolumeResult:
    """Outcome of one quantum-volume trial batch."""

    m: int
    num_circuits: int
    repetitions: int
    hops: Tuple[float, ...]

    @property
    def mean_hop(self) -> float:
        """Mean heavy-output probability across circuits."""
        return float(np.mean(self.hops))

    @property
    def passed(self) -> bool:
        """The protocol's (unconfidenced) 2/3 threshold."""
        return self.mean_hop > 2.0 / 3.0

    @property
    def log2_quantum_volume(self) -> int:
        """``m`` when the run passes, else 0 (protocol convention)."""
        return self.m if self.passed else 0


def run_quantum_volume(
    m: int,
    sampler,
    num_circuits: int = 5,
    repetitions: int = 200,
    random_state: Union[int, np.random.Generator, None] = None,
) -> QuantumVolumeResult:
    """Run the QV protocol with any ``(circuit, repetitions) -> bits`` sampler."""
    rng = (
        random_state
        if isinstance(random_state, np.random.Generator)
        else np.random.default_rng(random_state)
    )
    hops: List[float] = []
    for _ in range(num_circuits):
        circuit = quantum_volume_circuit(
            m, random_state=int(rng.integers(2**31))
        )
        heavy = heavy_set(circuit)
        samples = sampler(circuit, repetitions)
        hops.append(heavy_output_probability(samples, heavy))
    return QuantumVolumeResult(
        m=m,
        num_circuits=num_circuits,
        repetitions=repetitions,
        hops=tuple(hops),
    )
