"""Random-circuit-sampling workloads (the paper's introductory motivation).

The intro frames bitstring sampling from random circuits as the "quantum
supremacy" benchmark [Bouland et al. 2019].  This module builds
Sycamore-style pseudo-random circuits on a 2-D grid — alternating layers
of random single-qubit gates (sqrt-X, sqrt-Y, sqrt-W-like) and a cycled
pattern of two-qubit entanglers on grid edges — plus the linear
cross-entropy (XEB) scoring used to certify samples.

The headline verification workload lives in :func:`run_xeb_workload` /
:func:`stream_xeb_workload`: sweep many *distinct* random circuits
through ``Simulator.run_batch`` (one warm-pool init for the whole
ensemble, one pool point per circuit) and score each circuit's samples
with the batched estimators in :mod:`repro.analysis.xeb`.  The streaming
variant yields per-circuit estimates as points land on the pool,
bit-for-bit equal to the blocking path.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.xeb import (
    XEBEstimate,
    XEBResult,
    ensemble_xeb,
    linear_xeb_estimate,
)
from ..circuits import (
    Circuit,
    GridQubit,
    ISWAP,
    PhasedXPowGate,
    XPowGate,
    YPowGate,
    measure,
)

# The canonical single-qubit set: sqrt-X, sqrt-Y, sqrt-W.  The sqrt-W gate
# (PhasedX at phase 1/4) is the non-Clifford member that drives the output
# distribution to Porter-Thomas.
_SQRT_GATES = [
    XPowGate(exponent=0.5),
    YPowGate(exponent=0.5),
    PhasedXPowGate(phase_exponent=0.25, exponent=0.5),
]


def _grid_edge_pattern(
    rows: int, cols: int
) -> List[List[Tuple[GridQubit, GridQubit]]]:
    """Four staggered edge colorings of the grid (A/B/C/D cycles)."""
    horiz_even, horiz_odd, vert_even, vert_odd = [], [], [], []
    for r in range(rows):
        for c in range(cols - 1):
            edge = (GridQubit(r, c), GridQubit(r, c + 1))
            (horiz_even if c % 2 == 0 else horiz_odd).append(edge)
    for r in range(rows - 1):
        for c in range(cols):
            edge = (GridQubit(r, c), GridQubit(r + 1, c))
            (vert_even if r % 2 == 0 else vert_odd).append(edge)
    return [horiz_even, vert_even, horiz_odd, vert_odd]


def _split_pulses(gate, pulse_splits: int) -> List:
    """One sqrt gate as ``pulse_splits`` equal same-axis fractional pulses.

    Mimics hardware pulse decomposition: ``X^t`` becomes ``pulse_splits``
    consecutive ``X^(t/k)`` pulses (same class, same phase for PhasedX),
    whose product is the original gate exactly.  ``MergeRotations``
    collapses these runs back to one gate.
    """
    if pulse_splits == 1:
        return [gate]
    if isinstance(gate, PhasedXPowGate):
        pulse = PhasedXPowGate(
            phase_exponent=gate.phase_exponent,
            exponent=float(gate.exponent) / pulse_splits,
        )
    else:
        pulse = type(gate)(exponent=float(gate.exponent) / pulse_splits)
    return [pulse] * pulse_splits


def random_supremacy_circuit(
    rows: int,
    cols: int,
    cycles: int,
    entangler=ISWAP,
    random_state: Union[int, np.random.Generator, None] = None,
    measure_key: Optional[str] = "m",
    pulse_splits: int = 1,
) -> Circuit:
    """Sycamore-style random circuit on a ``rows x cols`` grid.

    Each cycle: a layer of random sqrt-gates (never repeating the previous
    gate on a qubit) followed by one of four staggered entangler patterns.

    Args:
        rows, cols: Grid dimensions.
        cycles: Number of (1q layer, 2q layer) cycles.
        entangler: Two-qubit gate applied on pattern edges.
        random_state: Seed or generator.
        measure_key: Terminal measurement key (None to omit).
        pulse_splits: Emit each single-qubit sqrt gate as this many
            consecutive equal same-axis fractional pulses (hardware-style
            pulse decomposition; the product is the original gate
            exactly).  The gate choices consume the rng identically for
            every value, so the same seed at different ``pulse_splits``
            describes the same unitary.
    """
    if pulse_splits < 1:
        raise ValueError(f"pulse_splits must be >= 1, got {pulse_splits}")
    rng = (
        random_state
        if isinstance(random_state, np.random.Generator)
        else np.random.default_rng(random_state)
    )
    qubits = GridQubit.rect(rows, cols)
    patterns = _grid_edge_pattern(rows, cols)
    last_gate = {q: -1 for q in qubits}

    circuit = Circuit()
    for cycle in range(cycles):
        pulse_layers = [[] for _ in range(pulse_splits)]
        for q in qubits:
            choices = [
                i for i in range(len(_SQRT_GATES)) if i != last_gate[q]
            ]
            pick = int(rng.choice(choices))
            last_gate[q] = pick
            for layer, pulse in zip(
                pulse_layers, _split_pulses(_SQRT_GATES[pick], pulse_splits)
            ):
                layer.append(pulse.on(q))
        for layer in pulse_layers:
            circuit.append_new_moment(layer)
        edges = patterns[cycle % len(patterns)]
        if edges:
            circuit.append_new_moment(entangler.on(a, b) for a, b in edges)
    if measure_key is not None:
        circuit.append(measure(*qubits, key=measure_key))
    return circuit


def xeb_circuits(
    rows: int,
    cols: int,
    cycles: int,
    num_circuits: int,
    *,
    entangler=ISWAP,
    pulse_splits: int = 1,
    random_state: Union[int, np.random.Generator, None] = None,
    measure_key: str = "m",
) -> List[Circuit]:
    """An ensemble of distinct random supremacy circuits for one XEB batch.

    One parent rng deterministically derives a child seed per circuit, so
    a single ``random_state`` pins the whole ensemble while every member
    stays distinct — the shape ``run_batch`` fans across
    the warm pool as one multi-program payload.
    """
    if num_circuits < 1:
        raise ValueError(f"num_circuits must be >= 1, got {num_circuits}")
    rng = (
        random_state
        if isinstance(random_state, np.random.Generator)
        else np.random.default_rng(random_state)
    )
    seeds = rng.integers(0, 2**63, size=num_circuits)
    return [
        random_supremacy_circuit(
            rows,
            cols,
            cycles,
            entangler=entangler,
            random_state=int(seed),
            measure_key=measure_key,
            pulse_splits=pulse_splits,
        )
        for seed in seeds
    ]


def ideal_output_probabilities(circuit: Circuit) -> np.ndarray:
    """Exact Born distribution of a circuit's terminal measurement.

    Strips measurements and evolves the state vector over the circuit's
    canonical (sorted) qubit order — the same order ``measure(*qubits)``
    records bits in — so the result indexes bitstrings exactly as
    :func:`repro.analysis.linear_xeb` expects (first qubit = MSB).
    """
    qubits = circuit.all_qubits()
    state = circuit.without_measurements().final_state_vector(
        qubit_order=qubits
    )
    return np.abs(state) ** 2


def xeb_fidelity(
    samples: np.ndarray, ideal_probabilities: np.ndarray
) -> float:
    """Linear XEB fidelity of samples against the ideal distribution.

    1.0 for a perfect sampler of a Porter-Thomas distribution, ~0 for a
    uniform sampler.
    """
    from ..analysis import linear_xeb

    return linear_xeb(samples, ideal_probabilities)


def _workload_samples(circuit: Circuit, result) -> np.ndarray:
    """The (reps, n) sample array of a workload circuit's one measurement."""
    keys = circuit.all_measurement_keys()
    if len(keys) != 1:
        raise ValueError(
            f"XEB workload circuits need exactly one measurement key, "
            f"got {keys}"
        )
    return result.measurements[keys[0]]


def stream_xeb_workload(
    simulator,
    circuits: Sequence[Circuit],
    repetitions: int,
    *,
    probabilities: Optional[Sequence[np.ndarray]] = None,
) -> Iterator[XEBEstimate]:
    """Stream per-circuit XEB estimates as batch points land on the pool.

    Feeds the whole ensemble through ``Simulator.run_batch_iter`` —
    hundreds of distinct circuits become one multi-program pool payload
    (one warm-pool init total, one point per circuit) — and scores each
    circuit's samples the moment its :class:`Result` completes, while
    later circuits are still sampling.  Bit-for-bit equal to scoring the
    blocking :func:`run_xeb_workload` path.

    Args:
        simulator: A ``repro.sampler.Simulator`` (pooled executor for the
            fan-out; serial works too, it just streams in-process).
        circuits: Distinct measured circuits (e.g. :func:`xeb_circuits`).
        repetitions: Samples per circuit.
        probabilities: Optional precomputed exact Born distribution per
            circuit (skips the statevector recomputation — the bench
            reuses one set across transpile variants).
    """
    circuits = list(circuits)
    if probabilities is None:
        probabilities = [ideal_output_probabilities(c) for c in circuits]
    else:
        probabilities = list(probabilities)
        if len(probabilities) != len(circuits):
            raise ValueError(
                f"Got {len(circuits)} circuits but {len(probabilities)} "
                f"distributions"
            )
    results = simulator.run_batch_iter(circuits, repetitions=repetitions)
    for circuit, probs, result in zip(circuits, probabilities, results):
        yield linear_xeb_estimate(_workload_samples(circuit, result), probs)


def run_xeb_workload(
    simulator,
    circuits: Sequence[Circuit],
    repetitions: int,
    *,
    probabilities: Optional[Sequence[np.ndarray]] = None,
) -> XEBResult:
    """Blocking ensemble XEB over a batch of distinct random circuits.

    ``run_batch`` + batched scoring; the ensemble combination (equal
    circuit weights, propagated and scatter error bars) is
    :func:`repro.analysis.ensemble_xeb`.  Equals
    ``ensemble_xeb(stream_xeb_workload(...))`` bit-for-bit.
    """
    return ensemble_xeb(
        stream_xeb_workload(
            simulator,
            circuits,
            repetitions,
            probabilities=probabilities,
        )
    )
