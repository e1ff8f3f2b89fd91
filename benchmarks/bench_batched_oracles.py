"""Batched candidate-probability oracles vs the per-candidate loop.

PR 1 batched the CH form's candidate queries; PR 2 extended the batched
``candidate_probabilities_many`` oracle to every backend (state vector via
one flat gather, tableau via one X-block elimination and a packed
parity test per query block, MPS via cached environment tensors) and
fused single-qubit Clifford moments.
These series quantify the batching alone: identical circuits sampled (or
queried) once through the batched oracle and once through a per-candidate
``probability_of`` loop — the exact fallback path user-supplied
probability functions still take.

The width-24 point of the tableau series is the same ablation point as
``bench_tableau_vs_chform.py``; the batched path must beat the loop there.
"""

import numpy as np

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.mps.state import MPSState
from repro.states import (
    CliffordTableauSimulationState,
    StateVectorSimulationState,
)

from conftest import assert_timing_win, print_series, wall_time

REPS = 8


def _loop_candidates(compute_probability):
    """The per-candidate fallback, as a user-supplied candidate function."""

    def loop(state, bits, support):
        k = len(support)
        candidate = list(bits)
        out = np.empty(2**k)
        for idx in range(2**k):
            for pos, axis in enumerate(support):
                candidate[axis] = (idx >> (k - 1 - pos)) & 1
            out[idx] = compute_probability(state, candidate)
        return out

    return loop


def _tableau_simulator(qubits, batched=True, seed=0):
    kwargs = {}
    if not batched:
        kwargs["compute_candidate_probabilities"] = _loop_candidates(
            born.compute_probability_tableau
        )
    return bgls.Simulator(
        CliffordTableauSimulationState(qubits),
        bgls.act_on,
        born.compute_probability_tableau,
        seed=seed,
        **kwargs,
    )


def test_tableau_batched_vs_candidate_loop(benchmark):
    """One elimination per query block vs one per candidate."""
    depth = 20
    rows = []
    times = {}
    for width in (8, 16, 24):
        qubits = cirq.LineQubit.range(width)
        circuit = cirq.random_clifford_circuit(
            qubits, depth, random_state=width
        )
        # The batched arm is tens of ms, so a single timing swings the
        # gated ratio; its median over five runs does not.
        t_batched = wall_time(
            lambda: _tableau_simulator(qubits, True).sample_bitstrings(
                circuit, repetitions=REPS
            ),
            repeats=5,
        )
        t_loop = wall_time(
            lambda: _tableau_simulator(qubits, False).sample_bitstrings(
                circuit, repetitions=REPS
            )
        )
        times[width] = (t_batched, t_loop)
        rows.append((width, t_batched, t_loop, t_loop / t_batched))
    print_series(
        f"Batched vs per-candidate tableau oracle (depth {depth}, {REPS} reps)",
        ["width", "batched_sec", "loop_sec", "speedup"],
        rows,
    )
    # The acceptance point: batched beats the loop at the width-24 ablation
    # point of bench_tableau_vs_chform.
    assert_timing_win(times[24][0], times[24][1], "tableau width-24 batched oracle")

    qubits = cirq.LineQubit.range(8)
    circuit = cirq.random_clifford_circuit(qubits, depth, random_state=8)
    sim = _tableau_simulator(qubits)
    benchmark(lambda: sim.sample_bitstrings(circuit, repetitions=REPS))


def test_state_vector_batched_vs_candidate_loop(benchmark):
    """One-gather state-vector fronts vs per-candidate probability calls."""
    n = 18
    qubits = cirq.LineQubit.range(n)
    circuit = cirq.random_clifford_circuit(qubits, 12, random_state=3)
    state = StateVectorSimulationState(qubits)
    for op in circuit.all_operations():
        bgls.act_on(op, state)
    rng = np.random.default_rng(0)
    loop = _loop_candidates(born.compute_probability_state_vector)
    rows = []
    times = {}
    for front in (4, 32, 128):
        bits_list = [list(rng.integers(0, 2, n)) for _ in range(front)]
        support = [5, 11]
        t_batched = wall_time(
            lambda: state.candidate_probabilities_many(bits_list, support),
            repeats=5,
        )
        t_loop = wall_time(
            lambda: np.array([loop(state, b, support) for b in bits_list]),
            repeats=5,
        )
        times[front] = (t_batched, t_loop)
        rows.append((front, t_batched, t_loop, t_loop / t_batched))
    print_series(
        f"Batched vs per-candidate state-vector fronts ({n} qubits, k=2)",
        ["front_size", "batched_sec", "loop_sec", "speedup"],
        rows,
    )
    assert_timing_win(*times[128], "state-vector front-128 batched gather")

    small = cirq.random_clifford_circuit(
        cirq.LineQubit.range(10), 12, random_state=4
    )
    sv_sim = bgls.Simulator(
        StateVectorSimulationState(cirq.LineQubit.range(10)),
        bgls.act_on,
        born.compute_probability_state_vector,
        seed=1,
    )
    benchmark(lambda: sv_sim.sample_bitstrings(small, repetitions=REPS))


def test_mps_environment_cached_fronts(benchmark):
    """Environment-cached MPS fronts vs one sliced contraction per string."""
    n = 14
    qubits = cirq.LineQubit.range(n)
    circuit = cirq.Circuit()
    rng = np.random.default_rng(5)
    # Shallow brickwork: low entanglement, the regime MPS is built for.
    for layer in range(4):
        for q in qubits:
            circuit.append(cirq.H(q) if rng.random() < 0.5 else cirq.T(q))
        start = layer % 2
        for a, b in zip(qubits[start::2], qubits[start + 1 :: 2]):
            circuit.append(cirq.CZ(a, b))
    state = MPSState(qubits)
    for op in circuit.all_operations():
        bgls.act_on(op, state)
    # A parallel-mode-like front: common prefix, diverging tail.
    prefix = list(rng.integers(0, 2, n - 5))
    bits_list = [
        prefix + [(idx >> (4 - j)) & 1 for j in range(5)] for idx in range(32)
    ]
    support = [6, 7]
    t_cached = wall_time(
        lambda: state.candidate_probabilities_many(bits_list, support),
        repeats=3,
    )
    t_loop = wall_time(
        lambda: np.array(
            [np.abs(state.candidate_amplitudes(b, support)) ** 2 for b in bits_list]
        ),
        repeats=3,
    )
    print_series(
        f"MPS environment-cached front ({n} qubits, 32 strings, k=2)",
        ["variant", "seconds"],
        [("env_cached", t_cached), ("per_string_loop", t_loop),
         ("speedup", t_loop / t_cached)],
    )
    assert_timing_win(t_cached, t_loop, "MPS environment-cached front")

    benchmark(
        lambda: state.candidate_probabilities_many(bits_list, support)
    )
