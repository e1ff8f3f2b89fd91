"""Ablation: Aaronson-Gottesman tableau vs CH form as the BGLS state.

The paper (Sec. 4.1.2) builds on the CH form because its bitstring-
amplitude query costs O(n^2); a plain tableau has no amplitude query.
Its Born probabilities come from the affine support of the stabilizer
state instead: one elimination of the stabilizer rows' X block per query
block (O(n^2) packed word operations for n <= 64) gives the rank r and
the parity constraints, and P(b) is 2^-r or 0.  This benchmark
quantifies the design decision: both backends sample identical
distributions, and the ratio shows what the per-query elimination costs
against the CH form's ready-made support test.
"""

import numpy as np

import repro as bgls
from repro import born
from repro import circuits as cirq

from conftest import make_stabilizer_simulator, print_series, wall_time

REPS = 10


def make_tableau_simulator(qubits, seed=0):
    return bgls.Simulator(
        bgls.CliffordTableauSimulationState(qubits),
        bgls.act_on,
        born.compute_probability_tableau,
        seed=seed,
    )


def test_tableau_vs_chform_runtime_vs_width(benchmark):
    """The CH form's support test vs the tableau's elimination."""
    widths = [4, 8, 16, 24]
    depth = 20
    rows = []
    times = {"tableau": {}, "chform": {}}
    for width in widths:
        qubits = cirq.LineQubit.range(width)
        circuit = cirq.random_clifford_circuit(qubits, depth, random_state=width)
        t_tab = wall_time(
            lambda: make_tableau_simulator(qubits).sample_bitstrings(
                circuit, repetitions=REPS
            )
        )
        t_ch = wall_time(
            lambda: make_stabilizer_simulator(qubits).sample_bitstrings(
                circuit, repetitions=REPS
            )
        )
        times["tableau"][width] = t_tab
        times["chform"][width] = t_ch
        rows.append((width, t_tab, t_ch, t_tab / t_ch))
    print_series(
        "Ablation - tableau vs CH form sampling (depth 20, 10 reps)",
        ["width", "tableau_sec", "chform_sec", "ratio"],
        rows,
    )
    # The tableau still pays one elimination per query block.
    assert times["tableau"][24] / times["chform"][24] > 1.5

    qubits = cirq.LineQubit.range(8)
    circuit = cirq.random_clifford_circuit(qubits, depth, random_state=0)
    sim = make_tableau_simulator(qubits)
    benchmark(lambda: sim.sample_bitstrings(circuit, repetitions=REPS))


def test_tableau_and_chform_agree_statistically(benchmark):
    """Both stabilizer backends sample the same distribution."""
    n = 5
    qubits = cirq.LineQubit.range(n)
    circuit = cirq.random_clifford_circuit(qubits, 15, random_state=3)
    circuit.append(cirq.measure(*qubits, key="z"))
    reps = 1500

    def hist(result):
        h = np.zeros(2**n)
        for row in result.measurements["z"]:
            h[int("".join(str(b) for b in row), 2)] += 1
        return h / reps

    h_tab = hist(make_tableau_simulator(qubits, seed=1).run(circuit, reps))
    h_ch = hist(make_stabilizer_simulator(qubits, seed=2).run(circuit, reps))
    tv = 0.5 * np.abs(h_tab - h_ch).sum()
    print_series(
        "Ablation - tableau vs CH form agreement",
        ["metric", "value"],
        [("tv_distance", tv)],
    )
    assert tv < 0.1

    sim = make_tableau_simulator(qubits, seed=3)
    benchmark(lambda: sim.run(circuit, repetitions=50))
