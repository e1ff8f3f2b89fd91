"""Ablation: light-cone reduction + transpiler pipeline before sampling.

An optimization beyond the paper's ``optimize_for_bgls`` (Sec. 3.2.2):
when only a few qubits are measured, every gate outside their backward
causal cone can be deleted without changing the sampled records, saving
both the state update and a candidate-resampling round per dropped gate.
This harness measures the speedup on a wide circuit with a narrow
measured register, and verifies the sampled marginals agree.
"""

import numpy as np

from repro import circuits as cirq
from repro.transpile import LightConeReduction, default_pipeline, transpile

from conftest import make_sv_simulator, print_series, wall_time

REPS = 200


def _wide_circuit_narrow_measurement(width, depth, measured, seed):
    qubits = cirq.LineQubit.range(width)
    circuit = cirq.generate_random_circuit(
        qubits, depth, random_state=seed
    )
    circuit.append(cirq.measure(*qubits[:measured], key="z"))
    return qubits, circuit


def test_light_cone_speedup(benchmark):
    """Dropping out-of-cone gates speeds sampling at equal output."""
    width, depth, measured = 10, 12, 2
    qubits, circuit = _wide_circuit_narrow_measurement(width, depth, measured, 5)
    reduced = transpile(circuit, [LightConeReduction()])

    t_full = wall_time(
        lambda: make_sv_simulator(qubits, seed=0).run(circuit, repetitions=REPS)
    )
    t_reduced = wall_time(
        lambda: make_sv_simulator(qubits, seed=0).run(reduced, repetitions=REPS)
    )
    rows = [
        ("full", circuit.num_operations(), t_full),
        ("light_cone", reduced.num_operations(), t_reduced),
        ("speedup", 0, t_full / t_reduced),
    ]
    print_series(
        "Ablation - light-cone reduction (10 qubits, 2 measured)",
        ["circuit", "num_ops", "seconds"],
        rows,
    )
    assert reduced.num_operations() < circuit.num_operations()

    # Output equivalence: measured-marginal TV distance is sampling noise.
    res_full = make_sv_simulator(qubits, seed=1).run(circuit, repetitions=2000)
    res_red = make_sv_simulator(qubits, seed=2).run(reduced, repetitions=2000)

    def hist(res):
        h = np.zeros(2**measured)
        for row in res.measurements["z"]:
            h[int("".join(str(b) for b in row), 2)] += 1
        return h / 2000

    tv = 0.5 * np.abs(hist(res_full) - hist(res_red)).sum()
    assert tv < 0.08

    sim = make_sv_simulator(qubits, seed=3)
    benchmark(lambda: sim.run(reduced, repetitions=REPS))


def test_full_pipeline_op_reduction(benchmark):
    """The default pipeline (cone + cancel + merge) shrinks real circuits."""
    width, depth, measured = 8, 16, 3
    qubits, circuit = _wide_circuit_narrow_measurement(width, depth, measured, 9)
    pm = default_pipeline()
    optimized = transpile(circuit, pm)

    rows = [(s.name, s.ops_before, s.ops_after) for s in pm.stats]
    print_series(
        "Ablation - default transpile pipeline op counts",
        ["pass", "ops_before", "ops_after"],
        rows,
    )
    assert optimized.num_operations() <= circuit.num_operations()

    sim = make_sv_simulator(qubits, seed=4)
    benchmark(lambda: sim.run(optimized, repetitions=REPS))
