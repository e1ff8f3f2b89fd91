"""Batched vs serial trajectory engine on a noisy depolarizing workload.

The workload the batched engine was built for: a shallow random circuit
laced with depolarizing channels, so every repetition must replay the
whole circuit as its own trajectory.  ``trajectory_mode="serial"`` runs
the repetitions one at a time — one Python-level gate loop per
trajectory — while ``trajectory_mode="batched"`` stacks the whole
repetition block into ``(B, 2**n)`` NumPy tiles and runs each plan
record once across the batch.

Correctness stays pinned before any timing: the batched output is
bit-for-bit invariant under the tile width (the engine's only internal
geometry knob, forced here through its memory-budget constant) and
bit-for-bit reproducible for a fixed seed.

Acceptance bar: batched beats serial by >= 3x on the headline wall time
(``BENCH_batched_vs_serial_trajectories.json``; enforced with
``min_ratio`` by ``check_regressions.py``).

A second series puts all the noise at the end: a 10-qubit, 2-layer QAOA
MaxCut circuit with one depolarizing channel per qubit just before the
measurement.  Every trajectory shares one state up to that layer, so the
batched engine evolves the noiseless prefix once for the whole tile
(``BENCH_batched_vs_serial_trajectories_noise_at_the_end.json``, gated
by ``check_regressions.py`` with a ``min_ratio`` floor).

A third series runs the stacked tableau: a 16-qubit random Clifford
circuit of depth 30 that measures 4 qubits halfway through, so every
repetition is a trajectory.  Each candidate query after the projection
is one X-block elimination per distinct row, answering all of that row's
trajectories (the ``..._tableau_trajectories_mid_circuit_measurement``
series, gated by ``check_regressions.py`` with a ``min_ratio`` floor).
Its batched output must equal the CH form's bit for bit: both backends
read the same uniforms against the same exact Born probabilities.
"""

import numpy as np

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.apps.qaoa import qaoa_maxcut_circuit, random_graph
from repro.circuits import channels
from repro.sampler import trajectory_batch
from repro.states import (
    CliffordTableauSimulationState,
    StabilizerChFormSimulationState,
    StateVectorSimulationState,
)

from conftest import assert_timing_win, print_series, wall_time

WIDTH = 6
DEPTH = 10
REPS = 512
MIN_SPEEDUP = 3.0
QUBITS = cirq.LineQubit.range(WIDTH)


def noisy_circuit(seed=11):
    """Random shallow circuit with one depolarizing channel per layer."""
    rng = np.random.default_rng(seed)
    circuit = cirq.Circuit(cirq.H(q) for q in QUBITS)
    for layer in range(DEPTH):
        a = layer % (WIDTH - 1)
        circuit.append(cirq.CNOT(QUBITS[a], QUBITS[a + 1]))
        circuit.append(
            cirq.Rx(float(rng.uniform(0.2, 1.2))).on(
                QUBITS[(3 * layer) % WIDTH]
            )
        )
        circuit.append(channels.depolarize(0.02).on(QUBITS[(layer + 1) % WIDTH]))
    circuit.append(cirq.measure(*QUBITS, key="m"))
    return circuit


def make_sim(
    mode,
    seed=19,
    qubits=QUBITS,
    state_type=StateVectorSimulationState,
    probability=born.compute_probability_state_vector,
):
    return bgls.Simulator(
        state_type(qubits),
        bgls.act_on,
        probability,
        seed=seed,
        trajectory_mode=mode,
    )


def test_batched_vs_serial_trajectories(monkeypatch):
    circuit = noisy_circuit()

    # Correctness before timing: the batched output is a pure function
    # of (seed, repetition index) — the tile width must not show.
    reference = make_sim("batched").run(circuit, repetitions=REPS)
    for tile in (7, 64):
        with monkeypatch.context() as patch:
            # The dense budget holds two tiles of 16 * 2**WIDTH bytes each.
            patch.setattr(
                trajectory_batch,
                "DENSE_TILE_BUDGET_BYTES",
                2 * 16 * 2**WIDTH * tile,
            )
            sim = make_sim("batched")
            assert (
                trajectory_batch.BatchedStateVector.tile_size(
                    sim.initial_state, REPS
                )
                == tile
            )
            tiled = sim.run(circuit, repetitions=REPS)
        np.testing.assert_array_equal(
            reference.measurements["m"],
            tiled.measurements["m"],
            err_msg=f"tile={tile} changed the batched output",
        )
    replay = make_sim("batched").run(circuit, repetitions=REPS)
    np.testing.assert_array_equal(
        reference.measurements["m"], replay.measurements["m"]
    )

    serial_sim = make_sim("serial")
    batched_sim = make_sim("batched")
    serial_s = wall_time(
        lambda: serial_sim.run(circuit, repetitions=REPS), repeats=3
    )
    batched_s = wall_time(
        lambda: batched_sim.run(circuit, repetitions=REPS), repeats=3
    )
    speedup = serial_s / batched_s

    print_series(
        "Batched vs serial trajectories",
        [
            "qubits",
            "depth",
            "reps",
            "serial_s",
            "batched_s",
            "speedup",
        ],
        [(WIDTH, DEPTH, REPS, serial_s, batched_s, speedup)],
    )
    assert_timing_win(
        MIN_SPEEDUP * batched_s,
        serial_s,
        f"batched trajectories >= {MIN_SPEEDUP}x over serial",
    )


QAOA_NODES = 10
QAOA_EDGES = 19
QAOA_REPS = 96


def noise_at_the_end_circuit(seed=4):
    """A 2-layer QAOA MaxCut circuit, then one depolarizing layer."""
    rng = np.random.default_rng(seed)
    graph = random_graph(QAOA_NODES, 0.3, rng)
    while graph.number_of_edges() != QAOA_EDGES:
        graph = random_graph(QAOA_NODES, 0.3, rng)
    qubits = cirq.LineQubit.range(QAOA_NODES)
    circuit = qaoa_maxcut_circuit(
        graph, 0.7, 0.4, layers=2, qubits=qubits, measure_key=None
    )
    circuit.append(channels.depolarize(0.01).on(q) for q in qubits)
    circuit.append(cirq.measure(*qubits, key="z"))
    return circuit, qubits


def test_batched_vs_serial_noise_at_the_end(monkeypatch):
    circuit, qubits = noise_at_the_end_circuit()

    # Correctness before timing: the tile width must not show.
    reference = make_sim("batched", qubits=qubits).run(
        circuit, repetitions=QAOA_REPS
    )
    with monkeypatch.context() as patch:
        patch.setattr(
            trajectory_batch,
            "DENSE_TILE_BUDGET_BYTES",
            2 * 16 * 2**QAOA_NODES * 7,
        )
        tiled = make_sim("batched", qubits=qubits).run(
            circuit, repetitions=QAOA_REPS
        )
    np.testing.assert_array_equal(
        reference.measurements["z"],
        tiled.measurements["z"],
        err_msg="tile=7 changed the batched output",
    )

    serial_sim = make_sim("serial", qubits=qubits)
    batched_sim = make_sim("batched", qubits=qubits)
    serial_s = wall_time(
        lambda: serial_sim.run(circuit, repetitions=QAOA_REPS), repeats=3
    )
    batched_s = wall_time(
        lambda: batched_sim.run(circuit, repetitions=QAOA_REPS), repeats=3
    )
    speedup = serial_s / batched_s

    print_series(
        "Batched vs serial trajectories noise at the end",
        ["qubits", "edges", "reps", "serial_s", "batched_s", "speedup"],
        [(QAOA_NODES, QAOA_EDGES, QAOA_REPS, serial_s, batched_s, speedup)],
    )
    assert_timing_win(
        MIN_SPEEDUP * batched_s,
        serial_s,
        f"batched trajectories >= {MIN_SPEEDUP}x over serial "
        "(noise at the end)",
    )


TAB_WIDTH = 16
TAB_DEPTH = 30
TAB_MEASURED = 4
TAB_REPS = 64


def mid_measure_clifford_circuit(seed=7):
    """A random Clifford circuit that measures its first qubits halfway."""
    qubits = cirq.LineQubit.range(TAB_WIDTH)
    half = TAB_DEPTH // 2
    circuit = cirq.random_clifford_circuit(qubits, half, random_state=seed)
    circuit.append(cirq.measure(*qubits[:TAB_MEASURED], key="mid"))
    circuit = circuit + cirq.random_clifford_circuit(
        qubits, half, random_state=seed + 1
    )
    circuit.append(cirq.measure(*qubits, key="m"))
    return circuit, qubits


def test_batched_vs_serial_tableau_trajectories():
    circuit, qubits = mid_measure_clifford_circuit()

    def tableau_sim(mode):
        return make_sim(
            mode,
            qubits=qubits,
            state_type=CliffordTableauSimulationState,
            probability=born.compute_probability_tableau,
        )

    # Correctness before timing: same uniforms, same exact probabilities,
    # so the batched tableau and CH-form outputs agree bit for bit.
    chform = make_sim(
        "batched",
        qubits=qubits,
        state_type=StabilizerChFormSimulationState,
        probability=born.compute_probability_stabilizer_state,
    ).run(circuit, repetitions=TAB_REPS)
    tableau = tableau_sim("batched").run(circuit, repetitions=TAB_REPS)
    for key in ("mid", "m"):
        np.testing.assert_array_equal(
            chform.measurements[key],
            tableau.measurements[key],
            err_msg=f"batched tableau and CH form differ on {key!r}",
        )

    serial_sim = tableau_sim("serial")
    batched_sim = tableau_sim("batched")
    serial_s = wall_time(
        lambda: serial_sim.run(circuit, repetitions=TAB_REPS), repeats=3
    )
    batched_s = wall_time(
        lambda: batched_sim.run(circuit, repetitions=TAB_REPS), repeats=3
    )
    speedup = serial_s / batched_s

    print_series(
        "Batched vs serial tableau trajectories mid-circuit measurement",
        ["qubits", "depth", "measured", "reps", "serial_s", "batched_s",
         "speedup"],
        [(TAB_WIDTH, TAB_DEPTH, TAB_MEASURED, TAB_REPS, serial_s, batched_s,
          speedup)],
    )
    assert_timing_win(
        MIN_SPEEDUP * batched_s,
        serial_s,
        f"batched tableau trajectories >= {MIN_SPEEDUP}x over serial",
    )
