"""Work-stealing vs adaptive scheduling on an induced straggler.

The scenario the static scheduler cannot win: 8 points whose
*estimated* costs are identical — same qubit count, same op count, all
unitary, so ``estimate_cost`` sees no reason to split or reorder
anything — but one point is secretly heavy: it opens with a Hadamard
layer and branches on every ``Rx``, so its parallel-mode front grows
to hundreds of distinct bitstrings, while its 7 siblings open with an
``X`` layer and rotate only with diagonal ``Rz`` gates, keeping their
front at a single bitstring.  Front entropy is invisible to the static
cost model.  The
``"adaptive"`` mode schedules 8 whole points and one worker grinds the
straggler alone while the rest of the pool idles; the ``"stealing"``
mode pre-splits every point into repetition chunks and lets idle workers
steal the straggler's tail.

Gated on the measured-duration makespan (deterministic on a
single-core runner — see ``list_schedule_makespan``); raw pooled wall
times ride along as informational columns.  Correctness stays pinned:
estimated costs are asserted equal, the adaptive schedule is asserted
unsplit, the adaptive pooled output is bit-for-bit the serial
``run_batch``, and the stealing run is bit-for-bit reproducible.

Acceptance bar: stealing beats adaptive by >= 1.3x on the straggler
makespan (``BENCH_work_stealing_vs_adaptive_straggler.json``; enforced
with ``min_ratio`` by ``check_regressions.py``).
"""

import numpy as np

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.sampler import PoolManager, ProcessPoolExecutor, estimate_cost
from repro.sampler.schedule import GRANULARITY
from repro.states import StateVectorSimulationState

from bench_scheduler import batch_tasks, list_schedule_makespan
from conftest import assert_timing_win, print_series, wall_time

WIDTH = 10
QUBITS = cirq.LineQubit.range(WIDTH)
POINTS = 8
REPS = 1024
DEPTH = 60
NUM_WORKERS = 2
MIN_SPEEDUP = 1.3


def _layers(rng):
    """Shared per-layer structure: (cnot pair, rotation target, angle)."""
    return [
        (
            int(rng.integers(WIDTH - 1)),
            int(rng.integers(WIDTH)),
            float(rng.uniform(1.0, 2.5)),
        )
        for _ in range(DEPTH)
    ]


def _circuit(first, rotation, layers):
    circuit = cirq.Circuit(first(q) for q in QUBITS)
    for a, t, angle in layers:
        circuit.append(cirq.CNOT(QUBITS[a], QUBITS[a + 1]))
        circuit.append(rotation(angle).on(QUBITS[t]))
    circuit.append(cirq.measure(*QUBITS, key="m"))
    return circuit


def cheap_circuit(rng):
    """Deterministic front: basis-state input, diagonal rotations — the
    parallel-mode front never grows past one bitstring."""
    return _circuit(cirq.X, cirq.Rz, _layers(rng))


def heavy_circuit(rng):
    """Straggler: same op count, but the Hadamard opening and branching
    ``Rx`` rotations blow the front up to ~min(2**WIDTH, REPS) strings."""
    return _circuit(cirq.H, cirq.Rx, _layers(rng))


def make_sim(executor=None, seed=19):
    return bgls.Simulator(
        StateVectorSimulationState(QUBITS),
        bgls.act_on,
        born.compute_probability_state_vector,
        seed=seed,
        executor=executor,
    )


def test_work_stealing_vs_adaptive_straggler():
    rng = np.random.default_rng(23)
    # The straggler sits last — the worst (and realistic) place for a
    # static schedule, the irrelevant place for stealing.
    circuits = [cheap_circuit(rng) for _ in range(POINTS - 1)]
    circuits.append(heavy_circuit(rng))

    # The premise: identical static cost estimates across all points.
    probe_sim = make_sim()
    costs = [
        estimate_cost(probe_sim.compile(c), REPS) for c in circuits
    ]
    assert len(set(costs)) == 1, costs

    # Measured per-point serial seconds anchor the makespan model.
    serial_sim = make_sim()
    point_seconds = [
        wall_time(
            lambda c=circuit: serial_sim.run_batch([c], repetitions=REPS),
            repeats=2,
        )
        for circuit in circuits
    ]
    heavy_ratio = point_seconds[-1] / float(np.median(point_seconds[:-1]))

    def pooled(scheduler):
        with PoolManager() as manager:
            sim = make_sim(
                ProcessPoolExecutor(
                    num_workers=NUM_WORKERS,
                    start_method="fork",
                    pool_manager=manager,
                    scheduler=scheduler,
                )
            )
            first = sim.run_batch(circuits, repetitions=REPS)
            seconds = wall_time(
                lambda: sim.run_batch(circuits, repetitions=REPS), repeats=3
            )
            assert manager.stats["inits"] == 1, manager.stats
        return first, seconds

    adaptive_results, adaptive_wall = pooled("adaptive")
    stealing_results, stealing_wall = pooled("stealing")
    adaptive = batch_tasks(probe_sim, circuits, REPS, NUM_WORKERS, "adaptive")
    stealing = batch_tasks(probe_sim, circuits, REPS, NUM_WORKERS, "stealing")

    # Equal estimates leave the adaptive schedule whole — the straggler
    # is invisible to it — while stealing pre-split every point.
    assert all(t.num_chunks == 1 for t in adaptive)
    assert all(t.num_chunks == GRANULARITY for t in stealing)

    # Correctness: the unsplit adaptive run uses serial seeds, so it is
    # bit-for-bit the serial batch; the stealing run is reproducible.
    serial = make_sim().run_batch(circuits, repetitions=REPS)
    for a, b in zip(serial, adaptive_results):
        np.testing.assert_array_equal(a.measurements["m"], b.measurements["m"])
    rerun, _ = pooled("stealing")
    for a, b in zip(stealing_results, rerun):
        np.testing.assert_array_equal(a.measurements["m"], b.measurements["m"])

    # The makespan each geometry achieves for the measured durations,
    # under the pull-next-task placement both dispatch modes share.
    def task_durations(tasks):
        return [
            point_seconds[t.point_index] * t.repetitions / REPS
            for t in tasks
        ]

    adaptive_makespan = list_schedule_makespan(
        task_durations(adaptive), NUM_WORKERS
    )
    stealing_makespan = list_schedule_makespan(
        task_durations(stealing), NUM_WORKERS
    )
    speedup = adaptive_makespan / stealing_makespan

    print_series(
        "Work stealing vs adaptive straggler",
        [
            "points",
            "reps",
            "workers",
            "granularity",
            "stealing_makespan_s",
            "adaptive_makespan_s",
            "speedup",
            "heavy_ratio",
            "stealing_wall_s",
            "adaptive_wall_s",
        ],
        [
            (
                POINTS,
                REPS,
                NUM_WORKERS,
                GRANULARITY,
                stealing_makespan,
                adaptive_makespan,
                speedup,
                heavy_ratio,
                stealing_wall,
                adaptive_wall,
            )
        ],
    )
    assert_timing_win(
        MIN_SPEEDUP * stealing_makespan,
        adaptive_makespan,
        f"work stealing >= {MIN_SPEEDUP}x over adaptive on the straggler",
    )
