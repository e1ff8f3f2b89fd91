"""Adaptive scheduling benchmark.

* **Adaptive vs FIFO scheduling** — a mixed-depth 24-point batch whose
  one deep circuit sits at the end of the queue.  FIFO (one task per
  point, submission order) serializes the deep tail on a single worker;
  the adaptive scheduler orders largest-first and splits the oversized
  point into repetition sub-chunks, keeping both workers busy
  (``BENCH_adaptive_vs_fifo_mixed_depth_sweep.json``).

Correctness stays pinned alongside the timings: the FIFO batch is
bit-for-bit identical to the serial ``run_batch``, and the adaptive
schedule verifiably split the deep point.
"""

import numpy as np

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.circuits import channels
from repro.sampler import PoolManager, ProcessPoolExecutor, estimate_cost
from repro.sampler.schedule import BatchEntry, schedule
from repro.states import StateVectorSimulationState

from conftest import assert_timing_win, print_series, wall_time

WIDTH = 4
QUBITS = cirq.LineQubit.range(WIDTH)


def noisy_circuit(depth, rng):
    """A trajectory-mode circuit whose cost is linear in depth x reps."""
    circuit = cirq.Circuit(cirq.H(q) for q in QUBITS)
    for _ in range(depth):
        a = int(rng.integers(WIDTH - 1))
        circuit.append(cirq.CNOT(QUBITS[a], QUBITS[a + 1]))
        circuit.append(cirq.Rx(float(rng.random())).on(QUBITS[int(rng.integers(WIDTH))]))
        circuit.append(channels.depolarize(0.02).on(QUBITS[a]))
    circuit.append(cirq.measure(*QUBITS, key="m"))
    return circuit


def make_sim(executor=None, seed=11):
    return bgls.Simulator(
        StateVectorSimulationState(QUBITS),
        bgls.act_on,
        born.compute_probability_state_vector,
        seed=seed,
        executor=executor,
    )


def batch_tasks(sim, circuits, repetitions, num_workers, mode):
    """The task list ``mode`` makes of a ``run_batch`` of ``circuits``."""
    entries = [
        BatchEntry(i, i, None, estimate_cost(sim.compile(c), repetitions))
        for i, c in enumerate(circuits)
    ]
    return schedule(entries, repetitions, num_workers, mode)


def list_schedule_makespan(durations, num_workers):
    """Earliest-free-worker makespan of tasks dispatched in list order.

    This is exactly how the process pool consumes the submitted task
    queue (a free worker pulls the next task), so the makespan of the
    measured per-task durations is the wall-clock the schedule achieves
    on an otherwise-idle ``num_workers`` pool.  Computing it explicitly
    makes the comparison robust on constrained CI runners, where two
    workers timesharing one core would reduce any wall-clock diff to
    scheduler noise.
    """
    workers = [0.0] * num_workers
    for duration in durations:
        earliest = min(range(num_workers), key=lambda w: workers[w])
        workers[earliest] += duration
    return max(workers)


def test_adaptive_vs_fifo_mixed_depth_sweep():
    """Largest-first + split scheduling vs one-task-per-point FIFO.

    The deep point sits at the end of the FIFO queue, so one worker
    grinds it alone while the rest of the pool idles; the adaptive
    scheduler runs it first *and* splits it into repetition sub-chunks.
    Gated on the measured-duration makespan (deterministic); the raw
    pooled wall times ride along as informational columns.
    """
    points = 24
    reps = 24
    num_workers = 2
    rng = np.random.default_rng(7)
    depths = [2] * (points - 1) + [90]  # the deep point sits last
    circuits = [noisy_circuit(depth, rng) for depth in depths]

    # Measured per-point serial seconds anchor the task durations.
    serial_sim = make_sim()
    point_seconds = [
        wall_time(
            lambda c=circuit: serial_sim.run_batch([c], repetitions=reps),
            repeats=2,
        )
        for circuit in circuits
    ]

    def pooled(scheduler):
        with PoolManager() as manager:
            sim = make_sim(
                ProcessPoolExecutor(
                    num_workers=num_workers,
                    start_method="fork",
                    pool_manager=manager,
                    scheduler=scheduler,
                )
            )
            first = sim.run_batch(circuits, repetitions=reps)
            seconds = wall_time(
                lambda: sim.run_batch(circuits, repetitions=reps), repeats=3
            )
            assert manager.stats["inits"] == 1, manager.stats
        return first, seconds

    fifo_results, fifo_wall = pooled("fifo")
    _, adaptive_wall = pooled("adaptive")
    adaptive_tasks = batch_tasks(
        serial_sim, circuits, reps, num_workers, "adaptive"
    )
    assert any(t.num_chunks > 1 for t in adaptive_tasks)

    # FIFO correctness: bit-for-bit identical to the serial run_batch.
    serial = make_sim().run_batch(circuits, repetitions=reps)
    for a, b in zip(serial, fifo_results):
        np.testing.assert_array_equal(a.measurements["m"], b.measurements["m"])

    # The makespan each schedule achieves for the measured durations.
    fifo_makespan = list_schedule_makespan(point_seconds, num_workers)
    adaptive_durations = [
        point_seconds[t.point_index] * t.repetitions / reps
        for t in adaptive_tasks
    ]
    adaptive_makespan = list_schedule_makespan(adaptive_durations, num_workers)

    speedup = fifo_makespan / adaptive_makespan
    print_series(
        "Adaptive vs FIFO mixed-depth sweep",
        [
            "points",
            "reps",
            "workers",
            "adaptive_makespan_s",
            "fifo_makespan_s",
            "speedup",
            "adaptive_wall_s",
            "fifo_wall_s",
        ],
        [
            (
                points,
                reps,
                num_workers,
                adaptive_makespan,
                fifo_makespan,
                speedup,
                adaptive_wall,
                fifo_wall,
            )
        ],
    )
    assert_timing_win(
        adaptive_makespan, fifo_makespan, "adaptive scheduling beats FIFO"
    )
