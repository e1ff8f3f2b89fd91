"""Shared-memory result planes: transport economy + streaming latency.

Two claims, two series:

* **Shm result planes vs pickled results** — a wide-repetition tableau
  sweep fanned point-wise across a warm pool, once with
  ``result_transport="shm"`` (workers write their sample rows into
  pre-allocated shared-memory planes and return a single integer) and
  once with ``result_transport="pickle"`` (each task pickles its full
  ``(records, bits)`` arrays through the pool's result queue, the PR-5
  behavior).  The series records the actual parent↔worker result bytes
  (via the executor's ``measure_result_bytes`` probe) alongside wall
  time.  Acceptance bar: >= 2x byte reduction, with a measured wall
  win and bit-for-bit equality against the serial path
  (``BENCH_shm_result_planes_vs_pickled_results.json``).
* **Streaming first-point latency** — ``run_sweep_iter`` yields each
  point's ``Result`` as its last chunk lands, so a consumer sees the
  first point after ~1/points of the sweep instead of waiting for the
  blocking ``run_sweep`` to return the full list
  (``BENCH_streaming_first_point_latency.json``).

Correctness stays pinned alongside the timings: shm, pickle, serial,
and streaming results are bit-for-bit identical.
"""

import time

import numpy as np

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.sampler import PoolManager, ProcessPoolExecutor
from repro.states import CliffordTableauSimulationState

from conftest import assert_timing_win, print_series, wall_time

SWEEP_POINTS = 6
# (width, depth, repetitions): shallow, wide tableau sweeps where the
# per-point result arrays (reps x width x 2 planes, ~24-38 MB per
# sweep) dwarf the simulation cost — the regime the transport matters
# in, and the regime a streaming service tier runs in.
SWEEP_CONFIGS = ((20, 2, 100_000), (16, 1, 400_000))
STREAM_WIDTH = 12
STREAM_POINTS = 12
STREAM_REPS = 20_000
STREAM_DEPTH = 8


def tableau_sweep_circuit(qubits, depth):
    """A cheap-to-simulate, wide-output workload: the tableau backend
    samples hundreds of thousands of repetitions in parallel-front mode
    for pennies, so the result arrays — not the simulation — dominate."""
    circuit = cirq.random_clifford_circuit(qubits, depth, random_state=7)
    circuit.append(cirq.measure(*qubits, key="m"))
    return circuit


def make_tableau_sim(qubits, executor=None):
    return bgls.Simulator(
        CliffordTableauSimulationState(qubits),
        bgls.act_on,
        born.compute_probability_tableau,
        seed=23,
        executor=executor,
    )


def assert_results_equal(lhs, rhs):
    assert len(lhs) == len(rhs)
    for a, b in zip(lhs, rhs):
        assert sorted(a.measurements) == sorted(b.measurements)
        for key in a.measurements:
            np.testing.assert_array_equal(
                a.measurements[key], b.measurements[key]
            )


def test_shm_result_planes_vs_pickled_results():
    """Zero-copy shm planes vs pickled result tuples, same warm pool."""
    rows = []
    with PoolManager() as manager:
        for width, depth, reps in SWEEP_CONFIGS:
            qubits = cirq.LineQubit.range(width)
            circuit = tableau_sweep_circuit(qubits, depth)
            params = [None] * SWEEP_POINTS
            measured = {}
            for transport in ("pickle", "shm"):
                executor = ProcessPoolExecutor(
                    num_workers=2,
                    start_method="fork",
                    pool_manager=manager,
                    result_transport=transport,
                )
                sim = make_tableau_sim(qubits, executor)

                def sweep(sim=sim, reps=reps):
                    return sim.run_sweep(circuit, params, repetitions=reps)

                results = sweep()  # warm the pool outside the timing
                seconds = wall_time(sweep, repeats=3)
                # Bytes probe re-pickles every payload, so it runs in
                # its own untimed pass.
                executor.measure_result_bytes = True
                executor.last_result_bytes = 0
                sweep()
                executor.measure_result_bytes = False
                measured[transport] = (
                    results,
                    seconds,
                    executor.last_result_bytes,
                )

            serial = make_tableau_sim(qubits).run_sweep(
                circuit, params, repetitions=reps
            )
            assert_results_equal(serial, measured["pickle"][0])
            assert_results_equal(serial, measured["shm"][0])

            pickle_bytes = measured["pickle"][2]
            shm_bytes = measured["shm"][2]
            bytes_ratio = pickle_bytes / shm_bytes
            speedup = measured["pickle"][1] / measured["shm"][1]
            rows.append(
                (
                    SWEEP_POINTS,
                    reps,
                    width,
                    pickle_bytes,
                    shm_bytes,
                    bytes_ratio,
                    measured["pickle"][1],
                    measured["shm"][1],
                    speedup,
                    1,  # exact-equality column, asserted above
                )
            )

    print_series(
        "shm result planes vs pickled results",
        [
            "points",
            "reps",
            "width",
            "pickle_bytes",
            "shm_bytes",
            "bytes_ratio",
            "pickle_s",
            "shm_s",
            "speedup",
            "equal",
        ],
        rows,
    )
    for row in rows:
        # The acceptance bar: shm moves >= 2x fewer result bytes
        # through the pool's queue (in practice it is orders of
        # magnitude — each task returns one integer).
        assert row[5] >= 2.0, row
    widest = rows[-1]
    assert_timing_win(
        widest[7], widest[6], "shm result planes beat pickled results"
    )


def test_streaming_first_point_latency():
    """Time-to-first-result of ``run_sweep_iter`` vs blocking ``run_sweep``."""
    qubits = cirq.LineQubit.range(STREAM_WIDTH)
    circuit = tableau_sweep_circuit(qubits, STREAM_DEPTH)
    params = [None] * STREAM_POINTS

    with PoolManager() as manager:
        sim = make_tableau_sim(
            qubits,
            ProcessPoolExecutor(
                num_workers=2, start_method="fork", pool_manager=manager
            ),
        )
        def blocking():
            return sim.run_sweep(circuit, params, repetitions=STREAM_REPS)

        reference = blocking()  # warm the pool outside the timing
        full_seconds = wall_time(blocking, repeats=3)

        first_latencies = []
        for _ in range(3):
            start = time.perf_counter()
            stream = sim.run_sweep_iter(circuit, params, repetitions=STREAM_REPS)
            first = next(stream)
            first_latencies.append(time.perf_counter() - start)
            streamed = [first] + list(stream)  # drain outside the timing
        first_seconds = float(np.median(first_latencies))
        assert_results_equal(reference, streamed)

    speedup = full_seconds / first_seconds
    print_series(
        "streaming first point latency",
        ["points", "reps", "first_point_s", "full_sweep_s", "speedup"],
        [(STREAM_POINTS, STREAM_REPS, first_seconds, full_seconds, speedup)],
    )
    assert_timing_win(
        first_seconds,
        full_seconds,
        "first streamed point lands before the blocking sweep returns",
    )
