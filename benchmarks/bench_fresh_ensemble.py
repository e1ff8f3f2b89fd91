"""A fresh circuit ensemble on the warm pool vs serial ``run_batch``.

The XEB workload samples a new 64-circuit ensemble on every call.  Each
pooled task carries its compiled circuit, so the pool is keyed by the
initial state and simulator config alone: eight successive fresh
ensembles run on one warm pool (``inits`` = 1, exact-gated) and each
call costs about one serial ``run_batch``, not a worker respawn.

One JSON row (``BENCH_fresh_ensemble_pool_vs_serial.json``):

* ``serial_s`` / ``pooled_s`` — mean seconds per fresh ensemble, both
  arms compiling from an empty Program cache;
* ``ratio = serial_s / pooled_s`` — gated in ``check_regressions.py``
  with an absolute floor of 0.67: a fresh-ensemble pooled call stays
  within 1.5x of serial ``run_batch``.

Pooled output is asserted bit-for-bit equal to the serial output.
"""

import time

import numpy as np

import repro as bgls
from repro import born
from repro.apps import xeb_circuits
from repro.sampler import PoolManager, ProcessPoolExecutor, clear_program_cache
from repro.states import StateVectorSimulationState

from conftest import assert_timing_win, print_series

ROWS, COLS, CYCLES = 2, 3, 4
NUM_CIRCUITS = 64
REPS = 20
ENSEMBLES = 8
SEED = 2024


def make_sim(qubits, executor=None):
    return bgls.Simulator(
        StateVectorSimulationState(qubits),
        bgls.act_on,
        born.compute_probability_state_vector,
        seed=23,
        executor=executor,
    )


def timed_ensembles(sim, ensembles):
    """Mean seconds per ``run_batch`` call, and the outputs."""
    clear_program_cache()
    start = time.perf_counter()
    outputs = [sim.run_batch(circuits, repetitions=REPS) for circuits in ensembles]
    return (time.perf_counter() - start) / len(ensembles), outputs


def test_fresh_ensemble_pool_vs_serial():
    """Eight fresh 64-circuit ensembles: one pool init, near-serial cost."""
    warmup, *ensembles = [
        xeb_circuits(ROWS, COLS, CYCLES, NUM_CIRCUITS, random_state=SEED + k)
        for k in range(ENSEMBLES + 1)
    ]
    qubits = sorted(warmup[0].all_qubits())

    with PoolManager() as manager:
        pooled_sim = make_sim(
            qubits, ProcessPoolExecutor(num_workers=2, pool_manager=manager)
        )
        # Pay the cold spawn on an unrelated ensemble: every timed call
        # below brings circuits the workers have never seen.
        pooled_sim.run_batch(warmup, repetitions=REPS)
        pooled_s, pooled = timed_ensembles(pooled_sim, ensembles)
        inits = manager.stats["inits"]
    serial_s, serial = timed_ensembles(make_sim(qubits), ensembles)

    assert inits == 1
    for pooled_batch, serial_batch in zip(pooled, serial):
        for a, b in zip(pooled_batch, serial_batch):
            np.testing.assert_array_equal(a.measurements["m"], b.measurements["m"])

    ratio = serial_s / pooled_s
    print_series(
        "Fresh ensemble pool vs serial",
        ["circuits", "reps", "ensembles", "inits", "serial_s", "pooled_s", "ratio"],
        [(NUM_CIRCUITS, REPS, ENSEMBLES, inits, serial_s, pooled_s, ratio)],
    )
    assert_timing_win(
        pooled_s,
        1.5 * serial_s,
        "fresh-ensemble pooled call within 1.5x of serial run_batch",
    )
