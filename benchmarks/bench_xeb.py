"""XEB supremacy-scale verification workload benchmark.

The headline workload of this series: 64 *distinct* random supremacy
circuits swept through ``run_batch`` on the warm pool as one
multi-program payload, scored with the batched linear-XEB estimators.
Three claims ride in one JSON row (``BENCH_xeb_supremacy_batch.json``):

* **One init for the whole ensemble** — 64 distinct circuits, streamed
  *and* blocking passes on the same pool, exactly 1 worker
  initialization (``pool_inits``, exact-gated).
* **Streamed == blocking** — the per-circuit XEB estimates yielded by
  ``stream_xeb_workload`` as points land are bit-for-bit the estimates
  the blocking ``run_xeb_workload`` computes (``streamed_equal``,
  exact-gated).
* **MergeRotations is an end-to-end sampling win** — the circuits arrive
  pulse-split (each sqrt gate as 4 consecutive same-axis fractional
  pulses, hardware style); collapsing the runs back with the
  ``MergeRotations`` pass cuts the sampled op count ~3x and the measured
  warm-pool sampling time >= 1.2x (``speedup``, ratio-gated with a 1.2
  absolute floor in ``check_regressions.py``).
"""

import numpy as np

import repro as bgls
from repro import born
from repro.apps import (
    ideal_output_probabilities,
    run_xeb_workload,
    stream_xeb_workload,
    xeb_circuits,
)
from repro.sampler import PoolManager, ProcessPoolExecutor
from repro.states import StateVectorSimulationState
from repro.transpile import MergeRotations, transpile

from conftest import assert_timing_win, print_series, wall_time

ROWS, COLS, CYCLES = 2, 3, 4
NUM_CIRCUITS = 64
REPS = 20
PULSE_SPLITS = 4
SEED = 2023


def make_sim(qubits, executor=None, seed=17):
    return bgls.Simulator(
        StateVectorSimulationState(qubits),
        bgls.act_on,
        born.compute_probability_state_vector,
        seed=seed,
        executor=executor,
    )


def test_xeb_supremacy_batch():
    """64 distinct circuits, 1 pool init, streamed parity, merge win."""
    split = xeb_circuits(
        ROWS,
        COLS,
        CYCLES,
        NUM_CIRCUITS,
        pulse_splits=PULSE_SPLITS,
        random_state=SEED,
    )
    assert len({repr(c) for c in split}) == NUM_CIRCUITS
    merged = [transpile(c, [MergeRotations()]) for c in split]
    qubits = split[0].all_qubits()
    # Same unitary by construction — one exact-distribution set serves
    # both transpile variants.
    probs = [ideal_output_probabilities(c) for c in merged]

    ops_split = split[0].num_operations()
    ops_merged = merged[0].num_operations()
    assert ops_merged < ops_split

    with PoolManager() as manager:
        executor = ProcessPoolExecutor(
            num_workers=2, start_method="fork", pool_manager=manager
        )
        # One simulator for every pass: per-call seeding is deterministic
        # (streamed == blocking is a replay, not a coincidence), and the
        # pool's key stays fixed across both passes.
        sim = make_sim(qubits, executor)
        streamed = list(
            stream_xeb_workload(sim, split, REPS, probabilities=probs)
        )
        blocking = run_xeb_workload(sim, split, REPS, probabilities=probs)
        # Acceptance: the whole ensemble — streamed and blocking passes —
        # reuses one warm pool, initialized exactly once.
        assert manager.stats["inits"] == 1, manager.stats
        pool_inits = manager.stats["inits"]

        streamed_equal = int(streamed == list(blocking.per_circuit))
        assert streamed_equal == 1

        split_s = wall_time(
            lambda: run_xeb_workload(sim, split, REPS, probabilities=probs),
            repeats=3,
        )
        merged_s = wall_time(
            lambda: run_xeb_workload(sim, merged, REPS, probabilities=probs),
            repeats=3,
        )

    # The estimators certify the sampler: ensemble fidelity consistent
    # with 1 at this sample budget.
    assert 0.5 < blocking.fidelity < 1.5

    speedup = split_s / merged_s
    print_series(
        "XEB supremacy batch",
        [
            "circuits",
            "reps",
            "qubits",
            "pool_inits",
            "streamed_equal",
            "ops_split",
            "ops_merged",
            "split_s",
            "merged_s",
            "speedup",
            "fidelity",
            "scatter_err",
        ],
        [
            (
                NUM_CIRCUITS,
                REPS,
                len(qubits),
                pool_inits,
                streamed_equal,
                ops_split,
                ops_merged,
                split_s,
                merged_s,
                speedup,
                blocking.fidelity,
                blocking.scatter_err,
            )
        ],
    )
    assert_timing_win(
        1.2 * merged_s,
        split_s,
        "merge-rotations end-to-end sampling win >= 1.2x",
    )
