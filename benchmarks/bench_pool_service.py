"""Warm-pool service benchmarks: startup amortization + payload economy.

Two claims, two series:

* **Warm vs cold pool** — a 24-point parameter sweep fanned point-wise
  across a warm process pool (workers initialized once, reused across
  ``run_sweep`` calls) versus the cold per-call model (a fresh pool —
  and a full worker re-initialization — for every point's ``execute``,
  the PR-3 behavior).  Acceptance bar: warm wins by >= 1.5x wall-clock
  (``BENCH_warm_pool_vs_cold_pool_sweep.json``), with zero warm worker
  re-initializations across consecutive sweeps asserted via the
  manager's init counter.
* **Snapshot payloads** — the packed tableau/CH backends ship raw
  ``uint64`` words to workers instead of pickled state objects; the
  series records payload-vs-pickle bytes at word-boundary widths
  (``BENCH_snapshot_payload_bytes.json``).

Correctness stays pinned alongside the timings: warm, cold, and serial
sweeps are bit-for-bit identical.
"""

import pickle

import numpy as np

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.sampler import PoolManager, ProcessPoolExecutor
from repro.states import (
    CliffordTableauSimulationState,
    StabilizerChFormSimulationState,
    StateVectorSimulationState,
    capabilities_for,
)

from conftest import assert_timing_win, print_series, wall_time

SWEEP_POINTS = 24
REPS = 20
WIDTH = 6


def sweep_template(qubits):
    theta = cirq.Symbol("theta")
    circuit = cirq.Circuit(cirq.H(q) for q in qubits)
    for a, b in zip(qubits[:-1], qubits[1:]):
        circuit.append(cirq.CNOT(a, b))
    for q in qubits:
        circuit.append(cirq.Rx(theta).on(q))
    circuit.append(cirq.measure(*qubits, key="m"))
    return circuit


def make_sim(qubits, executor=None):
    return bgls.Simulator(
        StateVectorSimulationState(qubits),
        bgls.act_on,
        born.compute_probability_state_vector,
        seed=11,
        executor=executor,
    )


def test_warm_pool_vs_cold_pool_sweep():
    """One warm pool for the whole sweep vs one pool startup per point."""
    qubits = cirq.LineQubit.range(WIDTH)
    template = sweep_template(qubits)
    params = [{"theta": 0.1 + 0.11 * i} for i in range(SWEEP_POINTS)]

    with PoolManager() as manager:
        warm_sim = make_sim(
            qubits,
            ProcessPoolExecutor(
                num_workers=2, start_method="fork", pool_manager=manager
            ),
        )
        # First call builds + initializes the workers once...
        warm_first = warm_sim.sample_bitstrings_sweep(
            template, params, repetitions=REPS
        )
        # ...then consecutive sweeps reuse them with zero re-inits.
        warm_seconds = wall_time(
            lambda: warm_sim.sample_bitstrings_sweep(
                template, params, repetitions=REPS
            ),
            repeats=3,
        )
        assert manager.stats["inits"] == 1, manager.stats
        assert manager.stats["reuses"] >= 3

    def cold_point(resolver):
        with PoolManager() as cold_manager:
            cold_sim = make_sim(
                qubits,
                ProcessPoolExecutor(
                    num_workers=2, start_method="fork", pool_manager=cold_manager
                ),
            )
            cold_sim.sample_bitstrings(template, REPS, param_resolver=resolver)
            assert cold_manager.stats["inits"] == 1

    # One call per point on a cold pool = the PR-3 cost model: every
    # sweep point spins up (and tears down) its own fully-initialized pool.
    cold_seconds = wall_time(lambda: [cold_point(p) for p in params], repeats=1)

    serial = make_sim(qubits).sample_bitstrings_sweep(
        template, params, repetitions=REPS
    )
    warm_again = make_sim(
        qubits,
        ProcessPoolExecutor(num_workers=2, start_method="fork"),
    ).sample_bitstrings_sweep(template, params, repetitions=REPS)
    for a, b, c in zip(serial, warm_first, warm_again):
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)

    speedup = cold_seconds / warm_seconds
    print_series(
        "warm pool vs cold pool sweep",
        ["points", "reps", "warm_s", "cold_s", "speedup"],
        [(SWEEP_POINTS, REPS, warm_seconds, cold_seconds, speedup)],
    )
    # The acceptance bar is 1.5x, not just "faster".
    assert_timing_win(
        1.5 * warm_seconds, cold_seconds, "warm pool >= 1.5x over cold"
    )


def test_snapshot_payload_bytes():
    """Raw-word snapshot payloads vs pickled state objects, per backend."""
    rows = []
    for state_cls, label in (
        (CliffordTableauSimulationState, "clifford_tableau"),
        (StabilizerChFormSimulationState, "stabilizer_ch_form"),
    ):
        caps = capabilities_for(state_cls)
        for n in (63, 64, 65, 256):
            qubits = cirq.LineQubit.range(n)
            circuit = cirq.random_clifford_circuit(qubits, 6, random_state=n)
            state = state_cls(qubits)
            for op in circuit.all_operations():
                bgls.act_on(op, state)
            payload_bytes = len(pickle.dumps(caps.snapshot(state)))
            object_bytes = len(pickle.dumps(state))
            assert payload_bytes < object_bytes
            rows.append(
                (
                    label,
                    n,
                    payload_bytes,
                    object_bytes,
                    object_bytes / payload_bytes,
                )
            )
    print_series(
        "snapshot payload bytes",
        ["backend", "width", "payload_bytes", "pickled_state_bytes", "ratio"],
        rows,
    )
