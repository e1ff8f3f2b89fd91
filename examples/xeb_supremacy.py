"""Streaming XEB verification of a supremacy-style random-circuit batch.

The paper's motivating workload end to end: build an ensemble of
distinct random supremacy circuits (delivered pulse-split, the way
hardware emits them), collapse the same-axis pulse runs with the
``MergeRotations`` transpile pass, sweep the whole ensemble through
``run_batch`` on the warm pool — one worker init for every circuit — and
print each circuit's linear-XEB fidelity the moment its point lands.
Finishes with the ensemble estimate and the Porter-Thomas convergence
diagnostics of one member.

Run:  PYTHONPATH=src python examples/xeb_supremacy.py
"""

import time

import repro as bgls
from repro import born
from repro.analysis import ensemble_xeb, porter_thomas_convergence
from repro.apps import (
    ideal_output_probabilities,
    stream_xeb_workload,
    xeb_circuits,
)
from repro.sampler import PoolManager, ProcessPoolExecutor
from repro.transpile import MergeRotations, PassPipeline

ROWS, COLS, CYCLES = 2, 3, 8
NUM_CIRCUITS = 16
REPS = 500


def main() -> None:
    raw = xeb_circuits(
        ROWS, COLS, CYCLES, NUM_CIRCUITS, pulse_splits=4, random_state=7
    )
    pipeline = PassPipeline([MergeRotations()])
    circuits = [pipeline(c) for c in raw]
    stats = pipeline.stats[0]
    print(
        f"MergeRotations: {stats.ops_before} -> {stats.ops_after} ops "
        f"per circuit (depth {stats.depth_before} -> {stats.depth_after})"
    )

    probs = [ideal_output_probabilities(c) for c in circuits]
    qubits = circuits[0].all_qubits()

    with PoolManager() as manager:
        simulator = bgls.Simulator(
            initial_state=bgls.StateVectorSimulationState(qubits),
            apply_op=bgls.act_on,
            compute_probability=born.compute_probability_state_vector,
            seed=2023,
            executor=ProcessPoolExecutor(num_workers=2, pool_manager=manager),
        )

        print(
            f"Streaming XEB over {NUM_CIRCUITS} distinct circuits, "
            f"{REPS} samples each:"
        )
        start = time.perf_counter()
        estimates = []
        for i, est in enumerate(
            stream_xeb_workload(
                simulator, circuits, REPS, probabilities=probs
            )
        ):
            estimates.append(est)
            print(
                f"  circuit {i:2d} after {time.perf_counter() - start:5.2f}s: "
                f"F_xeb = {est.fidelity:6.3f} +- {est.std_err:.3f}"
            )
        assert manager.stats["inits"] == 1, manager.stats
        print(f"Warm-pool inits for the whole ensemble: "
              f"{manager.stats['inits']}")

    result = ensemble_xeb(estimates)
    print(
        f"Ensemble fidelity: {result.fidelity:.3f} "
        f"+- {result.scatter_err:.3f} (circuit scatter) "
        f"over {result.num_samples} samples"
    )
    conv = porter_thomas_convergence(probs[0])
    print(
        f"Porter-Thomas check (circuit 0): KS p-value {conv.p_value:.3f}, "
        f"collision ratio {conv.collision_ratio:.2f}, "
        f"speckle purity {conv.speckle_purity:.2f}"
    )


if __name__ == "__main__":
    main()
