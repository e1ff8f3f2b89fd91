"""Streaming sweep results: consume each point as its last chunk lands.

``Simulator.run_sweep_iter`` yields one :class:`Result` per sweep point
*while the rest of the sweep is still executing* on the warm pool —
results travel back through zero-copy shared-memory planes, are
collected completion-ordered, and are released to the consumer in point
order.  This example sweeps a rotation angle, prints a live |1...1>
probability estimate the moment each point completes, and shows the
streamed results are bit-for-bit the blocking ``run_sweep`` list.

Run:  PYTHONPATH=src python examples/streaming_sweep.py
"""

import time

import numpy as np

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.sampler import PoolManager, ProcessPoolExecutor


def main() -> None:
    nqubits = 4
    qubits = cirq.LineQubit.range(nqubits)
    theta = cirq.Symbol("theta")
    circuit = cirq.Circuit(cirq.Rx(theta).on(q) for q in qubits)
    circuit.append(cirq.measure(*qubits, key="m"))

    points = 8
    params = [{"theta": np.pi * i / (points - 1)} for i in range(points)]
    repetitions = 50_000

    with PoolManager() as manager:
        simulator = bgls.Simulator(
            initial_state=bgls.StateVectorSimulationState(qubits),
            apply_op=bgls.act_on,
            compute_probability=born.compute_probability_state_vector,
            seed=2023,
            executor=ProcessPoolExecutor(
                num_workers=2, pool_manager=manager
            ),
        )

        print(f"Streaming {points}-point sweep, {repetitions} reps/point:")
        start = time.perf_counter()
        streamed = []
        for i, result in enumerate(
            simulator.run_sweep_iter(circuit, params, repetitions=repetitions)
        ):
            streamed.append(result)
            ones = result.measurements["m"].all(axis=1).mean()
            print(
                f"  point {i} (theta={params[i]['theta']:.3f}) after "
                f"{time.perf_counter() - start:5.2f}s: "
                f"P(1...1) ~= {ones:.3f}"
            )

        # The streamed results ARE the blocking API's list, bit for bit.
        blocking = simulator.run_sweep(circuit, params, repetitions=repetitions)
        for streamed_result, blocking_result in zip(streamed, blocking):
            np.testing.assert_array_equal(
                streamed_result.measurements["m"],
                blocking_result.measurements["m"],
            )
    print("Streamed results match run_sweep exactly.")


if __name__ == "__main__":
    main()
