"""Golden seeded output of the five multi-point entry points.

``run_sweep``, ``run_sweep_iter``, ``sample_bitstrings_sweep``,
``run_batch`` and ``run_batch_iter`` are pinned by SHA-256 digest (first
16 hex digits) for fixed seeds, on three cases:

* ``state_vector`` — a 4-qubit state-vector circuit (parallel mode);
* ``noisy_serial`` / ``noisy_batched`` — a depolarized 4-qubit circuit
  (trajectory mode) under the serial and the batched trajectory engine.

Each case runs with no executor, ``SerialExecutor(chunks=1)`` and a
2-worker ``ProcessPoolExecutor`` in every scheduling mode over both
result transports.  Every point is one seeded stream with no executor,
serially and under ``"fifo"``, so those share the ``"stream"`` digests;
``"adaptive"`` and ``"stealing"`` split points into seeded chunks and
have their own.  The pooled start method comes from
``BGLS_POOL_START_METHODS`` (default ``fork``).
"""

import hashlib
import multiprocessing
import os

import numpy as np
import pytest

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.sampler import PoolManager, ProcessPoolExecutor, SerialExecutor
from repro.states import StateVectorSimulationState


def pool_start_method():
    env = os.environ.get("BGLS_POOL_START_METHODS", "fork")
    available = multiprocessing.get_all_start_methods()
    methods = [m.strip() for m in env.split(",") if m.strip() in available]
    return methods[0] if methods else available[0]


START_METHOD = pool_start_method()

QUBITS = cirq.LineQubit.range(4)
THETA = cirq.Symbol("theta")
SEED = 2024
REPS = 24
POINTS = [{"theta": 0.3}, {"theta": 1.1}, {"theta": 2.0}]


def _entangle(depth, noise):
    ops = [cirq.H(q) for q in QUBITS]
    for layer in range(depth):
        ops += [cirq.CNOT(a, b) for a, b in zip(QUBITS, QUBITS[1:])]
        ops.append(cirq.rx(0.2 + 0.3 * layer)(QUBITS[layer % 4]))
        if noise:
            ops += [cirq.depolarize(0.05)(q) for q in QUBITS]
    return ops


def template(noise):
    """The sweep template: entangler, parameterized Rx, two keys."""
    return cirq.Circuit(
        _entangle(1, noise),
        cirq.Rx(THETA).on(QUBITS[2]),
        cirq.measure(*QUBITS[:2], key="a"),
        cirq.measure(*QUBITS[2:], key="b"),
    )


def batch(noise):
    """A heterogeneous batch: one deep circuit ``"adaptive"`` splits,
    two shallow ones, and the template under a resolver."""
    circuits = [
        cirq.Circuit(_entangle(depth, noise), cirq.measure(*QUBITS, key="m"))
        for depth in (1, 8, 1)
    ]
    return circuits + [template(noise)], [None, None, None, POINTS[1]]


CASES = {
    "state_vector": (False, "serial"),
    "noisy_serial": (True, "serial"),
    "noisy_batched": (True, "batched"),
}

# (executor id, factory taking the module's PoolManager, geometry label).
EXECUTORS = [
    ("none", lambda manager: None, "stream"),
    ("serial", lambda manager: SerialExecutor(chunks=1), "stream"),
] + [
    (
        f"{mode}-{transport}",
        lambda manager, mode=mode, transport=transport: ProcessPoolExecutor(
            num_workers=2,
            start_method=START_METHOD,
            pool_manager=manager,
            scheduler=mode,
            result_transport=transport,
        ),
        "stream" if mode == "fifo" else mode,
    )
    for mode in ("fifo", "adaptive", "stealing")
    for transport in ("shm", "pickle")
]


def _entries(sweep, bits, batch):
    """The five entry digests; a stream equals its blocking call."""
    return {
        "run_sweep": sweep,
        "run_sweep_iter": sweep,
        "sample_bitstrings_sweep": bits,
        "run_batch": batch,
        "run_batch_iter": batch,
    }


# Generated from the tree before sweeps and batches shared one task
# list; "noisy_batched" is one row three times because the batched
# engine's output does not depend on chunk geometry.
GOLDEN = {
    "state_vector": {
        "stream": _entries(
            "65cd4da6f5b4ddd8", "61898a6c1afb7687", "31e2b871b442bd11"
        ),
        "adaptive": _entries(
            "65cd4da6f5b4ddd8", "61898a6c1afb7687", "9bb22db02093a948"
        ),
        "stealing": _entries(
            "fde37120b68514dc", "a1f17ecf46ac0101", "2f4948e77a0f8019"
        ),
    },
    "noisy_serial": {
        "stream": _entries(
            "ca61626035ceb00b", "1ca7062456ab1747", "a3cd1f06d1b37499"
        ),
        "adaptive": _entries(
            "ca61626035ceb00b", "1ca7062456ab1747", "6c98b12dff72e808"
        ),
        "stealing": _entries(
            "eea5b652c1099578", "264e91dae0df2e44", "3bd45859455cbf7d"
        ),
    },
    "noisy_batched": {
        "stream": _entries(
            "acd823f4f29e5ce1", "336a97cba7134590", "8679c31f533011a2"
        ),
        "adaptive": _entries(
            "acd823f4f29e5ce1", "336a97cba7134590", "8679c31f533011a2"
        ),
        "stealing": _entries(
            "acd823f4f29e5ce1", "336a97cba7134590", "8679c31f533011a2"
        ),
    },
}


def _digest(arrays):
    """SHA-256 over ``(name, shape, int8 bytes)`` of every array."""
    h = hashlib.sha256()
    for name, array in arrays:
        array = np.ascontiguousarray(np.asarray(array, dtype=np.int8))
        h.update(f"{name}{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()[:16]


def _results_digest(results):
    return _digest(
        (f"{i}:{key}", result.measurements[key])
        for i, result in enumerate(results)
        for key in sorted(result.measurements)
    )


def make_sim(trajectory_mode, executor=None):
    return bgls.Simulator(
        StateVectorSimulationState(QUBITS),
        bgls.act_on,
        born.compute_probability_state_vector,
        seed=SEED,
        executor=executor,
        trajectory_mode=trajectory_mode,
    )


def entry_digests(noise, trajectory_mode, executor):
    """The digest of each entry point's output for one configuration."""
    sim = make_sim(trajectory_mode, executor)
    circuit = template(noise)
    circuits, params = batch(noise)
    bits = sim.sample_bitstrings_sweep(circuit, POINTS, REPS)
    return {
        "run_sweep": _results_digest(sim.run_sweep(circuit, POINTS, REPS)),
        "run_sweep_iter": _results_digest(
            sim.run_sweep_iter(circuit, POINTS, REPS)
        ),
        "sample_bitstrings_sweep": _digest(
            (str(i), b) for i, b in enumerate(bits)
        ),
        "run_batch": _results_digest(sim.run_batch(circuits, params, REPS)),
        "run_batch_iter": _results_digest(
            sim.run_batch_iter(circuits, params, REPS)
        ),
    }


@pytest.fixture(scope="module")
def manager():
    mgr = PoolManager()
    yield mgr
    mgr.shutdown()


@pytest.mark.parametrize(
    "case, executor_id, make_executor, geometry",
    [
        pytest.param(case, *executor, id=f"{case}-{executor[0]}")
        for case in CASES
        for executor in EXECUTORS
    ],
)
def test_golden_digests(manager, case, executor_id, make_executor, geometry):
    noise, trajectory_mode = CASES[case]
    got = entry_digests(noise, trajectory_mode, make_executor(manager))
    assert got == GOLDEN[case][geometry]


@pytest.mark.parametrize("case", list(CASES))
def test_chunked_serial_executor_matches_executor_free(case):
    """``SerialExecutor(chunks=3)`` sweeps run one stream per point,
    exactly like the executor-free sweep."""
    noise, trajectory_mode = CASES[case]
    circuit = template(noise)
    chunked = make_sim(trajectory_mode, SerialExecutor(chunks=3)).run_sweep(
        circuit, POINTS, REPS
    )
    free = make_sim(trajectory_mode).run_sweep(circuit, POINTS, REPS)
    assert _results_digest(chunked) == _results_digest(free)
