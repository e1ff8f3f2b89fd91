"""Program-cache sweeps and shared-plan pooled startup (PR 3 layers).

Two claims, two series:

* **Sweep cache** — ``run_sweep`` over a parameterized template compiles
  the circuit's structure once (one Program-cache miss) and re-derives
  only the resolver-dependent unitaries per point, versus recompiling the
  full circuit per point (the pre-Program behavior, emulated by clearing
  the cache between points).
* **Pooled startup** — the executor-layer process pool ships the compiled
  plan and packed initial state once per *worker* and hands each task a
  few scalars, versus a per-task ``(factory, circuit)`` pickle with an
  in-worker rebuild.  The payload series is deterministic (byte counts).
"""

import pickle

import numpy as np

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.circuits import channels
from repro.sampler import clear_program_cache, program_cache_info
from repro.sampler.executors import _WorkerPayload
from repro.states import StateVectorSimulationState

from conftest import assert_timing_win, print_series, wall_time

SWEEP_POINTS = 24
REPS = 8


def layered_template(qubits, layers):
    """Clifford-heavy layers with one Rz(theta) per layer: lots of
    resolver-independent compile work, a sliver of per-point work."""
    theta = cirq.Symbol("theta")
    rng = np.random.default_rng(7)
    circuit = cirq.Circuit()
    for layer in range(layers):
        for q in qubits:
            circuit.append(
                cirq.H(q) if rng.random() < 0.5 else cirq.S(q)
            )
        start = layer % 2
        for a, b in zip(qubits[start::2], qubits[start + 1 :: 2]):
            circuit.append(cirq.CNOT(a, b))
        circuit.append(cirq.Rz(theta * (layer + 1)).on(qubits[layer % len(qubits)]))
    circuit.append(cirq.measure(*qubits, key="m"))
    return circuit


def sv_simulator(qubits, seed=0, **kw):
    return bgls.Simulator(
        StateVectorSimulationState(qubits),
        bgls.act_on,
        born.compute_probability_state_vector,
        seed=seed,
        **kw,
    )


def test_sweep_cache_vs_per_point_compilation(benchmark):
    """>= 20-point sweep: one compile + cheap specializations wins."""
    qubits = cirq.LineQubit.range(10)
    circuit = layered_template(qubits, layers=24)
    resolvers = [{"theta": 0.1 * i} for i in range(SWEEP_POINTS)]

    def swept():
        clear_program_cache()
        sim = sv_simulator(qubits, seed=1)
        return sim.run_sweep(circuit, resolvers, repetitions=REPS)

    def per_point():
        sim = sv_simulator(qubits, seed=1)
        out = []
        for resolver in resolvers:
            clear_program_cache()  # the pre-Program cost model
            out.append(sim.run(circuit, REPS, param_resolver=resolver))
        return out

    t_swept = wall_time(swept, repeats=3)
    # Counter acceptance: the whole sweep compiled shared metadata once.
    clear_program_cache()
    sim = sv_simulator(qubits, seed=1)
    sim.run_sweep(circuit, resolvers, repetitions=REPS)
    info = program_cache_info()
    assert info["misses"] == 1, info
    program = sim.compile(circuit)
    assert program.specializations == SWEEP_POINTS
    assert program.param_slot_count == 24  # one Rz per layer
    t_per_point = wall_time(per_point, repeats=3)

    print_series(
        f"run_sweep cached Program vs per-point compile "
        f"({SWEEP_POINTS} points, 10 qubits, 24 layers, {REPS} reps)",
        ["variant", "seconds", "speedup"],
        [
            ("swept_cached", t_swept, 1.0),
            ("per_point_compile", t_per_point, t_per_point / t_swept),
        ],
    )
    assert_timing_win(t_swept, t_per_point, "program-cache sweep")
    benchmark(lambda: sv_simulator(qubits, seed=2).run_sweep(
        circuit, resolvers[:4], repetitions=REPS
    ))


def noisy_circuit(qubits, layers=20):
    rng = np.random.default_rng(11)
    circuit = cirq.Circuit()
    for layer in range(layers):
        for q in qubits:
            circuit.append(cirq.H(q) if rng.random() < 0.5 else cirq.T(q))
        start = layer % 2
        for a, b in zip(qubits[start::2], qubits[start + 1 :: 2]):
            circuit.append(cirq.CNOT(a, b))
        circuit.append(channels.depolarize(0.02).on(qubits[layer % len(qubits)]))
    circuit.append(cirq.measure(*qubits, key="z"))
    return circuit


POOL_QUBITS = cirq.LineQubit.range(10)


def pool_factory(seed):
    """Module-level simulator factory (what a per-task pickle would ship)."""
    return sv_simulator(POOL_QUBITS, seed=seed)


def test_pooled_task_payload_is_constant(benchmark):
    """The per-task pickle no longer grows with the circuit or state."""
    rows = []
    for layers in (8, 16, 32):
        circuit = noisy_circuit(POOL_QUBITS, layers=layers)
        legacy_task = len(pickle.dumps((pool_factory, circuit, 4, 123)))
        # _run_task args of one chunk: (unit_index, resolver, size,
        # seed, (base, point, rep_base)).
        pooled_task = len(pickle.dumps((0, None, 4, 123, (123, 0, 0))))
        sim = sv_simulator(POOL_QUBITS, seed=0)
        plan = sim.compile(circuit).specialize(None)
        once_per_worker = len(pickle.dumps(_WorkerPayload(sim, (plan,))))
        rows.append((layers, legacy_task, pooled_task, once_per_worker))
        # Acceptance: tasks are O(1); the circuit ships once per worker.
        assert pooled_task < 100
        assert pooled_task < legacy_task
    assert rows[0][2] == rows[-1][2]  # task payload independent of depth
    print_series(
        "Pooled executor task payloads (bytes)",
        ["layers", "legacy_per_task", "pooled_per_task", "pooled_once_per_worker"],
        rows,
    )
    circuit = noisy_circuit(POOL_QUBITS, layers=8)
    sim = sv_simulator(POOL_QUBITS, seed=0)
    plan = sim.compile(circuit).specialize(None)
    benchmark(lambda: pickle.dumps(_WorkerPayload(sim, (plan,))))
