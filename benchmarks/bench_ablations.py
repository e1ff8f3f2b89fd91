"""Ablation benches for design choices called out in DESIGN.md.

1. Vectorized candidate enumeration (tensor slice) vs the generic
   per-candidate compute_probability loop.
2. Dict-of-bitstrings parallelization vs per-shot trajectories.
3. Gate-by-gate (BGLS) vs the conventional qubit-by-qubit baseline.
4. skip_diagonal_updates on diagonal-heavy circuits.
5. Process-parallel trajectory fan-out vs serial trajectories.
"""

import numpy as np
import pytest

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.sampler import PoolManager, ProcessPoolExecutor

from conftest import make_sv_simulator, print_series, wall_time

REPS = 200

_PAR_QUBITS = cirq.LineQubit.range(10)


def _parallel_simulator(seed, executor=None):
    """A 10-qubit state-vector simulator (pool-safe components)."""
    return bgls.Simulator(
        bgls.StateVectorSimulationState(_PAR_QUBITS),
        bgls.act_on,
        born.compute_probability_state_vector,
        seed=seed,
        executor=executor,
    )


@pytest.fixture(scope="module")
def workload():
    qubits = cirq.LineQubit.range(10)
    circuit = cirq.generate_random_circuit(
        qubits, 20, op_density=0.8, random_state=9
    )
    return qubits, circuit


def test_ablation_vectorized_candidates(benchmark, workload):
    qubits, circuit = workload
    fast = bgls.Simulator(
        bgls.StateVectorSimulationState(qubits),
        bgls.act_on,
        born.compute_probability_state_vector,  # auto-maps to batched slice
        seed=0,
    )

    def scalar_only(state, bitstring):
        return state.probability_of(bitstring)

    slow = bgls.Simulator(
        bgls.StateVectorSimulationState(qubits),
        bgls.act_on,
        scalar_only,  # unknown to the registry -> per-candidate loop
        seed=0,
    )
    t_fast = wall_time(lambda: fast.sample_bitstrings(circuit, REPS))
    t_slow = wall_time(lambda: slow.sample_bitstrings(circuit, REPS))
    print_series(
        "Ablation - vectorized candidate slicing vs per-candidate loop",
        ["variant", "seconds"],
        [("vectorized", t_fast), ("loop", t_slow), ("speedup", t_slow / t_fast)],
    )
    assert t_fast <= t_slow * 1.2  # vectorized never meaningfully slower

    benchmark(lambda: fast.sample_bitstrings(circuit, REPS))


def test_ablation_dict_parallelization(benchmark, workload):
    qubits, circuit = workload
    parallel = make_sv_simulator(qubits, seed=0)

    def tagged(op, state):
        bgls.act_on(op, state)

    tagged._bgls_stochastic_ = True  # force per-shot trajectories
    trajectories = bgls.Simulator(
        bgls.StateVectorSimulationState(qubits),
        tagged,
        born.compute_probability_state_vector,
        seed=0,
    )
    t_par = wall_time(lambda: parallel.sample_bitstrings(circuit, REPS))
    t_traj = wall_time(lambda: trajectories.sample_bitstrings(circuit, REPS))
    print_series(
        f"Ablation - dict parallelization vs trajectories ({REPS} reps)",
        ["variant", "seconds"],
        [("parallel_dict", t_par), ("trajectories", t_traj),
         ("speedup", t_traj / t_par)],
    )
    # The whole point of Sec. 3.2.3: batching many reps is much cheaper.
    assert t_par < t_traj

    benchmark(lambda: parallel.sample_bitstrings(circuit, REPS))


def test_ablation_bgls_vs_qubit_by_qubit(benchmark, workload):
    qubits, circuit = workload
    gate_by_gate = make_sv_simulator(qubits, seed=0)
    baseline = bgls.QubitByQubitSimulator(
        bgls.StateVectorSimulationState(qubits), bgls.act_on, seed=0
    )
    t_bgls = wall_time(lambda: gate_by_gate.sample_bitstrings(circuit, REPS))
    t_base = wall_time(lambda: baseline.sample_bitstrings(circuit, REPS))
    print_series(
        f"Ablation - BGLS vs conventional qubit-by-qubit ({REPS} reps, "
        "10 qubits)",
        ["variant", "seconds"],
        [("gate_by_gate", t_bgls), ("qubit_by_qubit", t_base)],
    )
    # With dict parallelization BGLS amortizes over repetitions; the
    # baseline collapses n marginals per shot.
    assert t_bgls < t_base

    benchmark(lambda: gate_by_gate.sample_bitstrings(circuit, REPS))


def test_ablation_process_parallel_trajectories(benchmark):
    """Process fan-out of trajectory sampling (noisy circuit workload).

    Noise forces one independent walk per repetition (Sec. 3.2.1), the
    regime where a process pool can pay for its dispatch overhead.  The
    series shows the crossover; the assertion only requires correctness
    plus a sane overhead bound, since small workloads can be slower in
    parallel.
    """
    from repro.circuits import channels

    circuit = cirq.generate_random_circuit(
        _PAR_QUBITS, 16, op_density=0.8, random_state=13
    )
    noisy = cirq.Circuit()
    for moment in circuit.moments:
        noisy.append_new_moment(moment.operations)
    noisy.append(channels.depolarize(0.01).on(q) for q in _PAR_QUBITS)
    noisy.append(cirq.measure(*_PAR_QUBITS, key="z"))
    reps = 100

    def pooled(workers, manager, seed=0):
        executor = ProcessPoolExecutor(
            num_workers=workers, start_method="fork", pool_manager=manager
        )
        return _parallel_simulator(seed, executor).sample_bitstrings(
            noisy, repetitions=reps
        )

    t_serial = wall_time(
        lambda: _parallel_simulator(0).sample_bitstrings(noisy, repetitions=reps)
    )
    with PoolManager() as two, PoolManager() as four:
        t_par2 = wall_time(lambda: pooled(2, two))
        t_par4 = wall_time(lambda: pooled(4, four))
        benchmark(lambda: pooled(4, four, seed=1))
    print_series(
        f"Ablation - process-parallel trajectories ({reps} noisy reps)",
        ["variant", "seconds", "speedup_vs_serial"],
        [
            ("serial", t_serial, 1.0),
            ("2_workers", t_par2, t_serial / t_par2),
            ("4_workers", t_par4, t_serial / t_par4),
        ],
    )
    # Pool overhead must stay bounded even if it does not win at this size.
    assert t_par4 < t_serial * 3.0


def test_ablation_skip_diagonal_updates(benchmark):
    qubits = cirq.LineQubit.range(8)
    # Diagonal-heavy circuit: H layer then many CZ/T/Z gates.
    rng = np.random.default_rng(4)
    circuit = cirq.Circuit([cirq.H(q) for q in qubits])
    for _ in range(60):
        if rng.random() < 0.5:
            a, b = rng.choice(8, size=2, replace=False)
            circuit.append(cirq.CZ(qubits[a], qubits[b]))
        else:
            gate = [cirq.T, cirq.Z, cirq.S][int(rng.integers(3))]
            circuit.append(gate(qubits[int(rng.integers(8))]))
    plain = make_sv_simulator(qubits, seed=0)
    skipping = make_sv_simulator(qubits, seed=0, skip_diagonal_updates=True)
    t_plain = wall_time(lambda: plain.sample_bitstrings(circuit, REPS))
    t_skip = wall_time(lambda: skipping.sample_bitstrings(circuit, REPS))
    print_series(
        "Ablation - skip_diagonal_updates on a diagonal-heavy circuit",
        ["variant", "seconds"],
        [("update_always", t_plain), ("skip_diagonal", t_skip)],
    )
    # Diagonal gates never change candidate conditionals; skipping is safe
    # and should not be slower (usually faster).
    assert t_skip < t_plain * 1.5

    benchmark(lambda: skipping.sample_bitstrings(circuit, REPS))
