"""Split schedules vs exact Born probabilities.

The parity suites show that a pooled split schedule equals its own
in-process replay; this suite checks the samples themselves.  Pooled
``run_batch`` under the ``"adaptive"`` and ``"stealing"`` modes, on a
2-worker pool over both result transports, must give every point a
histogram that passes a fixed-seed Pearson chi-square test against the
exact distribution from :class:`~repro.sampler.ExactDistributionSampler`.
The batch mixes shallow and deep circuits so that points really split
into seeded repetition chunks.
"""

import multiprocessing
import os

import numpy as np
import pytest
from scipy import stats

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.sampler import (
    ExactDistributionSampler,
    PoolManager,
    ProcessPoolExecutor,
    estimate_cost,
)
from repro.sampler.schedule import BatchEntry, schedule
from repro.states import StateVectorSimulationState


def pool_start_method():
    env = os.environ.get("BGLS_POOL_START_METHODS", "fork")
    available = multiprocessing.get_all_start_methods()
    methods = [m.strip() for m in env.split(",") if m.strip() in available]
    return methods[0] if methods else available[0]


N = 4
QUBITS = cirq.LineQubit.range(N)
REPS = 1200


def rotation_circuit(layers, seed):
    """``layers`` of random-angle Ry rotations and a CNOT chain: a skewed
    distribution, so repeated or dropped chunks would show in the counts."""
    angles = np.random.default_rng(seed).uniform(0.2, 1.4, (layers, N))
    circuit = cirq.Circuit()
    for row in angles:
        circuit.append(cirq.Ry(theta).on(q) for theta, q in zip(row, QUBITS))
        circuit.append(cirq.CNOT(a, b) for a, b in zip(QUBITS, QUBITS[1:]))
    circuit.append(cirq.measure(*QUBITS, key="m"))
    return circuit


def batch_circuits():
    """Two shallow circuits and one deep one: the deep one costs more than
    a worker's fair share, so even ``"adaptive"`` splits it."""
    return [
        rotation_circuit(1, 3),
        rotation_circuit(12, 5),
        rotation_circuit(2, 7),
    ]


def make_sim(executor=None):
    return bgls.Simulator(
        StateVectorSimulationState(QUBITS),
        bgls.act_on,
        born.compute_probability_state_vector,
        seed=2024,
        executor=executor,
    )


def chi_square_p_value(bits, probs, min_expected=5.0):
    """Pearson chi-square p-value of ``bits`` against ``probs``, pooling
    the lowest-expectation outcomes until each bin expects >= 5."""
    weights = 1 << np.arange(N - 1, -1, -1)
    counts = np.bincount(bits @ weights, minlength=2**N)
    order = np.argsort(probs)[::-1]
    observed, expected = [], []
    bin_obs = bin_exp = 0.0
    for i in order:
        bin_obs += counts[i]
        bin_exp += len(bits) * probs[i]
        if bin_exp >= min_expected:
            observed.append(bin_obs)
            expected.append(bin_exp)
            bin_obs = bin_exp = 0.0
    if expected:
        observed[-1] += bin_obs
        expected[-1] += bin_exp
    stat = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    return stats.chi2.sf(stat, max(len(expected) - 1, 1))


@pytest.fixture(scope="module")
def manager():
    with PoolManager() as mgr:
        yield mgr


@pytest.mark.parametrize("transport", ["shm", "pickle"])
@pytest.mark.parametrize("mode", ["adaptive", "stealing"])
def test_split_schedule_matches_exact_probabilities(manager, mode, transport):
    circuits = batch_circuits()
    programs = [make_sim().compile(circuit) for circuit in circuits]
    tasks = schedule(
        [
            BatchEntry(i, i, None, estimate_cost(program, REPS))
            for i, program in enumerate(programs)
        ],
        REPS,
        2,
        mode,
    )
    split = {t.point_index for t in tasks if t.num_chunks > 1}
    assert split == ({1} if mode == "adaptive" else {0, 1, 2})

    results = make_sim(
        ProcessPoolExecutor(
            num_workers=2,
            start_method=pool_start_method(),
            pool_manager=manager,
            scheduler=mode,
            result_transport=transport,
        )
    ).run_batch(circuits, repetitions=REPS)

    exact = ExactDistributionSampler(
        StateVectorSimulationState(QUBITS), bgls.act_on
    )
    for circuit, result in zip(circuits, results):
        bits = np.asarray(result.measurements["m"], dtype=np.int64)
        assert bits.shape == (REPS, N)
        probs = exact.final_distribution(circuit)
        assert chi_square_p_value(bits, probs) > 1e-3
