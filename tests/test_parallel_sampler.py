"""Seed contract of process-parallel sampling, plus chunking and extent.

Repetitions are independent draws, so a pooled run is a deterministic
task list of seeded chunks: chunk ``i`` draws from ``SeedSequence([seed,
i])`` whatever worker runs it.  These tests pin that contract on
:class:`~repro.sampler.executors.ProcessPoolExecutor` and its in-process
twin ``SerialExecutor(chunks=k)``.  The pooled start method comes from
``BGLS_POOL_START_METHODS`` (default ``fork``), so CI runs the same tests
under ``forkserver`` and ``spawn``.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro import born
from repro import circuits as cirq
from repro.circuits import channels
from repro.protocols import act_on
from repro.sampler import (
    PoolManager,
    ProcessPoolExecutor,
    SerialExecutor,
    Simulator,
    act_on_near_clifford,
    count_non_clifford_gates,
    stabilizer_extent_circuit,
    stabilizer_extent_rz,
)
from repro.sampler.service import _base_seed, _chunk_seeds_from_base, _chunk_sizes
from repro.states import (
    StabilizerChFormSimulationState,
    StateVectorSimulationState,
)

QUBITS = cirq.LineQubit.range(2)


def pool_start_method():
    env = os.environ.get("BGLS_POOL_START_METHODS", "fork")
    available = multiprocessing.get_all_start_methods()
    methods = [m.strip() for m in env.split(",") if m.strip() in available]
    return methods[0] if methods else available[0]


START_METHOD = pool_start_method()


@pytest.fixture(scope="module")
def manager():
    mgr = PoolManager()
    yield mgr
    mgr.shutdown()


def sv_sim(seed, executor=None):
    return Simulator(
        initial_state=StateVectorSimulationState(QUBITS),
        apply_op=act_on,
        compute_probability=born.compute_probability_state_vector,
        seed=seed,
        executor=executor,
    )


def stabilizer_sim(seed, executor=None):
    return Simulator(
        initial_state=StabilizerChFormSimulationState(QUBITS),
        apply_op=act_on_near_clifford,
        compute_probability=born.compute_probability_stabilizer_state,
        seed=seed,
        executor=executor,
    )


def pooled(manager, num_workers=2):
    return ProcessPoolExecutor(
        num_workers=num_workers,
        start_method=START_METHOD,
        pool_manager=manager,
    )


def noisy_bell_circuit():
    return cirq.Circuit(
        cirq.H.on(QUBITS[0]),
        channels.depolarize(0.1).on(QUBITS[0]),
        cirq.CNOT.on(QUBITS[0], QUBITS[1]),
        cirq.measure(*QUBITS, key="z"),
    )


def t_bell_circuit():
    return cirq.Circuit(
        cirq.H.on(QUBITS[0]),
        cirq.T.on(QUBITS[0]),
        cirq.CNOT.on(QUBITS[0], QUBITS[1]),
        cirq.measure(*QUBITS, key="z"),
    )


class TestChunking:
    def test_even_split(self):
        assert _chunk_sizes(100, 4) == [25, 25, 25, 25]

    def test_remainder_spread(self):
        assert _chunk_sizes(10, 3) == [4, 3, 3]

    def test_fewer_reps_than_chunks(self):
        assert _chunk_sizes(2, 8) == [1, 1]

    def test_total_preserved(self):
        for reps in (1, 7, 100, 1001):
            for chunks in (1, 3, 8):
                assert sum(_chunk_sizes(reps, chunks)) == reps


class TestParallelSampling:
    def test_repetition_count_and_keys(self, manager):
        records, bits = sv_sim(0, pooled(manager))._execute(
            noisy_bell_circuit(), 40, None
        )
        assert bits.shape == (40, 2)
        assert records["z"].shape == (40, 2)

    def test_single_worker_fallback(self):
        bits = sv_sim(1, ProcessPoolExecutor(num_workers=1)).sample_bitstrings(
            noisy_bell_circuit(), repetitions=10
        )
        assert bits.shape == (10, 2)

    def test_distribution_matches_serial(self, manager):
        circuit = noisy_bell_circuit()
        reps = 1200
        par_bits = sv_sim(2, pooled(manager)).sample_bitstrings(circuit, reps)
        ser_bits = sv_sim(3).sample_bitstrings(circuit, repetitions=reps)

        def hist(bits):
            h = np.zeros(4)
            for row in bits:
                h[2 * row[0] + row[1]] += 1
            return h / len(bits)

        tv = 0.5 * np.abs(hist(par_bits) - hist(ser_bits)).sum()
        assert tv < 0.08

    def test_near_clifford_trajectories_parallelize(self, manager):
        result = stabilizer_sim(4, pooled(manager)).run(t_bell_circuit(), 60)
        assert result.measurements["z"].shape == (60, 2)

    def test_run_parallel_requires_measurements(self, manager):
        circuit = cirq.Circuit(cirq.H.on(QUBITS[0]))
        with pytest.raises(ValueError, match="no measurements"):
            sv_sim(0, pooled(manager)).run(circuit, 8)

    def test_rejects_zero_repetitions(self, manager):
        with pytest.raises(ValueError, match="repetitions"):
            sv_sim(0, pooled(manager)).sample_bitstrings(
                noisy_bell_circuit(), 0
            )

    def test_reproducible_for_fixed_configuration(self, manager):
        circuit = noisy_bell_circuit()
        a = sv_sim(7, pooled(manager)).sample_bitstrings(circuit, 30)
        b = sv_sim(7, pooled(manager)).sample_bitstrings(circuit, 30)
        np.testing.assert_array_equal(a, b)


class TestStabilizerExtent:
    def test_t_gate_extent(self):
        import math

        # zeta(T) = (cos(pi/8) + (sqrt(2)-1) sin(pi/8))^2 ~ 1.17 (Bravyi 2019)
        zeta = stabilizer_extent_rz(math.pi / 4)
        assert 1.1 < zeta < 1.3

    def test_clifford_angles_have_unit_extent(self):
        import math

        assert stabilizer_extent_rz(0.0) == pytest.approx(1.0)
        assert stabilizer_extent_rz(math.pi / 2) == pytest.approx(1.0)

    def test_circuit_extent_multiplies(self):
        q = cirq.LineQubit(0)
        one_t = cirq.Circuit(cirq.H.on(q), cirq.T.on(q))
        two_t = cirq.Circuit(cirq.H.on(q), cirq.T.on(q), cirq.T.on(q))
        z1 = stabilizer_extent_circuit(one_t)
        z2 = stabilizer_extent_circuit(two_t)
        assert z2 == pytest.approx(z1**2)

    def test_pure_clifford_circuit_extent_is_one(self):
        qs = cirq.LineQubit.range(2)
        circuit = cirq.Circuit(
            cirq.H.on(qs[0]), cirq.CNOT.on(*qs), cirq.measure(*qs, key="z")
        )
        assert stabilizer_extent_circuit(circuit) == pytest.approx(1.0)
        assert count_non_clifford_gates(circuit) == 0

    def test_count_non_clifford(self):
        q = cirq.LineQubit(0)
        circuit = cirq.Circuit(
            cirq.H.on(q), cirq.T.on(q), cirq.S.on(q), cirq.T_DAG.on(q)
        )
        assert count_non_clifford_gates(circuit) == 2

    def test_extent_rejects_unsupported_gates(self):
        qs = cirq.LineQubit.range(3)
        circuit = cirq.Circuit(cirq.TOFFOLI.on(*qs))
        with pytest.raises(ValueError, match="extent"):
            stabilizer_extent_circuit(circuit)


class TestDeterministicWorkerSeeding:
    """Regression: worker seeds are a pure function of the user seed.

    Chunk ``i`` is seeded from ``SeedSequence([user_seed, i])``, so two
    identically seeded pooled runs must produce *identical* (not merely
    statistically compatible) histograms — equal to the in-process
    ``SerialExecutor`` with the same chunk count — and a chunk's seed
    must not depend on how many chunks follow it.
    """

    def test_identically_seeded_runs_produce_identical_histograms(
        self, manager
    ):
        circuit = noisy_bell_circuit()
        runs = []
        for _ in range(2):
            records, bits = sv_sim(123, pooled(manager))._execute(
                circuit, 50, None
            )
            hist = np.zeros(4, dtype=np.int64)
            for row in bits:
                hist[2 * row[0] + row[1]] += 1
            runs.append((hist, records["z"].copy(), bits.copy()))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        np.testing.assert_array_equal(runs[0][1], runs[1][1])
        np.testing.assert_array_equal(runs[0][2], runs[1][2])
        serial = sv_sim(123, SerialExecutor(chunks=2)).sample_bitstrings(
            circuit, 50
        )
        np.testing.assert_array_equal(runs[0][2], serial)
        # The derivation itself is stable and chunk-count independent.
        base = _base_seed(123)
        assert _chunk_seeds_from_base(base, 3) == _chunk_seeds_from_base(base, 5)[:3]

    def test_chunked_runs_are_reproducible_too(self, manager):
        circuit = noisy_bell_circuit()
        a = sv_sim(9, pooled(manager, num_workers=6)).sample_bitstrings(
            circuit, 30
        )
        b = sv_sim(9, pooled(manager, num_workers=6)).sample_bitstrings(
            circuit, 30
        )
        np.testing.assert_array_equal(a, b)
        serial = sv_sim(9, SerialExecutor(chunks=6)).sample_bitstrings(
            circuit, 30
        )
        np.testing.assert_array_equal(a, serial)

    def test_near_clifford_stochastic_runs_are_reproducible(self, manager):
        circuit = t_bell_circuit()
        a = stabilizer_sim(3, pooled(manager)).run(circuit, 40)
        b = stabilizer_sim(3, pooled(manager)).run(circuit, 40)
        np.testing.assert_array_equal(
            a.measurements["z"], b.measurements["z"]
        )

    def test_different_seeds_differ(self):
        circuit = noisy_bell_circuit()
        a = sv_sim(0, ProcessPoolExecutor(num_workers=1)).sample_bitstrings(
            circuit, 40
        )
        b = sv_sim(1, ProcessPoolExecutor(num_workers=1)).sample_bitstrings(
            circuit, 40
        )
        assert not np.array_equal(a, b)
