"""Scheduling: cost model, task geometry, and parity contracts.

The scheduler's determinism contract is the load-bearing property: the
task set (point, chunk, size, seed recipe) must be a function of the
batch's static costs and the scheduling mode alone — never of
submission order or timing.  The golden table pins the exact geometry of
every mode; the parity classes pin the two bit-for-bit guarantees:

* a batch with **no oversized point** schedules exactly like FIFO, so
  adaptive output equals the plain serial ``run_batch`` on all five
  backends;
* a batch **with** split points is bit-for-bit identical to the same
  schedule replayed in-process (the "serial path" of the scheduler),
  again on all five backends.
"""

import numpy as np
import pytest

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.mps import MPSState
from repro.sampler import PoolManager, ProcessPoolExecutor, estimate_cost
from repro.sampler.executors import _merge_chunks, _task_args
from repro.sampler.schedule import (
    MIN_CHUNK_REPETITIONS,
    TRAJECTORY_COST_MULTIPLIER,
    BatchEntry,
    schedule,
)
from repro.states import (
    CliffordTableauSimulationState,
    DensityMatrixSimulationState,
    StabilizerChFormSimulationState,
    StateVectorSimulationState,
)


def pool_start_methods():
    import multiprocessing
    import os

    env = os.environ.get("BGLS_POOL_START_METHODS", "fork")
    requested = [m.strip() for m in env.split(",") if m.strip()]
    available = multiprocessing.get_all_start_methods()
    methods = [m for m in requested if m in available]
    return methods or [available[0]]


START_METHODS = pool_start_methods()

N = 3
QUBITS = cirq.LineQubit.range(N)


def clifford_circuit(depth):
    circuit = cirq.Circuit(cirq.H(QUBITS[0]))
    for _ in range(depth):
        circuit.append(cirq.CNOT(QUBITS[0], QUBITS[1]))
        circuit.append(cirq.S(QUBITS[2]))
        circuit.append(cirq.CNOT(QUBITS[1], QUBITS[2]))
    circuit.append(cirq.measure(*QUBITS, key="m"))
    return circuit


BACKENDS = [
    pytest.param(
        lambda: StateVectorSimulationState(QUBITS),
        born.compute_probability_state_vector,
        id="state_vector",
    ),
    pytest.param(
        lambda: DensityMatrixSimulationState(QUBITS),
        born.compute_probability_density_matrix,
        id="density_matrix",
    ),
    pytest.param(
        lambda: StabilizerChFormSimulationState(QUBITS),
        born.compute_probability_stabilizer_state,
        id="stabilizer_ch_form",
    ),
    pytest.param(
        lambda: CliffordTableauSimulationState(QUBITS),
        born.compute_probability_tableau,
        id="clifford_tableau",
    ),
    pytest.param(
        lambda: MPSState(QUBITS),
        born.compute_probability_mps,
        id="mps",
    ),
]


def make_sim(make_state, prob_fn, seed, executor=None):
    return bgls.Simulator(
        make_state(), bgls.act_on, prob_fn, seed=seed, executor=executor
    )


def assert_results_equal(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert set(ra.measurements) == set(rb.measurements)
        for key in ra.measurements:
            np.testing.assert_array_equal(
                ra.measurements[key], rb.measurements[key]
            )


def entries_from_costs(costs):
    return [BatchEntry(i, i, None, cost) for i, cost in enumerate(costs)]


def merge_by_point(tasks, parts, num_points):
    """Reassemble per-task ``parts`` into one result per point, merging
    each split point's chunks in chunk order (as the pooled drain does)."""
    by_point = {point: [] for point in range(num_points)}
    for task, part in zip(tasks, parts):
        by_point[task.point_index].append((task.chunk_index, part))
    return [_merge_chunks(point, by_point[point]) for point in range(num_points)]


def replay(sim, circuits, repetitions, seed, mode):
    """Run ``mode``'s schedule of ``circuits`` in-process, task by task."""
    from repro.sampler.service import _base_seed, _run_task

    table = [sim.compile(circuit) for circuit in circuits]
    entries = [
        BatchEntry(i, i, None, estimate_cost(table[i], repetitions))
        for i in range(len(table))
    ]
    tasks = schedule(entries, repetitions, 2, mode)
    base = _base_seed(seed)
    parts = [
        _run_task(sim, table, *_task_args(t, base, repetitions))
        for t in tasks
    ]
    return tasks, merge_by_point(tasks, parts, len(circuits))


class TestCostModel:
    def test_cost_scales_with_depth_and_repetitions(self):
        sim = make_sim(
            lambda: StateVectorSimulationState(QUBITS),
            born.compute_probability_state_vector,
            0,
        )
        shallow = sim.compile(clifford_circuit(1))
        deep = sim.compile(clifford_circuit(10))
        assert estimate_cost(deep, 10) > estimate_cost(shallow, 10)
        assert estimate_cost(shallow, 20) == 2 * estimate_cost(shallow, 10)

    def test_cost_is_positive_for_trivial_programs(self):
        sim = make_sim(
            lambda: StateVectorSimulationState(QUBITS),
            born.compute_probability_state_vector,
            0,
        )
        program = sim.compile(
            cirq.Circuit(cirq.measure(*QUBITS, key="m"))
        )
        assert estimate_cost(program, 1) >= 1

    def test_trajectory_entries_cost_the_multiplier(self):
        """A noisy (trajectory-mode) circuit costs TRAJECTORY_COST_MULTIPLIER
        times its unitary twin of identical structure: every repetition
        replays the whole gate loop instead of resampling one evolved
        state, and the scheduler must see that asymmetry to balance
        batches mixing the two."""
        from repro.sampler.schedule import TRAJECTORY_COST_MULTIPLIER

        sim = make_sim(
            lambda: StateVectorSimulationState(QUBITS),
            born.compute_probability_state_vector,
            0,
        )
        unitary = sim.compile(clifford_circuit(4))
        noisy_circuit = clifford_circuit(4)
        noisy = sim.compile(
            cirq.Circuit(
                list(noisy_circuit.all_operations())[:-1]
                + [cirq.depolarize(0.01)(QUBITS[0])]
                + [cirq.measure(*QUBITS, key="m")]
            )
        )
        assert not unitary.needs_trajectories
        assert noisy.needs_trajectories
        # Same structural count: the noise op adds one record, so compare
        # per-op costs instead of totals.
        unit_ops = unitary.shared_record_count + unitary.param_slot_count
        noisy_ops = noisy.shared_record_count + noisy.param_slot_count
        per_op_unitary = estimate_cost(unitary, 10) / unit_ops
        per_op_noisy = estimate_cost(noisy, 10) / noisy_ops
        assert per_op_noisy == TRAJECTORY_COST_MULTIPLIER * per_op_unitary


def _geometry(tasks):
    return [
        (t.point_index, t.chunk_index, t.num_chunks, t.repetitions)
        for t in tasks
    ]


#: name -> (entry costs, repetitions, num_workers, {mode: exact task list}).
#: Each task is ``(point, chunk, num_chunks, repetitions)`` in dispatch
#: order.  The table pins the scheduler's geometry bit for bit: seeds are a
#: function of (point, chunk, num_chunks) alone, so an unchanged table
#: means unchanged samples.
GOLDEN_GEOMETRY = {
    "equal_costs": (
        [4.0, 4.0, 4.0], 20, 2,
        {
            "fifo": [(0, 0, 1, 20), (1, 0, 1, 20), (2, 0, 1, 20)],
            "adaptive": [(0, 0, 1, 20), (1, 0, 1, 20), (2, 0, 1, 20)],
            "stealing": [
                (0, 0, 4, 5), (0, 1, 4, 5), (0, 2, 4, 5), (0, 3, 4, 5),
                (1, 0, 4, 5), (1, 1, 4, 5), (1, 2, 4, 5), (1, 3, 4, 5),
                (2, 0, 4, 5), (2, 1, 4, 5), (2, 2, 4, 5), (2, 3, 4, 5),
            ],
        },
    ),
    "one_oversized": (
        [100.0, 1.0, 1.0], 30, 2,
        {
            "fifo": [(0, 0, 1, 30), (1, 0, 1, 30), (2, 0, 1, 30)],
            "adaptive": [
                (0, 0, 7, 5), (0, 1, 7, 5), (0, 2, 7, 4), (0, 3, 7, 4),
                (0, 4, 7, 4), (0, 5, 7, 4), (0, 6, 7, 4),
                (1, 0, 1, 30), (2, 0, 1, 30),
            ],
            "stealing": [
                (0, 0, 7, 5), (0, 1, 7, 5), (0, 2, 7, 4), (0, 3, 7, 4),
                (0, 4, 7, 4), (0, 5, 7, 4), (0, 6, 7, 4),
                (1, 0, 4, 8), (1, 1, 4, 8), (2, 0, 4, 8), (2, 1, 4, 8),
                (1, 2, 4, 7), (1, 3, 4, 7), (2, 2, 4, 7), (2, 3, 4, 7),
            ],
        },
    ),
    "few_points_many_workers": (
        [10.0, 10.0], 24, 8,
        {
            "fifo": [(0, 0, 1, 24), (1, 0, 1, 24)],
            "adaptive": [
                (0, 0, 6, 4), (0, 1, 6, 4), (0, 2, 6, 4),
                (0, 3, 6, 4), (0, 4, 6, 4), (0, 5, 6, 4),
                (1, 0, 6, 4), (1, 1, 6, 4), (1, 2, 6, 4),
                (1, 3, 6, 4), (1, 4, 6, 4), (1, 5, 6, 4),
            ],
            "stealing": [
                (0, 0, 6, 4), (0, 1, 6, 4), (0, 2, 6, 4),
                (0, 3, 6, 4), (0, 4, 6, 4), (0, 5, 6, 4),
                (1, 0, 6, 4), (1, 1, 6, 4), (1, 2, 6, 4),
                (1, 3, 6, 4), (1, 4, 6, 4), (1, 5, 6, 4),
            ],
        },
    ),
    "reps_below_two_chunks": (
        [100.0, 1.0], 7, 2,
        {
            "fifo": [(0, 0, 1, 7), (1, 0, 1, 7)],
            "adaptive": [(0, 0, 1, 7), (1, 0, 1, 7)],
            "stealing": [(0, 0, 1, 7), (1, 0, 1, 7)],
        },
    ),
    "single_worker": (
        [100.0, 1.0], 64, 1,
        {
            "fifo": [(0, 0, 1, 64), (1, 0, 1, 64)],
            "adaptive": [(0, 0, 1, 64), (1, 0, 1, 64)],
            "stealing": [(0, 0, 1, 64), (1, 0, 1, 64)],
        },
    ),
    "trajectory_weighted": (
        [3.0, 3.0 * TRAJECTORY_COST_MULTIPLIER, 3.0], 16, 2,
        {
            "fifo": [(0, 0, 1, 16), (1, 0, 1, 16), (2, 0, 1, 16)],
            "adaptive": [
                (1, 0, 4, 4), (1, 1, 4, 4), (1, 2, 4, 4), (1, 3, 4, 4),
                (0, 0, 1, 16), (2, 0, 1, 16),
            ],
            "stealing": [
                (1, 0, 4, 4), (1, 1, 4, 4), (1, 2, 4, 4), (1, 3, 4, 4),
                (0, 0, 4, 4), (0, 1, 4, 4), (0, 2, 4, 4), (0, 3, 4, 4),
                (2, 0, 4, 4), (2, 1, 4, 4), (2, 2, 4, 4), (2, 3, 4, 4),
            ],
        },
    ),
    "mixed_ties": (
        [7.0, 2.0, 9.0, 9.0, 1.0], 24, 3,
        {
            "fifo": [
                (0, 0, 1, 24), (1, 0, 1, 24), (2, 0, 1, 24),
                (3, 0, 1, 24), (4, 0, 1, 24),
            ],
            "adaptive": [
                (2, 0, 1, 24), (3, 0, 1, 24), (0, 0, 1, 24),
                (1, 0, 1, 24), (4, 0, 1, 24),
            ],
            "stealing": [
                (2, 0, 4, 6), (2, 1, 4, 6), (2, 2, 4, 6), (2, 3, 4, 6),
                (3, 0, 4, 6), (3, 1, 4, 6), (3, 2, 4, 6), (3, 3, 4, 6),
                (0, 0, 4, 6), (0, 1, 4, 6), (0, 2, 4, 6), (0, 3, 4, 6),
                (1, 0, 4, 6), (1, 1, 4, 6), (1, 2, 4, 6), (1, 3, 4, 6),
                (4, 0, 4, 6), (4, 1, 4, 6), (4, 2, 4, 6), (4, 3, 4, 6),
            ],
        },
    ),
}


@pytest.mark.parametrize("mode", ["fifo", "adaptive", "stealing"])
@pytest.mark.parametrize("case", sorted(GOLDEN_GEOMETRY))
def test_golden_geometry(case, mode):
    """Exact task list and order for every mode on fixed batches."""
    costs, repetitions, workers, expected = GOLDEN_GEOMETRY[case]
    tasks = schedule(entries_from_costs(costs), repetitions, workers, mode)
    assert _geometry(tasks) == expected[mode]


class TestFifoScheduler:
    def test_one_task_per_point_in_order(self):
        tasks = schedule(
            entries_from_costs([5.0, 1.0, 3.0]), repetitions=10, num_workers=4
        )
        assert [(t.point_index, t.chunk_index, t.num_chunks) for t in tasks] == [
            (0, 0, 1),
            (1, 0, 1),
            (2, 0, 1),
        ]
        assert all(t.repetitions == 10 for t in tasks)


class TestAdaptiveScheduler:
    def test_equal_costs_schedule_like_fifo(self):
        """No oversized point: identical geometry and order to FIFO —
        the precondition for serial bit-for-bit parity."""
        tasks = schedule(entries_from_costs([4.0] * 6), 20, 2, "adaptive")
        assert [(t.point_index, t.chunk_index) for t in tasks] == [
            (i, 0) for i in range(6)
        ]
        assert all(t.num_chunks == 1 for t in tasks)

    def test_largest_first_ordering(self):
        tasks = schedule(entries_from_costs([1.0, 8.0, 3.0]), 4, 2, "adaptive")
        assert [t.point_index for t in tasks] == [1, 2, 0]

    def test_oversized_point_splits_into_repetition_chunks(self):
        tasks = schedule(
            entries_from_costs([100.0, 1.0, 1.0]), 32, 2, "adaptive"
        )
        split = [t for t in tasks if t.point_index == 0]
        assert len(split) > 1
        assert all(t.num_chunks == len(split) for t in split)
        assert sorted(t.chunk_index for t in split) == list(range(len(split)))
        assert sum(t.repetitions for t in split) == 32
        assert all(t.repetitions >= MIN_CHUNK_REPETITIONS for t in split)
        # Small points stay whole with the serial seed recipe.
        assert all(
            t.num_chunks == 1 for t in tasks if t.point_index != 0
        )

    def test_few_points_many_workers_splits_for_utilization(self):
        """A 2-point sweep on a 8-worker pool splits both points."""
        tasks = schedule(entries_from_costs([10.0, 10.0]), 64, 8, "adaptive")
        assert len(tasks) > 2
        assert all(t.num_chunks > 1 for t in tasks)

    def test_schedule_is_deterministic(self):
        costs = [7.0, 2.0, 9.0, 9.0, 1.0]
        a = schedule(entries_from_costs(costs), 24, 3, "adaptive")
        b = schedule(entries_from_costs(costs), 24, 3, "adaptive")
        assert [
            (t.point_index, t.chunk_index, t.num_chunks, t.repetitions)
            for t in a
        ] == [
            (t.point_index, t.chunk_index, t.num_chunks, t.repetitions)
            for t in b
        ]

    def test_single_worker_never_splits(self):
        tasks = schedule(entries_from_costs([100.0, 1.0]), 64, 1, "adaptive")
        assert all(t.num_chunks == 1 for t in tasks)

    def test_merge_reassembles_chunks_in_chunk_order(self):
        """Out-of-order completion cannot change the merged output."""
        tasks = schedule(entries_from_costs([50.0, 1.0]), 8, 2, "adaptive")
        assert tasks[0].num_chunks > 1

        def fake_part(task):
            rows = np.full(
                (task.repetitions, 1),
                task.point_index * 100 + task.chunk_index,
                dtype=np.int64,
            )
            return {"m": rows}, rows

        order = tasks[::-1]
        merged = merge_by_point(order, [fake_part(t) for t in order], 2)
        assert len(merged) == 2
        chunk_ids = merged[0][1][:, 0]
        # Chunk labels appear in nondecreasing chunk order.
        assert list(chunk_ids) == sorted(chunk_ids)

    def test_validation(self):
        """An unknown mode names the allowed values, at schedule time and
        at executor construction."""
        allowed = "'fifo', 'adaptive', 'stealing'"
        with pytest.raises(ValueError, match=allowed):
            schedule(entries_from_costs([1.0]), 8, 2, "lpt")
        with pytest.raises(ValueError, match=allowed):
            ProcessPoolExecutor(num_workers=2, scheduler="Adaptive")


@pytest.fixture
def manager():
    mgr = PoolManager()
    yield mgr
    mgr.shutdown()


class TestAdaptiveParity:
    """The scheduler's bit-for-bit contracts on every backend."""

    @pytest.mark.parametrize("make_state, prob_fn", BACKENDS)
    def test_unsplit_adaptive_equals_serial_batch(
        self, manager, make_state, prob_fn
    ):
        """Equal-cost batches never split, so adaptive output == the
        plain serial run_batch, bit for bit."""
        circuits = [clifford_circuit(2) for _ in range(4)]
        serial = make_sim(make_state, prob_fn, seed=13).run_batch(
            circuits, repetitions=12
        )
        adaptive = make_sim(
            make_state,
            prob_fn,
            seed=13,
            executor=ProcessPoolExecutor(
                num_workers=2,
                start_method=START_METHODS[0],
                pool_manager=manager,
                scheduler="adaptive",
            ),
        ).run_batch(circuits, repetitions=12)
        assert_results_equal(serial, adaptive)

    @pytest.mark.parametrize("make_state, prob_fn", BACKENDS)
    def test_split_schedule_matches_in_process_replay(
        self, manager, make_state, prob_fn
    ):
        """A mixed-depth batch with an oversized (split) point is
        bit-for-bit identical to the same schedule replayed in-process —
        the scheduler's serial path."""
        circuits = [clifford_circuit(d) for d in (1, 1, 12, 1)]
        sim = make_sim(
            make_state,
            prob_fn,
            seed=17,
            executor=ProcessPoolExecutor(
                num_workers=2,
                start_method=START_METHODS[0],
                pool_manager=manager,
                scheduler="adaptive",
            ),
        )
        pooled = sim.run_batch(circuits, repetitions=24)

        # Replay the identical schedule in the parent process.
        tasks, replayed = replay(
            make_sim(make_state, prob_fn, seed=17), circuits, 24, 17,
            "adaptive",
        )
        assert any(t.num_chunks > 1 for t in tasks)
        for (records, _), result in zip(replayed, pooled):
            assert set(records) == set(result.measurements)
            for key in records:
                np.testing.assert_array_equal(
                    records[key], result.measurements[key]
                )
