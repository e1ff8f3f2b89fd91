"""Shared-memory result planes: parity, lifecycle, and zero-copy suite.

The contracts pinned here (this PR's acceptance criteria):

* **Transport parity** — shm-pooled ``run_sweep``/``run_batch`` are
  bit-for-bit identical to the serial executor-free path on all five
  shipped backends, under adaptive split schedules, and identical to
  the pickled-result fallback transport.
* **Streaming parity** — ``run_sweep_iter``/``run_batch_iter`` yield
  exactly the list APIs' per-point Results, in order.
* **Segment lifecycle** — no shared-memory segment survives a completed
  run, a poisoned pool, or an abandoned (mid-iteration ``close()``)
  streaming iterator; the parent allocates and the parent unlinks.  A
  failed allocation (``ENOSPC``) raises ``ResultTransportError``, keeps
  the warm pool, and a ``"pickle"`` retry on that pool is exact.
* **Zero-copy Results** — plane-backed ``Result``s adopt the read-only
  views without copying, every helper works on them, and the views
  outlive the segment's unlink.

The pooled start method comes from ``BGLS_POOL_START_METHODS``
(comma-separated; default ``fork``) so CI can run the whole suite under
``forkserver`` and ``spawn`` without duplicating tests.
"""

import errno
import gc
import multiprocessing
import os

import numpy as np
import pytest

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.mps import MPSState
from repro.sampler import (
    PoolManager,
    ProcessPoolExecutor,
    ResultTransportError,
    SerialExecutor,
)
from repro.sampler import result_planes
from repro.sampler.result_planes import (
    PointPlanes,
    live_segment_names,
    plane_layout,
    shm_available,
    write_chunk_to_slot,
)
from repro.states import (
    CliffordTableauSimulationState,
    DensityMatrixSimulationState,
    StabilizerChFormSimulationState,
    StateVectorSimulationState,
)

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="multiprocessing.shared_memory unavailable"
)


def pool_start_methods():
    env = os.environ.get("BGLS_POOL_START_METHODS", "fork")
    requested = [m.strip() for m in env.split(",") if m.strip()]
    available = multiprocessing.get_all_start_methods()
    methods = [m for m in requested if m in available]
    return methods or [available[0]]


START_METHODS = pool_start_methods()

N = 3
QUBITS = cirq.LineQubit.range(N)
THETA = cirq.Symbol("theta")


def parameterized_circuit():
    return cirq.Circuit(
        cirq.H(QUBITS[0]),
        cirq.CNOT(QUBITS[0], QUBITS[1]),
        cirq.Rx(THETA).on(QUBITS[2]),
        cirq.measure(*QUBITS, key="m"),
    )


def clifford_circuit():
    return cirq.Circuit(
        cirq.H(QUBITS[0]),
        cirq.CNOT(QUBITS[0], QUBITS[1]),
        cirq.CNOT(QUBITS[1], QUBITS[2]),
        cirq.S(QUBITS[2]),
        cirq.measure(*QUBITS, key="m"),
    )


PARAM_POINTS = [{"theta": 0.3 * i} for i in range(4)]
CLIFFORD_POINTS = [None] * 4

BACKENDS = [
    pytest.param(
        lambda: StateVectorSimulationState(QUBITS),
        born.compute_probability_state_vector,
        parameterized_circuit,
        PARAM_POINTS,
        id="state_vector",
    ),
    pytest.param(
        lambda: DensityMatrixSimulationState(QUBITS),
        born.compute_probability_density_matrix,
        parameterized_circuit,
        PARAM_POINTS,
        id="density_matrix",
    ),
    pytest.param(
        lambda: StabilizerChFormSimulationState(QUBITS),
        born.compute_probability_stabilizer_state,
        clifford_circuit,
        CLIFFORD_POINTS,
        id="stabilizer_ch_form",
    ),
    pytest.param(
        lambda: CliffordTableauSimulationState(QUBITS),
        born.compute_probability_tableau,
        clifford_circuit,
        CLIFFORD_POINTS,
        id="clifford_tableau",
    ),
    pytest.param(
        lambda: MPSState(QUBITS),
        born.compute_probability_mps,
        parameterized_circuit,
        PARAM_POINTS,
        id="mps",
    ),
]


def make_sim(make_state, prob_fn, seed, executor=None):
    return bgls.Simulator(
        make_state(), bgls.act_on, prob_fn, seed=seed, executor=executor
    )


#: In-process references a pooled sweep must equal, by how the points
#: are scoped: ``"auto"`` lets the simulator pick its executor-free
#: default; ``"points"`` runs the point-task list under an explicit
#: chunked SerialExecutor, whose sweeps still run one stream per point.
SERIAL_REFERENCES = {"auto": None, "points": SerialExecutor(chunks=2)}


def sv_sim(seed, executor=None):
    return make_sim(
        lambda: StateVectorSimulationState(QUBITS),
        born.compute_probability_state_vector,
        seed,
        executor,
    )


def assert_sweeps_equal(a, b):
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert left == right


@pytest.fixture
def manager():
    with PoolManager() as mgr:
        yield mgr


def pool_exec(manager, transport="shm", **kw):
    kw.setdefault("num_workers", 2)
    kw.setdefault("start_method", START_METHODS[0])
    return ProcessPoolExecutor(
        pool_manager=manager, result_transport=transport, **kw
    )


# ----------------------------------------------------------------------
# plane layout and in-process round trip (no pool involved)
# ----------------------------------------------------------------------

class _FakePlan:
    def __init__(self, key_axes, num_qubits):
        self.key_axes = key_axes
        self.num_qubits = num_qubits


class TestPlaneLayout:
    def test_layout_is_bits_then_keys_in_order(self):
        key_axes = {"b": (0, 2), "a": (1,)}
        specs, nbytes = plane_layout(key_axes, 3, 10)
        assert [s[0] for s in specs] == [None, "b", "a"]
        assert specs[0][1:] == (0, (10, 3))
        assert specs[1][1:] == (30, (10, 2))
        assert specs[2][1:] == (50, (10, 1))
        assert nbytes == 60

    def test_round_trip_through_slots(self):
        plan = _FakePlan({"m": (0, 1)}, 2)
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=(7, 2)).astype(np.int8)
        planes = PointPlanes(plan.key_axes, plan.num_qubits, 7)
        assert planes.name in live_segment_names()
        # Two chunks with different row bands, written out of order.
        for offset, size in ((4, 3), (0, 4)):
            rows = slice(offset, offset + size)
            write_chunk_to_slot(
                plan,
                planes.slot(offset),
                {"m": bits[rows]},
                bits[rows],
            )
        records, all_bits = planes.views()
        assert planes.name not in live_segment_names()
        np.testing.assert_array_equal(all_bits, bits)
        np.testing.assert_array_equal(records["m"], bits)
        assert not all_bits.flags.writeable
        assert not records["m"].flags.writeable

    def test_release_is_idempotent_and_views_safe_after(self):
        planes = PointPlanes({"m": (0,)}, 1, 3)
        planes.release()
        assert live_segment_names() == []
        planes.release()  # no-op

    def test_views_then_release_is_noop(self):
        planes = PointPlanes({"m": (0,)}, 1, 3)
        records, bits = planes.views()
        planes.release()
        assert bits.shape == (3, 1)
        assert int(bits.sum()) == 0  # still readable


# ----------------------------------------------------------------------
# bit-for-bit parity: shm pooled vs serial vs pickled fallback
# ----------------------------------------------------------------------

class TestTransportParity:
    @pytest.mark.parametrize(
        "make_state,prob_fn,circuit_factory,points", BACKENDS
    )
    @pytest.mark.parametrize("scope", ["auto", "points"])
    def test_sweep_matches_serial_on_all_backends(
        self, manager, make_state, prob_fn, circuit_factory, points, scope
    ):
        circuit = circuit_factory()
        serial = make_sim(
            make_state, prob_fn, seed=11, executor=SERIAL_REFERENCES[scope]
        ).run_sweep(circuit, points, repetitions=32)
        pooled = make_sim(
            make_state, prob_fn, seed=11, executor=pool_exec(manager)
        ).run_sweep(circuit, points, repetitions=32)
        assert_sweeps_equal(serial, pooled)
        assert live_segment_names() == []

    @pytest.mark.parametrize(
        "make_state,prob_fn,circuit_factory,points", BACKENDS
    )
    def test_batch_matches_serial_on_all_backends(
        self, manager, make_state, prob_fn, circuit_factory, points
    ):
        circuits = [circuit_factory(), clifford_circuit()]
        resolvers = [points[1], None]
        serial = make_sim(make_state, prob_fn, seed=5).run_batch(
            circuits, resolvers, repetitions=24
        )
        pooled = make_sim(
            make_state, prob_fn, seed=5, executor=pool_exec(manager)
        ).run_batch(circuits, resolvers, repetitions=24)
        assert_sweeps_equal(serial, pooled)
        assert live_segment_names() == []

    def test_shm_equals_pickle_transport(self, manager):
        circuit = parameterized_circuit()
        shm = sv_sim(3, pool_exec(manager, "shm")).run_sweep(
            circuit, PARAM_POINTS, repetitions=40
        )
        pickled = sv_sim(3, pool_exec(manager, "pickle")).run_sweep(
            circuit, PARAM_POINTS, repetitions=40
        )
        assert_sweeps_equal(shm, pickled)

    def test_adaptive_split_schedule_parity(self, manager):
        # Adaptive mode through both transports must match the
        # in-process run of the same schedule and the pickled transport
        # bit-for-bit.
        circuit = parameterized_circuit()

        def run(executor):
            return sv_sim(21, executor).run_sweep(
                circuit, PARAM_POINTS[:2], repetitions=64
            )

        shm = run(
            pool_exec(manager, "shm", scheduler="adaptive")
        )
        pickled = run(
            pool_exec(manager, "pickle", scheduler="adaptive")
        )
        in_process = run(
            ProcessPoolExecutor(num_workers=1, scheduler="adaptive")
        )
        assert_sweeps_equal(shm, pickled)
        assert_sweeps_equal(shm, in_process)
        assert live_segment_names() == []

    def test_single_worker_fallback_matches_pool(self, manager):
        circuit = parameterized_circuit()
        fallback = sv_sim(
            2, ProcessPoolExecutor(num_workers=1, result_transport="shm")
        ).run_sweep(circuit, PARAM_POINTS, repetitions=16)
        pooled = sv_sim(2, pool_exec(manager, "shm")).run_sweep(
            circuit, PARAM_POINTS, repetitions=16
        )
        assert_sweeps_equal(fallback, pooled)

    def test_transport_validation(self):
        with pytest.raises(ValueError, match="result_transport"):
            ProcessPoolExecutor(num_workers=2, result_transport="carrier-pigeon")
        assert (
            ProcessPoolExecutor(
                num_workers=2, result_transport="pickle"
            ).result_transport
            == "pickle"
        )
        assert ProcessPoolExecutor(num_workers=2).result_transport in (
            "shm",
            "pickle",
        )


# ----------------------------------------------------------------------
# streaming iterators
# ----------------------------------------------------------------------

class TestStreaming:
    def test_run_sweep_iter_matches_list_api(self, manager):
        circuit = parameterized_circuit()
        simulator = sv_sim(13, pool_exec(manager))
        eager = simulator.run_sweep(circuit, PARAM_POINTS, repetitions=32)
        streamed = list(
            sv_sim(13, pool_exec(manager)).run_sweep_iter(
                circuit, PARAM_POINTS, repetitions=32
            )
        )
        assert_sweeps_equal(eager, streamed)

    def test_run_batch_iter_matches_list_api(self, manager):
        circuits = [parameterized_circuit(), clifford_circuit()]
        resolvers = [PARAM_POINTS[2], None]
        eager = sv_sim(17, pool_exec(manager)).run_batch(
            circuits, resolvers, repetitions=24
        )
        streamed = list(
            sv_sim(17, pool_exec(manager)).run_batch_iter(
                circuits, resolvers, repetitions=24
            )
        )
        assert_sweeps_equal(eager, streamed)

    def test_serial_iter_streams_without_executor(self):
        circuit = parameterized_circuit()
        eager = sv_sim(7).run_sweep(circuit, PARAM_POINTS, repetitions=16)
        it = sv_sim(7).run_sweep_iter(circuit, PARAM_POINTS, repetitions=16)
        assert_sweeps_equal(eager, list(it))

    def test_iter_validates_eagerly(self, manager):
        simulator = sv_sim(1, pool_exec(manager))
        with pytest.raises(ValueError, match="resolvers"):
            simulator.run_batch_iter(
                [parameterized_circuit()], [None, None], 8
            )

    def test_midstream_close_releases_segments(self, manager):
        simulator = sv_sim(23, pool_exec(manager))
        iterator = simulator.run_sweep_iter(
            parameterized_circuit(), PARAM_POINTS, repetitions=32
        )
        next(iterator)
        iterator.close()
        assert live_segment_names() == []


# ----------------------------------------------------------------------
# lifecycle: segments never leak
# ----------------------------------------------------------------------

class TestSegmentLifecycle:
    def test_poisoned_pool_releases_segments(self, manager):
        simulator = sv_sim(4, pool_exec(manager))
        with pytest.raises(Exception):
            simulator.run_sweep(
                parameterized_circuit(), [{"wrong": 1.0}] * 3, repetitions=8
            )
        assert manager._pool is None  # fail-safe shutdown happened
        assert live_segment_names() == []

    def test_manager_shutdown_is_segment_backstop(self, manager):
        from repro.sampler.service import _WorkerPayload

        plane = PointPlanes({"m": (0, 1, 2)}, N, 8)
        run = manager.submit(
            _WorkerPayload(sv_sim(1)),
            1,
            START_METHODS[0],
            [],
            planes=(plane,),
        )
        manager.close(run)
        assert plane.name in live_segment_names()
        manager.shutdown()
        assert live_segment_names() == []

    def test_allocation_failure_keeps_the_warm_pool(self, manager, monkeypatch):
        """ENOSPC on the second plane: a typed error naming the pickle
        transport, no live segment, the warm pool neither shut down nor
        re-initialized, and a pickle retry on it equals the serial path."""
        circuit = parameterized_circuit()
        expected = sv_sim(6).run_sweep(circuit, PARAM_POINTS, 16)
        simulator = sv_sim(6, pool_exec(manager))
        assert_sweeps_equal(
            simulator.run_sweep(circuit, PARAM_POINTS, 16), expected
        )
        inits = manager.stats["inits"]
        real = result_planes._shared_memory.SharedMemory
        creations = []

        def no_space_on_second(*args, **kwargs):
            if kwargs.get("create"):
                creations.append(kwargs)
                if len(creations) == 2:
                    raise OSError(errno.ENOSPC, "No space left on device")
            return real(*args, **kwargs)

        monkeypatch.setattr(
            result_planes._shared_memory, "SharedMemory", no_space_on_second
        )
        with pytest.raises(ResultTransportError, match='"pickle"') as info:
            simulator.run_sweep(circuit, PARAM_POINTS, 16)
        monkeypatch.undo()
        assert info.value.__cause__.errno == errno.ENOSPC
        assert len(creations) == 2
        assert live_segment_names() == []
        assert manager._pool is not None
        assert manager.stats["inits"] == inits
        simulator.executor = pool_exec(manager, transport="pickle")
        assert_sweeps_equal(
            simulator.run_sweep(circuit, PARAM_POINTS, 16), expected
        )
        assert manager.stats["inits"] == inits

    def test_completed_runs_leave_no_segments(self, manager):
        simulator = sv_sim(8, pool_exec(manager))
        simulator.run(parameterized_circuit(), 32, PARAM_POINTS[1])
        simulator.run_sweep(parameterized_circuit(), PARAM_POINTS, 16)
        assert live_segment_names() == []


# ----------------------------------------------------------------------
# zero-copy view-backed Results
# ----------------------------------------------------------------------

class TestViewBackedResults:
    def _view_result(self, manager, repetitions=32):
        simulator = sv_sim(31, pool_exec(manager))
        return simulator.run_sweep(
            parameterized_circuit(), PARAM_POINTS, repetitions
        )

    def test_result_adopts_views_without_copy(self):
        planes = PointPlanes({"m": (0, 1, 2)}, N, 5)
        records, _ = planes.views()
        result = bgls.Result(records)
        # np.asarray on a matching dtype is the identity: the Result
        # holds the very view object, flags and buffer included.
        assert result.measurements["m"] is records["m"]
        assert not result.measurements["m"].flags.writeable

    def test_pooled_results_are_readonly_views(self, manager):
        for result in self._view_result(manager):
            array = result.measurements["m"]
            assert not array.flags.writeable
            assert array.base is not None  # a view, not an owned copy
            with pytest.raises(ValueError):
                array[0, 0] = 1

    def test_helpers_work_on_readonly_views(self, manager):
        results = self._view_result(manager)
        owned = [
            bgls.Result(
                {k: np.array(v) for k, v in r.measurements.items()}
            )
            for r in results
        ]
        for view_backed, copy_backed in zip(results, owned):
            assert view_backed.histogram("m") == copy_backed.histogram("m")
            assert view_backed.probabilities("m") == copy_backed.probabilities("m")
        merged_views = results[0].merged_with(results[1])
        merged_owned = owned[0].merged_with(owned[1])
        assert merged_views == merged_owned
        assert merged_views.repetitions == 2 * results[0].repetitions

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs Linux /proc/self/fd"
    )
    def test_kept_results_hold_one_descriptor_each(self, manager):
        """A kept shm-backed point result holds one open file (its
        mapping's), not two: the segment's own descriptor is closed as
        soon as the segment is created."""
        simulator = sv_sim(5, pool_exec(manager))
        circuit = parameterized_circuit()
        simulator.run_batch([circuit] * 2, params=PARAM_POINTS[:2], repetitions=4)
        gc.collect()
        before = len(os.listdir("/proc/self/fd"))
        points = [{"theta": 0.01 * i} for i in range(100)]
        kept = simulator.run_batch(
            [circuit] * len(points), params=points, repetitions=4
        )
        opened = len(os.listdir("/proc/self/fd")) - before
        assert len(kept) == len(points)
        assert manager.stats["inits"] == 1
        assert opened <= len(points), f"{opened} new fds for {len(points)} results"

    def test_views_survive_unlink_and_pool_shutdown(self, manager):
        results = self._view_result(manager)
        manager.shutdown()
        gc.collect()
        # Segments are unlinked (nothing live) yet every view still reads.
        assert live_segment_names() == []
        for result in results:
            assert result.measurements["m"].sum() >= 0
            assert result.repetitions == 32
