"""Error-path contract matrix for the public run APIs.

The service tier (PR 9) feeds user input straight into ``Simulator`` and
the executors, so the error surface is part of the API contract.  This
suite pins the *documented* exception types — not incidental internals —
across the five shipped backends and both executors:

* invalid seed — a negative integer seed raises ``ValueError`` naming
  ``seed`` at the ``Simulator`` boundary (regression: it used to crash
  deep inside NumPy's ``SeedSequence`` on every execution path);
* empty sweep — ``run_sweep`` / ``run_sweep_iter`` /
  ``sample_bitstrings_sweep`` over ``[]`` return no points without
  compiling the (possibly unresolvable) circuit, matching
  ``run_batch([])`` (regression: the eager compile crashed on gates that
  cannot build a matrix while parameterized);
* bare states — compiling against a raw engine state with no qubit
  register raises a ``TypeError`` naming the ``*SimulationState`` fix
  (regression: an opaque ``AttributeError`` escaped from the Program
  cache key);
* repetitions/chunk bounds — ``repetitions < 1`` or a non-integer
  count (a float or a bool) raises ``ValueError`` on ``run`` /
  ``run_sweep`` / ``run_batch``, on ``SamplingService.submit`` and on
  both executors' ``execute``; the chunk-geometry helper
  ``_chunk_sizes`` handles the ``repetitions == 0`` corner and rejects
  bad chunk counts (property tested below with hypothesis);
* pool size — ``num_workers < 1`` or a non-integer raises
  ``ValueError`` naming ``num_workers`` from both
  ``ProcessPoolExecutor`` and ``SamplingService`` (regression: 0
  silently meant ``os.cpu_count()``, negatives silently meant 1, 2.5
  meant 2 and ``True`` meant 1); ``None`` means ``os.cpu_count()``;
* near-Clifford apply_ops off the CH form — ``act_on_near_clifford`` and
  its noisy variant raise ``ValueError`` naming the state type and
  ``StabilizerChFormSimulationState`` (regression: an ``AttributeError``
  on the state vector and MPS, and on the tableau at the first Rz).  The
  tableau still runs Clifford-only circuits under them.
"""

import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.mps import MPSState
from repro.sampler import (
    PoolManager,
    ProcessPoolExecutor,
    SamplingService,
    SerialExecutor,
    act_on_near_clifford,
    act_on_near_clifford_with_pauli_noise,
)
from repro.sampler.service import _base_seed, _chunk_sizes
from repro.states import (
    CliffordTableauSimulationState,
    DensityMatrixSimulationState,
    StabilizerChFormSimulationState,
    StateVectorSimulationState,
)
from repro.states.chform import StabilizerChForm
from repro.states.tableau import CliffordTableau

N = 3
QUBITS = cirq.LineQubit.range(N)
THETA = cirq.Symbol("theta")


def pooled_start_method():
    env = os.environ.get("BGLS_POOL_START_METHODS", "fork")
    requested = [m.strip() for m in env.split(",") if m.strip()]
    available = multiprocessing.get_all_start_methods()
    methods = [m for m in requested if m in available]
    return (methods or [available[0]])[0]


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
        cirq.measure(*QUBITS, key="m"),
    )


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

# Both executor families.  The error contracts fire before any pool is
# built, so the pooled executor stays cheap here (workers spawn lazily).
EXECUTORS = [
    pytest.param(lambda: None, id="bare"),
    pytest.param(lambda: SerialExecutor(chunks=2), id="serial"),
    pytest.param(
        lambda: ProcessPoolExecutor(
            num_workers=2,
            start_method=pooled_start_method(),
            pool_manager=PoolManager(),
        ),
        id="pooled",
    ),
]


def make_sim(make_state, prob_fn, seed=7, executor=None):
    return bgls.Simulator(
        make_state(), bgls.act_on, prob_fn, seed=seed, executor=executor
    )


# ----------------------------------------------------------------------
# invalid seed
# ----------------------------------------------------------------------

class TestInvalidSeed:
    @pytest.mark.parametrize("make_state,prob_fn", BACKENDS)
    @pytest.mark.parametrize("seed", [-1, -3, np.int64(-5)])
    def test_negative_seed_raises_valueerror_naming_seed(
        self, make_state, prob_fn, seed
    ):
        with pytest.raises(ValueError, match="seed"):
            make_sim(make_state, prob_fn, seed=seed)

    @pytest.mark.parametrize("make_state,prob_fn", BACKENDS)
    def test_valid_seed_forms_accepted(self, make_state, prob_fn):
        for seed in (0, 3, np.int64(4), None, np.random.default_rng(1)):
            make_sim(make_state, prob_fn, seed=seed)

    def test_base_seed_backstop(self):
        # The executor-layer seed collapse rejects negatives too: a
        # negative base would otherwise surface as an opaque NumPy error
        # from SeedSequence inside a worker.
        with pytest.raises(ValueError, match="seed"):
            _base_seed(-3)
        assert _base_seed(5) == 5
        assert _base_seed(None) >= 0

    @pytest.mark.parametrize("make_executor", EXECUTORS)
    def test_all_paths_guarded_by_construction(self, make_executor):
        # Regression for the original report: Simulator(..., seed=-3)
        # crashed serial, chunked, sweep, and pooled paths alike.  The
        # boundary check means no path can even be reached.
        with pytest.raises(ValueError, match="seed"):
            bgls.Simulator(
                StateVectorSimulationState(QUBITS),
                bgls.act_on,
                born.compute_probability_state_vector,
                seed=-3,
                executor=make_executor(),
            )


# ----------------------------------------------------------------------
# empty sweep
# ----------------------------------------------------------------------

class _SymbolicOnlyGate(cirq.Gate):
    """A third-party-style gate that cannot build a matrix while symbolic.

    ``_is_parameterized_`` stays at the base default (False), so the
    compiler treats it as fixed and builds its record eagerly — exactly
    the shape of gate that made pre-fix empty sweeps crash inside
    ``compile`` instead of returning ``[]``.
    """

    def __init__(self, exponent):
        self.exponent = exponent

    def num_qubits(self):
        return 1

    def _unitary_(self):
        phase = np.exp(1j * np.pi * self.exponent)  # TypeError on Symbol
        return np.array([[1, 0], [0, phase]], dtype=np.complex128)


class TestEmptySweep:
    @pytest.mark.parametrize("make_state,prob_fn", BACKENDS)
    @pytest.mark.parametrize("make_executor", EXECUTORS)
    def test_empty_sweep_returns_no_points(
        self, make_state, prob_fn, make_executor
    ):
        sim = make_sim(make_state, prob_fn, executor=make_executor())
        circuit = parameterized_circuit()
        assert sim.run_sweep(circuit, [], repetitions=4) == []
        assert list(sim.run_sweep_iter(circuit, [], repetitions=4)) == []
        assert sim.sample_bitstrings_sweep(circuit, [], repetitions=4) == []

    def test_empty_sweep_skips_compilation(self):
        # The short-circuit must come *before* compile: this circuit
        # cannot compile at all while its parameter is unresolved.
        circuit = cirq.Circuit(
            _SymbolicOnlyGate(THETA).on(QUBITS[0]),
            cirq.measure(*QUBITS, key="m"),
        )
        sim = make_sim(
            lambda: StateVectorSimulationState(QUBITS),
            born.compute_probability_state_vector,
        )
        with pytest.raises(TypeError):
            sim.compile(circuit)
        assert sim.run_sweep(circuit, [], repetitions=4) == []

    def test_empty_batch_still_empty(self):
        sim = make_sim(
            lambda: StateVectorSimulationState(QUBITS),
            born.compute_probability_state_vector,
        )
        assert sim.run_batch([], repetitions=4) == []


# ----------------------------------------------------------------------
# bare states on the Program path
# ----------------------------------------------------------------------

BARE_STATES = [
    pytest.param(
        lambda: StabilizerChForm(num_qubits=N),
        born.compute_probability_stabilizer_state,
        id="stabilizer_ch_form",
    ),
    pytest.param(
        lambda: CliffordTableau(num_qubits=N),
        born.compute_probability_tableau,
        id="clifford_tableau",
    ),
]


class TestBareStates:
    @pytest.mark.parametrize("make_state,prob_fn", BARE_STATES)
    def test_every_program_api_raises_typed_error(self, make_state, prob_fn):
        sim = bgls.Simulator(make_state(), bgls.act_on, prob_fn, seed=1)
        circuit = clifford_circuit()
        for call in (
            lambda: sim.compile(circuit),
            lambda: sim.run(circuit, repetitions=2),
            lambda: sim.run_sweep(circuit, [None], repetitions=2),
            lambda: sim.run_batch([circuit], repetitions=2),
        ):
            with pytest.raises(TypeError, match="SimulationState"):
                call()

    def test_error_names_state_type_and_fix(self):
        sim = bgls.Simulator(
            StabilizerChForm(num_qubits=N),
            bgls.act_on,
            born.compute_probability_stabilizer_state,
            seed=1,
        )
        with pytest.raises(TypeError, match="StabilizerChForm"):
            sim.compile(clifford_circuit())

    def test_wrapped_state_still_compiles(self):
        sim = bgls.Simulator(
            StabilizerChFormSimulationState(QUBITS),
            bgls.act_on,
            born.compute_probability_stabilizer_state,
            seed=1,
        )
        assert sim.run(clifford_circuit(), repetitions=2) is not None


# ----------------------------------------------------------------------
# near-Clifford apply_ops off the CH form
# ----------------------------------------------------------------------

NEAR_CLIFFORD_OPS = [
    pytest.param(act_on_near_clifford, id="near_clifford"),
    pytest.param(act_on_near_clifford_with_pauli_noise, id="noisy_near_clifford"),
]


def t_circuit():
    return cirq.Circuit(
        cirq.H(QUBITS[0]),
        cirq.T(QUBITS[0]),
        cirq.CNOT(QUBITS[0], QUBITS[1]),
        cirq.measure(*QUBITS, key="m"),
    )


class TestNearCliffordBackends:
    @pytest.mark.parametrize("apply_op", NEAR_CLIFFORD_OPS)
    @pytest.mark.parametrize(
        "make_state,prob_fn,circuit",
        [
            pytest.param(
                lambda: StateVectorSimulationState(QUBITS),
                born.compute_probability_state_vector,
                clifford_circuit,
                id="state_vector",
            ),
            pytest.param(
                lambda: MPSState(QUBITS),
                born.compute_probability_mps,
                clifford_circuit,
                id="mps",
            ),
            pytest.param(
                lambda: CliffordTableauSimulationState(QUBITS),
                born.compute_probability_tableau,
                t_circuit,
                id="clifford_tableau",
            ),
        ],
    )
    def test_non_ch_form_raises_typed_error(
        self, apply_op, make_state, prob_fn, circuit
    ):
        state = make_state()
        sim = bgls.Simulator(state, apply_op, prob_fn, seed=1)
        match = f"{type(state).__name__}.*StabilizerChFormSimulationState"
        with pytest.raises(ValueError, match=match):
            sim.run(circuit(), repetitions=2)

    @pytest.mark.parametrize("apply_op", NEAR_CLIFFORD_OPS)
    def test_tableau_still_runs_clifford_circuits(self, apply_op):
        sim = bgls.Simulator(
            CliffordTableauSimulationState(QUBITS),
            apply_op,
            born.compute_probability_tableau,
            seed=1,
        )
        rows = sim.run(clifford_circuit(), repetitions=20).measurements["m"]
        assert {tuple(r) for r in rows} <= {(0, 0, 0), (1, 1, 0)}


# ----------------------------------------------------------------------
# repetition / chunk bounds
# ----------------------------------------------------------------------

class TestRepetitionBounds:
    @pytest.mark.parametrize("make_state,prob_fn", BACKENDS)
    @pytest.mark.parametrize("make_executor", EXECUTORS)
    @pytest.mark.parametrize("repetitions", [0, -2, 2.5, True])
    def test_bad_repetitions_raise_valueerror(
        self, make_state, prob_fn, make_executor, repetitions
    ):
        sim = make_sim(make_state, prob_fn, executor=make_executor())
        circuit = clifford_circuit()
        with pytest.raises(ValueError, match="repetitions"):
            sim.run(circuit, repetitions=repetitions)
        with pytest.raises(ValueError, match="repetitions"):
            sim.run_sweep(circuit, [None], repetitions=repetitions)
        with pytest.raises(ValueError, match="repetitions"):
            sim.run_batch([circuit], repetitions=repetitions)

    @pytest.mark.parametrize("repetitions", [0, 2.5, True])
    def test_submit_rejects_bad_repetitions(self, repetitions):
        # Regression: a float or bool count was queued and only failed
        # later in the dispatcher with an opaque TypeError.
        with SamplingService(
            StateVectorSimulationState(QUBITS),
            bgls.act_on,
            born.compute_probability_state_vector,
            executor=SerialExecutor(),
        ) as service:
            with pytest.raises(ValueError, match="repetitions"):
                service.submit(
                    clifford_circuit(), tenant="a", repetitions=repetitions
                )

    def test_numpy_integer_repetitions_accepted(self):
        sim = make_sim(
            lambda: StateVectorSimulationState(QUBITS),
            born.compute_probability_state_vector,
        )
        rows = sim.run(clifford_circuit(), repetitions=np.int64(3))
        assert rows.measurements["m"].shape == (3, N)

    @pytest.mark.parametrize(
        "make_executor", EXECUTORS[1:]
    )  # the two real executors
    def test_executor_execute_guards_repetitions(self, make_executor):
        sim = make_sim(
            lambda: StateVectorSimulationState(QUBITS),
            born.compute_probability_state_vector,
        )
        plan = sim.compile(clifford_circuit()).specialize(None)
        with pytest.raises(ValueError, match="repetitions"):
            make_executor().execute(sim, plan, repetitions=0)


class TestChunkSizesProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        repetitions=st.integers(min_value=0, max_value=10_000),
        num_chunks=st.integers(min_value=1, max_value=128),
    )
    def test_partition_contract(self, repetitions, num_chunks):
        sizes = _chunk_sizes(repetitions, num_chunks)
        assert sum(sizes) == repetitions
        assert len(sizes) <= num_chunks
        if repetitions == 0:
            assert sizes == []
        else:
            assert all(size >= 1 for size in sizes)
            assert max(sizes) - min(sizes) <= 1

    @settings(max_examples=50, deadline=None)
    @given(
        repetitions=st.integers(min_value=-1_000, max_value=-1),
        num_chunks=st.integers(min_value=1, max_value=16),
    )
    def test_negative_repetitions_rejected(self, repetitions, num_chunks):
        with pytest.raises(ValueError, match="repetitions"):
            _chunk_sizes(repetitions, num_chunks)

    @settings(max_examples=50, deadline=None)
    @given(
        repetitions=st.integers(min_value=0, max_value=1_000),
        num_chunks=st.integers(min_value=-16, max_value=0),
    )
    def test_bad_chunk_count_rejected(self, repetitions, num_chunks):
        with pytest.raises(ValueError, match="num_chunks"):
            _chunk_sizes(repetitions, num_chunks)


# ----------------------------------------------------------------------
# trajectory_mode and eager validation — the shared request normalizer
# ----------------------------------------------------------------------

class TestWorkerCount:
    @pytest.mark.parametrize("num_workers", [0, -1, 2.5, True])
    def test_pooled_executor_rejects_bad_worker_count(self, num_workers):
        with pytest.raises(ValueError, match="num_workers"):
            ProcessPoolExecutor(num_workers=num_workers)

    @pytest.mark.parametrize("num_workers", [0, -1, 2.5, True])
    def test_service_rejects_bad_worker_count(self, num_workers):
        with pytest.raises(ValueError, match="num_workers"):
            SamplingService(
                StateVectorSimulationState(QUBITS),
                bgls.act_on,
                born.compute_probability_state_vector,
                num_workers=num_workers,
            )

    def test_none_means_cpu_count(self):
        assert ProcessPoolExecutor().num_workers == (os.cpu_count() or 1)


class TestRequestNormalizer:
    """The six run* entry points share one validation front door
    (``repro.sampler.requests``): identical errors regardless of which
    entry point a bad argument hits."""

    def _sim(self, executor=None):
        return make_sim(
            lambda: StateVectorSimulationState(QUBITS),
            born.compute_probability_state_vector,
            executor=executor,
        )

    @pytest.mark.parametrize("make_executor", EXECUTORS)
    def test_batch_iter_compiles_at_call_time(self, make_executor):
        # Compilation is eager on every executor: a circuit the compiler
        # rejects (a qubit outside the state register) raises at the
        # call, not at the first next().
        sim = self._sim(executor=make_executor())
        foreign = cirq.LineQubit(N)
        circuit = cirq.Circuit(cirq.H(foreign), cirq.measure(foreign, key="m"))
        with pytest.raises(ValueError, match="not in state register"):
            sim.run_batch_iter([clifford_circuit(), circuit], repetitions=4)

    def test_bad_trajectory_mode_at_construction(self):
        for mode in ("sometimes", "auto"):
            with pytest.raises(ValueError, match="'serial' or 'batched'"):
                bgls.Simulator(
                    StateVectorSimulationState(QUBITS),
                    bgls.act_on,
                    born.compute_probability_state_vector,
                    trajectory_mode=mode,
                )

    def test_batch_length_mismatch_still_pinned(self):
        sim = self._sim()
        with pytest.raises(ValueError, match="resolvers"):
            sim.run_batch([clifford_circuit()], params=[None, None])
