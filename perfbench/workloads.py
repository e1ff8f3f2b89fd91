"""The four benchmark workloads.

Each workload turns ``(seed, call index)`` into the inputs of one user
call, builds the simulator (and executor) a user would build, makes the
call, and checks the outputs against exact references computed outside
the timed region.  Call index 0 is the untimed warm-up call of every
set-up; timed calls use indices 1, 2, ...

Sizes are the full benchmark sizes unless ``toy=True`` (smoke tests).
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from typing import Iterator, List, Sequence

import numpy as np

import repro as bgls
from repro import circuits as cirq
from repro.analysis.xeb import ensemble_xeb, linear_xeb_estimate
from repro.apps.qaoa import qaoa_maxcut_circuit, random_graph
from repro.apps.supremacy import ideal_output_probabilities, xeb_circuits

# A correctness statistic this many standard errors away from its exact
# expectation fails the call.  With a few thousand checks per benchmark
# campaign the false-failure rate stays negligible.
Z_LIMIT = 6.0


@dataclass
class Check:
    """One call's correctness verdict and the statistic behind it."""

    ok: bool
    value: float
    z: float


def _rng(*words: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(words)))


def _digest(arrays: Sequence[np.ndarray]) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _circuit_digest(circuits: Sequence) -> str:
    h = hashlib.sha256()
    for circuit in circuits:
        h.update(repr(list(circuit.all_operations())).encode())
    return h.hexdigest()


def _sv_simulator(qubits, seed: int, **kwargs) -> bgls.Simulator:
    return bgls.Simulator(
        bgls.StateVectorSimulationState(qubits),
        bgls.act_on,
        bgls.born.compute_probability_state_vector,
        seed=seed,
        **kwargs,
    )


def _outcomes(samples: np.ndarray) -> np.ndarray:
    """Big-endian integer outcome of each sampled bitstring row."""
    n = samples.shape[1]
    weights = 2 ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return samples.astype(np.int64) @ weights


def xeb_check(samples: np.ndarray, probs: np.ndarray) -> Check:
    """Linear XEB of ``samples`` against the exact distribution ``probs``.

    Under exact sampling the per-sample score ``2^n p(x)`` has mean
    ``2^n sum p^2`` and variance ``4^n (sum p^3 - (sum p^2)^2)``, both
    computed exactly, so the z-score needs no estimated variance.  The
    reported value is the XEB fidelity (observed over expected XEB).
    """
    dim = probs.size
    p_x = probs[_outcomes(samples)]
    observed = dim * p_x.mean() - 1.0
    s2, s3 = float(np.sum(probs**2)), float(np.sum(probs**3))
    expected = dim * s2 - 1.0
    sd = dim * math.sqrt(max(s3 - s2 * s2, 0.0) / len(p_x))
    gap = observed - expected
    if sd > 1e-12:
        z = gap / sd
    else:  # flat distribution: every sample must score exactly the mean
        z = 0.0 if abs(gap) <= 1e-9 * max(1.0, abs(expected)) else math.inf
    ok = bool(np.all(p_x > 0.0)) and abs(z) <= Z_LIMIT
    fidelity = observed / expected if expected > 0 else float("nan")
    return Check(ok, fidelity, z)


class Workload:
    """Interface shared by the four workloads."""

    name = ""
    pooled = False
    # Distinguishes this workload's seed streams from the others'.
    stream = 0

    def __init__(self, seed: int, toy: bool = False):
        # Subclasses read ``toy`` to pick their sizes.
        self.seed = int(seed)

    def rng(self, *words: int) -> np.random.Generator:
        return _rng(self.seed, self.stream, *words)

    def make_input(self, index: int):
        raise NotImplementedError

    def input_digest(self, inp) -> str:
        raise NotImplementedError

    def open(self):
        """Construct what the user constructs; returns the session."""
        raise NotImplementedError

    def call(self, session, inp) -> Iterator:
        """One user call, as an iterator over its :class:`Result` s."""
        raise NotImplementedError

    def close(self, session) -> None:
        pass

    def samples_per_call(self) -> int:
        raise NotImplementedError

    def check(self, inp, results: List) -> Check:
        raise NotImplementedError

    def output_digest(self, results: List) -> str:
        arrays = []
        for res in results:
            for key in sorted(res.measurements):
                arrays.append(res.measurements[key])
        return _digest(arrays)


def front_work(circuit, qubits, repetitions: int, limit: float = math.inf) -> float:
    """Expected parallel-mode front work of sampling ``circuit``.

    The sampler's walkers follow the Born distribution of the state after
    each gate, so a moment leaves about ``sum_x 1 - (1 - p(x))^R`` distinct
    bitstrings in the front; each gate of the next moment resamples all of
    them.  Summed over gates, this predicts the run time of a 14-qubit,
    20 000-repetition call closely (correlation 0.99 over 30 circuits).
    Stops early once the sum passes ``limit``.
    """
    axis = {q: i for i, q in enumerate(qubits)}
    state = np.zeros((2,) * len(qubits), dtype=np.complex128)
    state[(0,) * len(qubits)] = 1.0
    work = 0.0
    for moment in circuit:
        ops = [op for op in moment.operations if not op.is_measurement]
        for op in ops:
            k = len(op.qubits)
            u = op._unitary_().reshape((2,) * (2 * k))
            axes = [axis[q] for q in op.qubits]
            state = np.tensordot(u, state, axes=(range(k, 2 * k), axes))
            state = np.moveaxis(state, range(k), axes)
        probs = np.minimum(np.abs(state.reshape(-1)) ** 2, 1.0 - 1e-16)
        rows = float(np.sum(-np.expm1(repetitions * np.log1p(-probs))))
        work += rows * len(ops)
        if work > limit:
            break
    return work


class RandomCircuitRun(Workload):
    """``Simulator.run`` of a measured random circuit per call.

    Circuits come from ``generate_random_circuit``, redrawn until they
    fit the workload's size filter, so that the work per call does not
    swing with the seed: ``ops`` fixes the operation count (the state
    kernel's work) and ``work_band`` bounds :func:`front_work`.
    """

    num_qubits = 0
    moments = 0
    ops = None
    work_band = None
    repetitions = 0
    # Calls cycle through this many circuits; None draws a fresh one each.
    distinct = None

    def __init__(self, seed, toy=False):
        super().__init__(seed, toy)
        self._probs = {}

    def _fits(self, circuit, qubits) -> bool:
        if self.ops is not None and circuit.num_operations() != self.ops:
            return False
        if self.work_band is not None:
            low, high = self.work_band
            return low <= front_work(circuit, qubits, self.repetitions, high) <= high
        return True

    def make_input(self, index: int):
        if self.distinct is not None:
            index %= self.distinct
        qubits = cirq.LineQubit.range(self.num_qubits)
        rng = self.rng(index)
        while True:
            body = bgls.generate_random_circuit(qubits, self.moments, random_state=rng)
            if self._fits(body, qubits):
                break
        body.append(cirq.measure(*qubits, key="m"))
        return body

    def input_digest(self, inp) -> str:
        return _circuit_digest([inp])

    def open(self):
        return _sv_simulator(cirq.LineQubit.range(self.num_qubits), self.seed)

    def call(self, session, inp):
        return iter((session.run(inp, repetitions=self.repetitions),))

    def samples_per_call(self) -> int:
        return self.repetitions

    def check(self, inp, results):
        # Repeated circuits share one exact reference.
        key = self.input_digest(inp)
        if key not in self._probs:
            self._probs[key] = ideal_output_probabilities(inp)
        return xeb_check(results[0].measurements["m"], self._probs[key])


class Front(RandomCircuitRun):
    name = "front"
    stream = 1

    def __init__(self, seed, toy=False):
        super().__init__(seed, toy)
        self.num_qubits, self.moments, self.repetitions = (
            (6, 6, 500) if toy else (14, 30, 20000)
        )
        # The middle half of this circuit family by front work (quartiles
        # over 300 circuits): run time varies about 5x across the whole
        # family, which would make per-run medians swing with the seed.
        self.work_band = None if toy else (14000.0, 68000.0)


class Wide(RandomCircuitRun):
    name = "wide"
    stream = 2
    distinct = 4

    def __init__(self, seed, toy=False):
        super().__init__(seed, toy)
        self.num_qubits, self.moments, self.repetitions = (
            (8, 3, 10) if toy else (20, 8, 10)
        )
        self.ops = None if toy else 61


class XebPool(Workload):
    """A fresh XEB circuit ensemble per call, streamed through a pool."""

    name = "xeb_pool"
    pooled = True
    stream = 3

    def __init__(self, seed, toy=False):
        super().__init__(seed, toy)
        self.grid, self.cycles, self.circuits, self.repetitions = (
            ((2, 2), 6, 6, 20) if toy else ((2, 3), 4, 64, 20)
        )
        self.workers = max(1, min(2, os.cpu_count() or 1))

    def make_input(self, index: int):
        rows, cols = self.grid
        return xeb_circuits(
            rows, cols, self.cycles, self.circuits, random_state=self.rng(index)
        )

    def input_digest(self, inp) -> str:
        return _circuit_digest(inp)

    def open(self):
        manager = bgls.PoolManager()
        executor = bgls.ProcessPoolExecutor(
            num_workers=self.workers, pool_manager=manager
        )
        qubits = sorted(self.make_input(0)[0].all_qubits())
        return _sv_simulator(qubits, self.seed, executor=executor)

    def call(self, session, inp):
        return session.run_batch_iter(inp, repetitions=self.repetitions)

    def close(self, session) -> None:
        session.executor.pool_manager.shutdown()

    def samples_per_call(self) -> int:
        return self.circuits * self.repetitions

    def check(self, inp, results):
        """Ensemble XEB fidelity over the circuits that can certify one.

        A circuit whose ideal distribution is too close to uniform has no
        defined fidelity (``nan``); it still has to sample only outcomes
        of nonzero probability.
        """
        if len(results) != len(inp):
            return Check(False, math.nan, math.inf)
        samples = [res.measurements["m"] for res in results]
        probs = [ideal_output_probabilities(c) for c in inp]
        if any(np.any(p[_outcomes(s)] <= 0.0) for s, p in zip(samples, probs)):
            return Check(False, math.nan, math.inf)
        estimates = [linear_xeb_estimate(s, p) for s, p in zip(samples, probs)]
        ensemble = ensemble_xeb([e for e in estimates if math.isfinite(e.fidelity)])
        if ensemble.std_err > 0:
            z = (ensemble.fidelity - 1.0) / ensemble.std_err
        else:
            z = math.inf
        return Check(abs(z) <= Z_LIMIT, ensemble.fidelity, z)


class NoisySweep(Workload):
    """A fresh (gamma, beta) grid per call over a noisy QAOA template."""

    name = "noisy_sweep"
    stream = 4
    noise = 0.01

    def __init__(self, seed, toy=False):
        super().__init__(seed, toy)
        self.nodes, self.edges, self.points, self.repetitions = (
            (4, None, 2, 16) if toy else (10, 19, 8, 96)
        )
        # Keep the template's shape fixed across seeds: draw graphs from
        # this seed's stream until one has the required edge count.
        rng = self.rng(0)
        while True:
            graph = random_graph(self.nodes, 0.3 if not toy else 0.5, rng)
            if self.edges is None or graph.number_of_edges() == self.edges:
                break
        self.graph = graph
        self.qubits = cirq.LineQubit.range(self.nodes)
        self.noise_ops = [cirq.depolarize(self.noise).on(q) for q in self.qubits]
        template = qaoa_maxcut_circuit(
            graph, cirq.Symbol("gamma"), cirq.Symbol("beta"), layers=2,
            qubits=self.qubits, measure_key=None,
        )
        template.append(self.noise_ops)
        template.append(cirq.measure(*self.qubits, key="z"))
        self.template = template

    def make_input(self, index: int):
        values = self.rng(index).uniform(0.0, math.pi, size=(self.points, 2))
        return [{"gamma": float(g), "beta": float(b)} for g, b in values]

    def input_digest(self, inp) -> str:
        return hashlib.sha256(repr(inp).encode()).hexdigest()

    def open(self):
        return _sv_simulator(self.qubits, self.seed, trajectory_mode="batched")

    def call(self, session, inp):
        return session.run_sweep_iter(
            self.template, inp, repetitions=self.repetitions
        )

    def samples_per_call(self) -> int:
        return self.points * self.repetitions

    def exact_marginals(self, point) -> List[np.ndarray]:
        """Exact distributions of the two register halves at one point.

        The template is unitary up to its terminal noise layer, so each
        half's reduced density matrix before that layer comes from the
        circuit's own state-vector evolution.  The noise acts qubit by
        qubit, so it commutes with tracing out the other half, and runs
        exactly on a :class:`DensityMatrixSimulationState` per half.
        """
        pure = qaoa_maxcut_circuit(
            self.graph, point["gamma"], point["beta"], layers=2,
            qubits=self.qubits, measure_key=None,
        )
        half = self.nodes // 2
        psi = pure.final_state_vector(qubit_order=self.qubits).reshape(2**half, -1)
        halves = (
            (self.qubits[:half], psi @ psi.conj().T),
            (self.qubits[half:], psi.T @ psi.conj()),
        )
        marginals = []
        for qubits, reduced in halves:
            rho = bgls.DensityMatrixSimulationState(qubits, initial_state=reduced)
            for op in self.noise_ops:
                if op.qubits[0] in qubits:
                    bgls.act_on(op, rho)
            probs = np.clip(rho.diagonal_probabilities().real, 0.0, None)
            marginals.append(probs / probs.sum())
        return marginals

    def check(self, inp, results):
        """Total variation distance of each half's marginal, every point.

        Marginals keep the test sharp: ``repetitions`` samples spread over
        all ``2^n`` outcomes leave the full-register TVD dominated by
        finite-sample noise.  Each TVD is compared with its distribution
        under exact sampling (Monte Carlo from the exact marginal), and the
        z-scores of all marginals are combined (Stouffer) so that a small
        error at every point adds up.
        """
        if len(results) != len(inp):
            return Check(False, math.nan, math.inf)
        rng = self.rng(int(self.input_digest(inp)[:8], 16))
        half = self.nodes // 2
        tvds, zs = [], []
        for point, result in zip(inp, results):
            samples = result.measurements["z"]
            columns = (samples[:, :half], samples[:, half:])
            for probs, bits in zip(self.exact_marginals(point), columns):
                outcomes = _outcomes(bits)
                empirical = np.bincount(outcomes, minlength=probs.size) / outcomes.size
                null = rng.multinomial(outcomes.size, probs, size=400) / outcomes.size
                null_tvd = 0.5 * np.abs(null - probs).sum(axis=1)
                tvd = 0.5 * float(np.abs(empirical - probs).sum())
                sd = float(null_tvd.std())
                zs.append((tvd - float(null_tvd.mean())) / sd if sd > 0 else 0.0)
                tvds.append(tvd)
        z = sum(zs) / math.sqrt(len(zs))
        return Check(z <= Z_LIMIT, float(np.mean(tvds)), z)


WORKLOADS = {w.name: w for w in (Front, Wide, XebPool, NoisySweep)}
