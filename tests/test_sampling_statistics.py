"""Statistical conformance: sampled histograms vs exact Born distributions.

Deterministic (fixed-seed) goodness-of-fit checks for the end-to-end
sampler on three workloads: GHZ, Bernstein-Vazirani, and a seeded 8-qubit
random circuit.  Each check compares the empirical histogram against the
*exact* Born distribution (computed from the dense final state) with both

* a total-variation bound calibrated to the expected sampling fluctuation
  ``E[TVD] ~ sqrt(#outcomes / (2 pi reps))``, with >2x headroom, and
* a Pearson chi-square statistic against a conservative critical value
  (binning outcomes with tiny expected counts together).

With fixed seeds these are exact regression tests, not flaky monitors:
any run-to-run difference would come from a behavior change, not luck.
"""

import networkx as nx
import numpy as np
import pytest

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.apps.bernstein_vazirani import bernstein_vazirani_circuit
from repro.apps.ghz import ghz_circuit
from repro.apps.qaoa import qaoa_maxcut_circuit
from repro.sampler import PoolManager, ProcessPoolExecutor
from repro.states import (
    CliffordTableauSimulationState,
    StabilizerChFormSimulationState,
    StateVectorSimulationState,
)


def exact_distribution(circuit, qubits):
    """Exact Born probabilities of the measurement-free circuit."""
    state = StateVectorSimulationState(qubits)
    for op in circuit.all_operations():
        if not op.is_measurement:
            bgls.act_on(op, state)
    return np.abs(state.state_vector()) ** 2


def empirical_distribution(bits, n):
    weights = 1 << np.arange(n - 1, -1, -1)
    idx = np.asarray(bits, dtype=np.int64) @ weights
    return np.bincount(idx, minlength=2**n) / len(bits)


def tvd(p, q):
    return 0.5 * float(np.abs(p - q).sum())


def chi_square_statistic(counts, probs, min_expected=5.0):
    """Pearson chi-square with low-expectation bins pooled; returns
    ``(statistic, dof)``."""
    reps = counts.sum()
    order = np.argsort(probs)[::-1]
    stat, dof = 0.0, -1
    pool_obs, pool_exp = 0.0, 0.0
    for i in order:
        pool_obs += counts[i]
        pool_exp += reps * probs[i]
        if pool_exp >= min_expected:
            stat += (pool_obs - pool_exp) ** 2 / pool_exp
            dof += 1
            pool_obs, pool_exp = 0.0, 0.0
    if pool_exp > 0:
        stat += (pool_obs - pool_exp) ** 2 / max(pool_exp, 1e-12)
        dof += 1
    return stat, max(dof, 1)


def chi_square_critical(dof):
    """~99.9th percentile of chi-square via the Wilson-Hilferty cube
    approximation — avoids a scipy dependency."""
    z = 3.09  # N(0,1) 99.9th percentile
    return dof * (1 - 2 / (9 * dof) + z * np.sqrt(2 / (9 * dof))) ** 3


def assert_matches_exact(bits, probs, n, reps):
    emp = empirical_distribution(bits, n)
    budget = 2.5 * np.sqrt(np.count_nonzero(probs > 1e-12) / (2 * np.pi * reps))
    assert tvd(emp, probs) < max(budget, 0.02), (
        f"TVD {tvd(emp, probs):.4f} exceeds budget {budget:.4f}"
    )
    counts = emp * reps
    stat, dof = chi_square_statistic(counts, probs)
    assert stat < chi_square_critical(dof), (
        f"chi-square {stat:.1f} exceeds the {dof}-dof critical value"
    )


class TestGHZ:
    @pytest.mark.parametrize(
        "make_state, prob_fn",
        [
            (StateVectorSimulationState, born.compute_probability_state_vector),
            (
                StabilizerChFormSimulationState,
                born.compute_probability_stabilizer_state,
            ),
            (CliffordTableauSimulationState, born.compute_probability_tableau),
        ],
    )
    def test_ghz_histogram_matches_exact(self, make_state, prob_fn):
        n, reps = 4, 3000
        qubits = cirq.LineQubit.range(n)
        circuit = ghz_circuit(qubits, measure_key=None)
        probs = exact_distribution(circuit, qubits)
        sim = bgls.Simulator(make_state(qubits), bgls.act_on, prob_fn, seed=11)
        bits = sim.sample_bitstrings(circuit, repetitions=reps)
        # GHZ support is exactly {00..0, 11..1}.
        sums = bits.sum(axis=1)
        assert set(np.unique(sums)) <= {0, n}
        assert_matches_exact(bits, probs, n, reps)


class TestBernsteinVazirani:
    @pytest.mark.parametrize("secret", ["1011", "0000", "11111"])
    def test_bv_returns_secret_deterministically(self, secret):
        circuit = bernstein_vazirani_circuit(secret)
        qubits = circuit.all_qubits()
        sim = bgls.Simulator(
            StateVectorSimulationState(qubits),
            bgls.act_on,
            born.compute_probability_state_vector,
            seed=5,
        )
        result = sim.run(circuit, repetitions=200)
        rows = result.measurements["secret"]
        expected = np.array([int(c) for c in secret])
        assert np.array_equal(rows, np.tile(expected, (200, 1)))

    def test_bv_on_stabilizer_backend(self):
        circuit = bernstein_vazirani_circuit("1101")
        qubits = circuit.all_qubits()
        sim = bgls.Simulator(
            StabilizerChFormSimulationState(qubits),
            bgls.act_on,
            born.compute_probability_stabilizer_state,
            seed=6,
        )
        rows = sim.run(circuit, repetitions=100).measurements["secret"]
        assert np.array_equal(rows, np.tile([1, 1, 0, 1], (100, 1)))


class TestSeededRandomCircuit:
    def test_8q_random_circuit_matches_exact(self):
        n, reps = 8, 6000
        qubits = cirq.LineQubit.range(n)
        circuit = cirq.generate_random_circuit(qubits, 12, random_state=42)
        probs = exact_distribution(circuit, qubits)
        sim = bgls.Simulator(
            StateVectorSimulationState(qubits),
            bgls.act_on,
            born.compute_probability_state_vector,
            seed=13,
        )
        bits = sim.sample_bitstrings(circuit, repetitions=reps)
        assert_matches_exact(bits, probs, n, reps)

    def test_qaoa_grid_pooled_point_scope_matches_exact(self):
        """Pooled run_sweep vs exact Born, per grid point.

        The statistical regression for the warm-pool sweep path: a
        parameterized QAOA MaxCut template swept over a (gamma, beta)
        grid, every point fanned across the warm process pool as one
        stream, every point's histogram checked against the exact Born
        distribution of its resolved circuit (TVD + chi-square) — and
        bit-for-bit against the serial sweep, so the goodness-of-fit
        verdicts cover the pooled samples themselves.
        """
        reps = 2500
        graph = nx.Graph([(0, 1), (1, 2), (2, 3), (0, 2)])
        n = graph.number_of_nodes()
        qubits = cirq.LineQubit.range(n)
        template = qaoa_maxcut_circuit(
            graph, cirq.Symbol("gamma"), cirq.Symbol("beta"), qubits=qubits
        )
        resolvers = [
            cirq.ParamResolver({"gamma": g, "beta": b})
            for g in (0.4, 0.9)
            for b in (0.25, 0.7)
        ]

        def make_sim(executor=None):
            return bgls.Simulator(
                StateVectorSimulationState(qubits),
                bgls.act_on,
                born.compute_probability_state_vector,
                seed=37,
                executor=executor,
            )

        with PoolManager() as manager:
            pooled = make_sim(
                ProcessPoolExecutor(
                    num_workers=2, start_method="fork", pool_manager=manager
                )
            ).sample_bitstrings_sweep(template, resolvers, repetitions=reps)
        serial = make_sim().sample_bitstrings_sweep(
            template, resolvers, repetitions=reps
        )
        assert len(pooled) == len(resolvers)
        for resolver, bits, serial_bits in zip(resolvers, pooled, serial):
            np.testing.assert_array_equal(bits, serial_bits)
            resolved = template.resolve_parameters(resolver)
            probs = exact_distribution(resolved, qubits)
            assert_matches_exact(bits, probs, n, reps)

    def test_8q_random_clifford_on_tableau_matches_exact(self):
        n, reps = 8, 4000
        qubits = cirq.LineQubit.range(n)
        circuit = cirq.random_clifford_circuit(qubits, 16, random_state=42)
        probs = exact_distribution(circuit, qubits)
        sim = bgls.Simulator(
            CliffordTableauSimulationState(qubits),
            bgls.act_on,
            born.compute_probability_tableau,
            seed=14,
        )
        bits = sim.sample_bitstrings(circuit, repetitions=reps)
        assert_matches_exact(bits, probs, n, reps)
