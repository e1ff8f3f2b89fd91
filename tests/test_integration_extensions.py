"""Cross-module integration tests for the extension systems.

Each test chains at least two subsystems end to end: transpile -> sampler,
noise model -> trajectories -> analysis, apps -> parallel sampling, etc.
"""

import numpy as np
import pytest

from repro import apps, born
from repro import circuits as cirq
from repro.analysis import (
    bootstrap_confidence_interval,
    empirical_distribution,
    fractional_overlap,
)
from repro.circuits import channels, pauli_string_from_text
from repro.noise import ConstantNoiseModel, ReadoutErrorModel, apply_noise
from repro.protocols import act_on
from repro.sampler import (
    Simulator,
    act_on_near_clifford,
    act_on_near_clifford_with_pauli_noise,
)
from repro.states import (
    CliffordTableauSimulationState,
    StabilizerChFormSimulationState,
    StateVectorSimulationState,
)
from repro.transpile import DecomposeMultiQubitGates, t_count


def sv_simulator(qubits, seed=0):
    return Simulator(
        initial_state=StateVectorSimulationState(qubits),
        apply_op=lambda op, s: act_on(op, s),
        compute_probability=born.compute_probability_state_vector,
        seed=seed,
    )


class TestToffoliOnStabilizerBackend:
    """Toffoli circuit -> Clifford+T lowering -> sum-over-Cliffords.

    The stabilizer state cannot apply a Toffoli; the transpiler lowers it
    to 7 T gates, which act_on_near_clifford expands stochastically.  The
    sampled distribution must approximate the exact one.
    """

    def test_half_adder_distribution(self):
        qs = cirq.LineQubit.range(3)
        circuit = cirq.Circuit(
            cirq.H.on(qs[0]),
            cirq.H.on(qs[1]),
            cirq.TOFFOLI.on(*qs),
            cirq.measure(*qs, key="z"),
        )
        lowered = DecomposeMultiQubitGates()(circuit)
        assert t_count(lowered) == 7

        exact = np.abs(
            circuit.without_measurements().final_state_vector(qubit_order=qs)
        ) ** 2
        sim = Simulator(
            initial_state=StabilizerChFormSimulationState(qs),
            apply_op=act_on_near_clifford,
            compute_probability=born.compute_probability_stabilizer_state,
            seed=11,
        )
        reps = 6000
        bits = sim.sample_bitstrings(lowered, repetitions=reps)
        emp = empirical_distribution(bits, 3)
        # 2^7 = 128 stabilizer branches: at 7 T gates the stochastic
        # sum-over-Cliffords overlap collapses toward the uniform floor of
        # 0.5 — exactly the Fig. 5 degradation the paper reports.  The
        # integration claim is that the whole stack runs and stays at or
        # above that floor, not that 7 T's sample accurately.
        overlap = fractional_overlap(emp, exact)
        assert 0.45 < overlap < 0.9

    def test_single_t_stays_accurate(self):
        """With one T gate (2 branches) the sampled overlap stays high."""
        qs = cirq.LineQubit.range(2)
        circuit = cirq.Circuit(
            cirq.H.on(qs[0]),
            cirq.T.on(qs[0]),
            cirq.CNOT.on(qs[0], qs[1]),
            cirq.H.on(qs[0]),
            cirq.measure(*qs, key="z"),
        )
        exact = np.abs(
            circuit.without_measurements().final_state_vector(qubit_order=qs)
        ) ** 2
        sim = Simulator(
            initial_state=StabilizerChFormSimulationState(qs),
            apply_op=act_on_near_clifford,
            compute_probability=born.compute_probability_stabilizer_state,
            seed=13,
        )
        bits = sim.sample_bitstrings(circuit, repetitions=8000)
        emp = empirical_distribution(bits, 2)
        assert fractional_overlap(emp, exact) > 0.85


class TestPipelineThenStabilizer:
    def test_optimized_clifford_circuit_on_tableau(self):
        qs = cirq.LineQubit.range(4)
        circuit = cirq.random_clifford_circuit(qs, 12, random_state=2)
        circuit.append(cirq.H.on(qs[0]))
        circuit.append(cirq.H.on(qs[0]))  # cancels
        circuit.append(cirq.measure(qs[0], qs[1], key="z"))
        # Light-cone + cancellation, but keep gates Clifford (no 1q merge
        # into MatrixGate, which the tableau cannot apply).
        from repro.transpile import (
            CancelAdjacentInverses,
            DropEmptyMoments,
            LightConeReduction,
            PassPipeline,
        )

        pm = PassPipeline(
            [LightConeReduction(), CancelAdjacentInverses(), DropEmptyMoments()]
        )
        optimized = pm.run(circuit)
        assert optimized.num_operations() < circuit.num_operations()

        sim = Simulator(
            initial_state=CliffordTableauSimulationState(qs),
            apply_op=lambda op, s: act_on(op, s),
            compute_probability=born.compute_probability_tableau,
            seed=3,
        )
        ref = sv_simulator(qs, seed=4)
        reps = 1500

        def hist(result):
            h = np.zeros(4)
            for row in result.measurements["z"]:
                h[2 * row[0] + row[1]] += 1
            return h / reps

        tv = 0.5 * np.abs(
            hist(sim.run(optimized, repetitions=reps))
            - hist(ref.run(circuit, repetitions=reps))
        ).sum()
        assert tv < 0.1


class TestNoiseModelPlusReadout:
    def test_full_noisy_stack_with_readout(self):
        """Noise model rewrite -> trajectories -> readout corruption."""
        qs = cirq.LineQubit.range(2)
        circuit = cirq.Circuit(
            cirq.H.on(qs[0]),
            cirq.CNOT.on(qs[0], qs[1]),
            cirq.measure(*qs, key="z"),
        )
        noisy = apply_noise(
            circuit, ConstantNoiseModel(channels.depolarize(0.05))
        )
        result = sv_simulator(qs, seed=5).run(noisy, repetitions=2000)
        readout = ReadoutErrorModel(p0_to_1=0.1, p1_to_0=0.1)
        corrupted = readout.apply_to_result(result, rng=6)

        clean_agree = np.mean(
            result.measurements["z"][:, 0] == result.measurements["z"][:, 1]
        )
        noisy_agree = np.mean(
            corrupted.measurements["z"][:, 0]
            == corrupted.measurements["z"][:, 1]
        )
        # Readout error strictly degrades the GHZ correlation.
        assert noisy_agree < clean_agree
        assert clean_agree > 0.85


class TestBootstrapOnSampledOverlap:
    def test_overlap_confidence_interval_brackets_ideal(self):
        qs = cirq.LineQubit.range(2)
        circuit = cirq.Circuit(
            cirq.H.on(qs[0]),
            cirq.CNOT.on(qs[0], qs[1]),
            cirq.measure(*qs, key="z"),
        )
        bits = sv_simulator(qs, seed=7).sample_bitstrings(
            circuit, repetitions=2000
        )
        ideal = np.array([0.5, 0.0, 0.0, 0.5])

        def overlap(samples):
            return fractional_overlap(
                empirical_distribution(samples, 2), ideal
            )

        point, lo, hi = bootstrap_confidence_interval(bits, overlap, rng=8)
        assert 0.9 < lo <= point <= hi <= 1.0


class TestPauliObservablesAcrossBackends:
    def test_tfim_energy_sv_vs_pauli_sampling(self):
        """The VQE Hamiltonian as a PauliSum, sampled term by term."""
        problem = apps.TFIMProblem(num_sites=3, coupling=1.0, field=0.7)
        qs = cirq.LineQubit.range(3)
        params = (0.4, 0.9)
        resolver = cirq.ParamResolver({"g0": params[0], "b0": params[1]})
        prep = apps.tfim_ansatz_circuit(
            problem, layers=1, measure_key=None
        ).resolve_parameters(resolver)
        psi = prep.final_state_vector(qubit_order=qs)

        # H = -J sum ZZ - h sum X as Pauli strings.
        strings = []
        for i, j in problem.bonds():
            strings.append(
                pauli_string_from_text(
                    "".join("Z" if k in (i, j) else "I" for k in range(3)),
                    qs,
                    coefficient=-problem.coupling,
                )
            )
        for i in range(3):
            strings.append(
                pauli_string_from_text(
                    "".join("X" if k == i else "I" for k in range(3)),
                    qs,
                    coefficient=-problem.field,
                )
            )

        want = apps.exact_energy_of_parameters(problem, params, layers=1)
        dense = sum(
            s.expectation_from_state_vector(psi, qs).real for s in strings
        )
        assert dense == pytest.approx(want, abs=1e-9)

        sampled = 0.0
        for k, string in enumerate(strings):
            circuit = prep.copy()
            circuit.append(string.measurement_basis_change())
            circuit.append(cirq.measure(*qs, key="m"))
            samples = sv_simulator(qs, seed=10 + k).run(
                circuit, repetitions=3000
            ).measurements["m"]
            sampled += string.expectation_from_samples(samples, qs)
        assert sampled == pytest.approx(want, abs=0.15)


class TestNoisyNearCliffordAtModerateWidth:
    def test_ten_qubit_noisy_clifford_t(self):
        """The full stack the dense simulator could not scale past ~25q."""
        n = 10
        qs = cirq.LineQubit.range(n)
        circuit = cirq.random_clifford_circuit(qs, 10, random_state=4)
        ops = list(circuit.all_operations())
        noisy = cirq.Circuit()
        for op in ops:
            noisy.append(op)
        noisy.append(cirq.T.on(qs[0]))
        noisy.append(channels.depolarize(0.02).on(qs[0]))
        noisy.append(cirq.measure(*qs, key="z"))

        sim = Simulator(
            initial_state=StabilizerChFormSimulationState(qs),
            apply_op=act_on_near_clifford_with_pauli_noise,
            compute_probability=born.compute_probability_stabilizer_state,
            seed=12,
        )
        result = sim.run(noisy, repetitions=50)
        assert result.measurements["z"].shape == (50, n)
