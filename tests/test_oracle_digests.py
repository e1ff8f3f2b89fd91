"""Golden seeded output of the candidate-oracle paths the multi-point
golden suite does not reach.

Each case runs one seeded :class:`~repro.sampler.Simulator` in-process and
pins the SHA-256 digest (first 16 hex digits) of its ``run`` records and
its ``sample_bitstrings`` output:

* ``dm_midcircuit`` — serial trajectories on a density matrix with a
  mid-circuit measurement (exact channels, no branching);
* ``mps_amplitude_damp`` — serial trajectories on an MPS whose
  ``amplitude_damp`` channels run the serial Kraus-branch selection;
* ``ch_near_clifford`` — serial trajectories on a CH form under the
  stochastic ``act_on_near_clifford``;
* ``sv_user_candidates_*`` — a state vector with a user-supplied
  ``compute_candidate_probabilities``, in parallel and trajectory mode;
* ``sv_unregistered_*`` — a state vector with an unregistered
  ``compute_probability`` (the per-candidate loop), in parallel and
  trajectory mode;
* ``*_batched`` — the batched trajectory engine: a state vector with a
  long noiseless prefix, an ``amplitude_damp`` branch, a mid-circuit
  measurement and a ``depolarize`` layer, and the CH form and the
  tableau on a Clifford circuit with a mid-circuit measurement.

The digests were recorded before the Simulator resolved every backend to
one row-block candidate oracle (the ``*_batched`` ones before the batched
engine shared rows between trajectories); they must never be regenerated
to make a change pass.
"""

import hashlib

import numpy as np
import pytest

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.mps import MPSState
from repro.sampler.near_clifford import act_on_near_clifford
from repro.states import (
    CliffordTableauSimulationState,
    DensityMatrixSimulationState,
    StabilizerChFormSimulationState,
    StateVectorSimulationState,
)

QUBITS = cirq.LineQubit.range(4)
REPS = 64


def user_probability(state, bits):
    """An unregistered scalar Born oracle (same floats as the shipped one)."""
    return state.probability_of(bits)


def user_candidates(state, bits, support):
    """A user single-row candidate oracle: one scalar query per candidate."""
    k = len(support)
    out = np.empty(2**k)
    candidate = list(bits)
    for idx in range(2**k):
        for pos, axis in enumerate(support):
            candidate[axis] = (idx >> (k - 1 - pos)) & 1
        out[idx] = state.probability_of(candidate)
    return out


def _entangler():
    ops = [cirq.H(q) for q in QUBITS]
    ops += [cirq.CNOT(a, b) for a, b in zip(QUBITS, QUBITS[1:])]
    ops += [cirq.rx(0.4 + 0.3 * i)(q) for i, q in enumerate(QUBITS)]
    return ops


def midcircuit_circuit():
    return cirq.Circuit(
        _entangler(),
        cirq.measure(QUBITS[1], key="mid"),
        cirq.CNOT(QUBITS[1], QUBITS[2]),
        cirq.ry(0.7)(QUBITS[0]),
        cirq.measure(*QUBITS, key="m"),
    )


def noisy_circuit(channel):
    return cirq.Circuit(
        _entangler(),
        [channel(q) for q in QUBITS],
        cirq.CNOT(QUBITS[0], QUBITS[3]),
        cirq.rz(0.9)(QUBITS[2]),
        [channel(q) for q in QUBITS[1:3]],
        cirq.measure(*QUBITS, key="m"),
    )


def near_clifford_circuit():
    return cirq.Circuit(
        [cirq.H(q) for q in QUBITS],
        cirq.T(QUBITS[0]),
        cirq.CNOT(QUBITS[0], QUBITS[1]),
        cirq.T(QUBITS[1]),
        cirq.CNOT(QUBITS[1], QUBITS[2]),
        cirq.H(QUBITS[1]),
        cirq.T(QUBITS[3]),
        cirq.CNOT(QUBITS[2], QUBITS[3]),
        cirq.H(QUBITS[0]),
        cirq.measure(*QUBITS, key="m"),
    )


def parallel_circuit():
    return cirq.Circuit(
        _entangler(),
        cirq.CZ(QUBITS[0], QUBITS[2]),
        cirq.ry(1.1)(QUBITS[3]),
        cirq.measure(*QUBITS[:2], key="a"),
        cirq.measure(*QUBITS[2:], key="b"),
    )


def _sv_trajectory_circuit():
    return noisy_circuit(cirq.depolarize(0.1))


def batched_noisy_circuit():
    """A 22-gate noiseless prefix, then every kind of batched branch."""
    return cirq.Circuit(
        _entangler(),
        [cirq.ry(0.3 + 0.2 * i)(q) for i, q in enumerate(QUBITS)],
        cirq.CZ(QUBITS[0], QUBITS[2]),
        cirq.CNOT(QUBITS[3], QUBITS[1]),
        [cirq.rz(0.5 + 0.1 * i)(q) for i, q in enumerate(QUBITS)],
        cirq.H(QUBITS[2]),
        cirq.amplitude_damp(0.3)(QUBITS[1]),
        cirq.amplitude_damp(0.3)(QUBITS[3]),
        cirq.measure(QUBITS[2], key="mid"),
        cirq.CNOT(QUBITS[1], QUBITS[2]),
        cirq.rx(0.8)(QUBITS[3]),
        [cirq.depolarize(0.1)(q) for q in QUBITS],
        cirq.measure(*QUBITS, key="m"),
    )


def clifford_midcircuit_circuit():
    return cirq.Circuit(
        [cirq.H(q) for q in QUBITS],
        cirq.CNOT(QUBITS[0], QUBITS[1]),
        cirq.S(QUBITS[2]),
        cirq.CZ(QUBITS[1], QUBITS[3]),
        cirq.H(QUBITS[1]),
        cirq.CNOT(QUBITS[2], QUBITS[3]),
        cirq.measure(QUBITS[1], QUBITS[2], key="mid"),
        cirq.H(QUBITS[2]),
        cirq.CNOT(QUBITS[0], QUBITS[2]),
        cirq.S(QUBITS[3]),
        cirq.H(QUBITS[3]),
        cirq.measure(*QUBITS, key="m"),
    )


CASES = {
    "dm_midcircuit": (
        lambda: DensityMatrixSimulationState(QUBITS),
        bgls.act_on,
        born.compute_probability_density_matrix,
        None,
        midcircuit_circuit,
    ),
    "mps_amplitude_damp": (
        lambda: MPSState(QUBITS),
        bgls.act_on,
        born.compute_probability_mps,
        None,
        lambda: noisy_circuit(cirq.amplitude_damp(0.2)),
    ),
    "ch_near_clifford": (
        lambda: StabilizerChFormSimulationState(QUBITS),
        act_on_near_clifford,
        born.compute_probability_stabilizer_state,
        None,
        near_clifford_circuit,
    ),
    "sv_user_candidates_parallel": (
        lambda: StateVectorSimulationState(QUBITS),
        bgls.act_on,
        born.compute_probability_state_vector,
        user_candidates,
        parallel_circuit,
    ),
    "sv_user_candidates_trajectory": (
        lambda: StateVectorSimulationState(QUBITS),
        bgls.act_on,
        born.compute_probability_state_vector,
        user_candidates,
        _sv_trajectory_circuit,
    ),
    "sv_unregistered_parallel": (
        lambda: StateVectorSimulationState(QUBITS),
        bgls.act_on,
        user_probability,
        None,
        parallel_circuit,
    ),
    "sv_unregistered_trajectory": (
        lambda: StateVectorSimulationState(QUBITS),
        bgls.act_on,
        user_probability,
        None,
        _sv_trajectory_circuit,
    ),
    "sv_noisy_batched": (
        lambda: StateVectorSimulationState(QUBITS),
        bgls.act_on,
        born.compute_probability_state_vector,
        None,
        batched_noisy_circuit,
    ),
    "ch_midcircuit_batched": (
        lambda: StabilizerChFormSimulationState(QUBITS),
        bgls.act_on,
        born.compute_probability_stabilizer_state,
        None,
        clifford_midcircuit_circuit,
    ),
    "tableau_midcircuit_batched": (
        lambda: CliffordTableauSimulationState(QUBITS),
        bgls.act_on,
        born.compute_probability_tableau,
        None,
        clifford_midcircuit_circuit,
    ),
}


def trajectory_mode(name):
    return "batched" if name.endswith("_batched") else "serial"

GOLDEN = {
    "ch_near_clifford": ("b5cb9b3f51eaffd3", "caff2b9b88a9733b"),
    "dm_midcircuit": ("355d7a6f1bd04bf5", "7c4497118fc490a8"),
    "ch_midcircuit_batched": ("7661661f074ffd01", "222f875fae27f3eb"),
    "mps_amplitude_damp": ("c11fec5fc161bf70", "034d06a5f7a03927"),
    "sv_noisy_batched": ("d4116b60a570fcd9", "7e311ae2b6565be0"),
    "sv_unregistered_parallel": ("fde380f477904658", "f4dd74ca9d254d69"),
    "sv_unregistered_trajectory": ("120ceebf4822f131", "53cfa200f62fd4cc"),
    "sv_user_candidates_parallel": ("fde380f477904658", "f4dd74ca9d254d69"),
    "sv_user_candidates_trajectory": ("120ceebf4822f131", "53cfa200f62fd4cc"),
    "tableau_midcircuit_batched": ("7661661f074ffd01", "222f875fae27f3eb"),
}


def _digest(arrays):
    """SHA-256 over ``(name, shape, int8 bytes)`` of every array."""
    h = hashlib.sha256()
    for name, array in arrays:
        array = np.ascontiguousarray(np.asarray(array, dtype=np.int8))
        h.update(f"{name}{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()[:16]


def case_digests(name):
    make_state, apply_op, probability, candidates, make_circuit = CASES[name]
    circuit = make_circuit()
    sim = bgls.Simulator(
        make_state(),
        apply_op,
        probability,
        compute_candidate_probabilities=candidates,
        seed=31,
        trajectory_mode=trajectory_mode(name),
    )
    records = sim.run(circuit, repetitions=REPS).measurements
    bits = sim.sample_bitstrings(circuit, repetitions=REPS)
    return (
        _digest((key, records[key]) for key in sorted(records)),
        _digest([("bits", bits)]),
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_output_is_pinned(name):
    assert case_digests(name) == GOLDEN[name]


def test_cases_take_the_intended_mode():
    """The trajectory cases really run trajectories, the parallel ones
    the front, and the batched ones the batched engine — otherwise a
    digest would pin the wrong path."""
    for name, (make_state, apply_op, prob, _, make_circuit) in CASES.items():
        sim = bgls.Simulator(
            make_state(), apply_op, prob, trajectory_mode=trajectory_mode(name)
        )
        plan = sim.compile(make_circuit()).specialize(None)
        assert plan.needs_trajectories == (not name.endswith("_parallel"))
        if name.endswith("_batched"):
            assert sim._batched_adapter(plan) is not None, name
