"""Differential slice: apply_op x channel kind, against the density matrix.

Every cell samples one small noisy circuit through ``Simulator`` and
compares the histogram with the exact density-matrix diagonal of the same
circuit (``assert_matches_exact``: a TVD bound plus a Pearson chi-square
at the 99.9th percentile).  The circuit makes a Bell pair, applies the
channel to qubit 1, and undoes the pair, so the noiseless outcome is
``00`` and every branch of every channel below moves weight elsewhere;
exact zeros abound, which is what breaks a Kraus branch that is not
conditioned on the tracked bitstring.

Axes:

* dense backends: state vector and MPS under ``act_on`` and
  ``act_on_with_pauli_noise``, plus the state vector in
  ``trajectory_mode="batched"`` under ``act_on`` (a custom apply_op always
  runs serially), on a Pauli channel (``depolarize``), a mixed-unitary
  non-Pauli channel (``sqrt(1-p) I``, ``sqrt(p) H``) and two general Kraus
  channels (``amplitude_damp``, ``phase_damp``);
* stabilizer backends: CH form and tableau under
  ``act_on_with_pauli_noise``, and the CH form under
  ``act_on_near_clifford_with_pauli_noise``, on the three Pauli channels.

Error budget: each cell's chi-square rejects a correct sampler with
probability 0.001, so the 29 cells spend a family-wise false-positive
budget of at most 0.029 (Bonferroni); keep the total under 0.05 when
adding cells.  Seeds are fixed, so a failure is a behavior change, never
luck.
"""

import math

import numpy as np
import pytest

import repro as bgls
from repro import born
from repro import circuits as cirq
from repro.circuits import channels
from repro.mps import MPSState
from repro.sampler import (
    act_on_near_clifford_with_pauli_noise,
    act_on_with_pauli_noise,
)
from repro.states import (
    CliffordTableauSimulationState,
    DensityMatrixSimulationState,
    StabilizerChFormSimulationState,
    StateVectorSimulationState,
)

from test_sampling_statistics import assert_matches_exact

N = 2
QUBITS = cirq.LineQubit.range(N)
SEED = 1

_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)


class HadamardMixture(channels.KrausChannel):
    """Applies H with probability ``p``: mixed-unitary, not Pauli."""

    def _kraus_(self):
        p = self.probability
        return [math.sqrt(1 - p) * np.eye(2, dtype=np.complex128), math.sqrt(p) * _H]


def bell_channel_circuit(channel):
    a, b = QUBITS
    return cirq.Circuit(
        cirq.H(a),
        cirq.CNOT(a, b),
        channel.on(b),
        cirq.CNOT(a, b),
        cirq.H(a),
        cirq.measure(a, b, key="m"),
    )


def exact_diagonal(circuit):
    rho = DensityMatrixSimulationState(QUBITS)
    for op in circuit.without_measurements().all_operations():
        bgls.act_on(op, rho)
    return rho.diagonal_probabilities()


BOTH_APPLY_OPS = [("act_on", bgls.act_on), ("pauli_noise", act_on_with_pauli_noise)]
# (id, state factory, probability function, trajectory mode, apply_ops)
DENSE_BACKENDS = [
    (
        "sv",
        StateVectorSimulationState,
        born.compute_probability_state_vector,
        "serial",
        BOTH_APPLY_OPS,
    ),
    (
        "sv_batched",
        StateVectorSimulationState,
        born.compute_probability_state_vector,
        "batched",
        BOTH_APPLY_OPS[:1],
    ),
    ("mps", MPSState, born.compute_probability_mps, "serial", BOTH_APPLY_OPS),
]
DENSE_CHANNELS = [
    ("pauli", channels.depolarize(0.3)),
    ("mixed_unitary", HadamardMixture(0.3)),
    ("amplitude_damp", channels.amplitude_damp(0.5)),
    ("phase_damp", channels.phase_damp(0.5)),
]

STABILIZER_BACKENDS = [
    (
        "ch_form-pauli_noise",
        StabilizerChFormSimulationState,
        born.compute_probability_stabilizer_state,
        act_on_with_pauli_noise,
    ),
    (
        "tableau-pauli_noise",
        CliffordTableauSimulationState,
        born.compute_probability_tableau,
        act_on_with_pauli_noise,
    ),
    (
        "ch_form-near_clifford_noise",
        StabilizerChFormSimulationState,
        born.compute_probability_stabilizer_state,
        act_on_near_clifford_with_pauli_noise,
    ),
]
PAULI_CHANNELS = [
    ("depolarize", channels.depolarize(0.3)),
    ("bit_flip", channels.bit_flip(0.3)),
    ("phase_flip", channels.phase_flip(0.3)),
]
REPS = 1000

CELLS = [
    pytest.param(
        make_state, prob_fn, apply_op, mode, channel,
        id=f"{backend}-{op_name}-{channel_name}",
    )
    for backend, make_state, prob_fn, mode, apply_ops in DENSE_BACKENDS
    for op_name, apply_op in apply_ops
    for channel_name, channel in DENSE_CHANNELS
] + [
    pytest.param(
        make_state, prob_fn, apply_op, "serial", channel,
        id=f"{backend}-{channel_name}",
    )
    for backend, make_state, prob_fn, apply_op in STABILIZER_BACKENDS
    for channel_name, channel in PAULI_CHANNELS
]


@pytest.mark.parametrize("make_state,prob_fn,apply_op,mode,channel", CELLS)
def test_cell_matches_density_matrix(make_state, prob_fn, apply_op, mode, channel):
    circuit = bell_channel_circuit(channel)
    sim = bgls.Simulator(
        make_state(QUBITS), apply_op, prob_fn, seed=SEED, trajectory_mode=mode
    )
    bits = sim.sample_bitstrings(circuit, repetitions=REPS)
    assert_matches_exact(bits, exact_diagonal(circuit), N, REPS)
