"""Noisy Clifford simulation: Pauli channels as stochastic Pauli gates.

Stabilizer states cannot apply general Kraus channels, but *Pauli*
channels (bit flip, phase flip, depolarizing) are classical mixtures of
Pauli unitaries — so a trajectory can draw one Pauli per channel
application and stay inside the stabilizer formalism.  This is the
standard trick behind scalable noisy-Clifford simulation (e.g. error-
correction studies), and it plugs straight into the BGLS trajectory mode
(paper Sec. 3.2.1).

Works with every :class:`~repro.states.base.StabilizerSimulationState`
(the CH form and the tableau): the sampled Pauli goes straight to the
state's ``engine``.  Other states (dense, MPS) take it through
``apply_unitary``.  Composes with
:func:`~repro.sampler.act_on_near_clifford` for noisy Clifford+Rz
circuits via :func:`act_on_near_clifford_with_pauli_noise`.

Both apply_ops own :class:`~repro.circuits.channels.PauliChannel` and
nothing else: any other channel compiles to a record the Simulator
branches (dense and MPS states) or rejects (stabilizer states).
"""

from __future__ import annotations

import numpy as np

from ..circuits.channels import PAULIS, PauliChannel
from ..circuits.operations import GateOperation
from ..protocols.act_on import act_on
from ..states.base import StabilizerSimulationState
from .near_clifford import act_on_near_clifford


def _apply_sampled_pauli(state, axis: int, name: str) -> None:
    if name == "I":
        return
    if not isinstance(state, StabilizerSimulationState):
        # Non-stabilizer states (dense, MPS) take the generic unitary path,
        # so the same apply_op works across every backend.
        state.apply_unitary(PAULIS[name], [axis])
        return
    getattr(state.engine, f"apply_{name.lower()}")(axis)


def _try_pauli_channel(op: GateOperation, state) -> bool:
    """Apply ``op`` as a sampled Pauli if it is a Pauli channel."""
    gate = getattr(op, "gate", None)
    if not isinstance(gate, PauliChannel):
        return False
    mixture = gate._pauli_mixture_()
    probs = np.asarray([w for w, _ in mixture])
    choice = int(state.rng.choice(len(mixture), p=probs / probs.sum()))
    axis = state.axes_of(op.qubits)[0]
    _apply_sampled_pauli(state, axis, mixture[choice][1])
    return True


def act_on_with_pauli_noise(op: GateOperation, state) -> None:
    """``act_on`` that additionally accepts Pauli channels on stabilizer
    states (sampling one Pauli per application)."""
    if _try_pauli_channel(op, state):
        return
    act_on(op, state)


def act_on_near_clifford_with_pauli_noise(op: GateOperation, state) -> None:
    """Sum-over-Cliffords gate application plus Pauli-channel sampling.

    The full noisy near-Clifford stack: Clifford gates exact, Rz gates
    expanded stochastically (Sec. 4.2), Pauli channels sampled.
    """
    if _try_pauli_channel(op, state):
        return
    act_on_near_clifford(op, state)


# Stochastic gate application: the Simulator must run per-shot
# trajectories, not the shared-wavefunction dict parallelization.  Pauli
# channels are owned here: each branch is a unitary Pauli, so no bitstring
# conditioning is required.
for _noisy in (act_on_with_pauli_noise, act_on_near_clifford_with_pauli_noise):
    _noisy._bgls_stochastic_ = True  # type: ignore[attr-defined]
    _noisy._bgls_owns_channel_ = PauliChannel  # type: ignore[attr-defined]
