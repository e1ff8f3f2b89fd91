"""Simulation-state wrapper around the CH-form stabilizer engine.

``StabilizerChFormSimulationState`` adapts :class:`StabilizerChForm` to the
``act_on`` protocol: operations are applied through their
``_stabilizer_sequence_`` decomposition into CH primitives.  Non-Clifford
operations raise ``ValueError`` — exactly like Cirq's stabilizer simulator —
unless routed through :func:`repro.sampler.act_on_near_clifford`, which
expands ``Rz(theta)`` gates stochastically (paper Sec. 4.2).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

from ..circuits.operations import GateOperation
from ..circuits.qubits import Qid
from .base import SimulationState
from .chform import StabilizerChForm


class StabilizerChFormSimulationState(SimulationState):
    """CH-form stabilizer simulation state bound to a qubit register."""

    def __init__(
        self,
        qubits: Sequence[Qid],
        initial_state: int = 0,
        seed: Union[int, np.random.Generator, None] = None,
    ):
        super().__init__(qubits, seed)
        self.ch_form = StabilizerChForm(len(self.qubits), initial_state)

    # -- act_on ------------------------------------------------------------
    def _act_on_(self, op: GateOperation) -> None:
        axes = self.axes_of(op.qubits)
        if op.is_measurement:
            self.measure(axes)
            return
        seq = op._stabilizer_sequence_()
        if seq is None:
            raise ValueError(
                f"Operation {op!r} is not a Clifford primitive; use "
                "act_on_near_clifford for Clifford+Rz circuits."
            )
        self.apply_stabilizer_sequence(seq, axes)

    def apply_stabilizer_sequence(self, seq, axes: Sequence[int]) -> None:
        """Apply a ``(phase, [(primitive, local_axes)])`` decomposition."""
        self.ch_form.apply_stabilizer_sequence(seq, axes)

    def apply_single_qubit_moment(
        self, seqs: Sequence, axes: Sequence[int]
    ) -> None:
        """Apply one single-qubit Clifford gate per (disjoint) axis."""
        self.ch_form.apply_single_qubit_moment(seqs, axes)

    # -- SimulationState interface -------------------------------------------
    def apply_unitary(self, u: np.ndarray, axes: Sequence[int]) -> None:
        raise ValueError(
            "StabilizerChFormSimulationState cannot apply raw unitaries; "
            "gates must provide a stabilizer decomposition."
        )

    def measure(self, axes: Sequence[int]) -> List[int]:
        return [self.ch_form.measure(axis, self._rng) for axis in axes]

    def project(self, axes: Sequence[int], bits: Sequence[int]) -> None:
        """Collapse ``axes`` onto known outcome ``bits``."""
        for axis, bit in zip(axes, bits):
            self.ch_form.project_measurement(axis, int(bit))

    # -- queries -----------------------------------------------------------------
    def probability_of(self, bits: Sequence[int]) -> float:
        """Born probability of a full bitstring (O(n^2), depth-free)."""
        return self.ch_form.probability_of(bits)

    def candidate_probabilities_many(
        self, bits_list: Sequence[Sequence[int]], support: Sequence[int]
    ) -> np.ndarray:
        """Candidate probabilities for many tracked bitstrings at once."""
        return self.ch_form.candidate_probabilities_many(bits_list, support)

    def state_vector(self) -> np.ndarray:
        """Dense wavefunction (exponential; testing only)."""
        return self.ch_form.state_vector()

    def copy(self, seed=None) -> "StabilizerChFormSimulationState":
        out = type(self).__new__(type(self))  # preserve subclasses
        SimulationState.__init__(out, self.qubits, seed)
        out.ch_form = self.ch_form.copy()
        return out

    def __repr__(self) -> str:
        return (
            f"StabilizerChFormSimulationState(num_qubits={self.num_qubits})"
        )


def snapshot_chform_state(state: StabilizerChFormSimulationState) -> Tuple:
    """Registry ``snapshot`` hook: the CH form as raw ``uint64`` words.

    ``("stabilizer_ch_form", qubits, n, F, G, M, gamma, v, s, omega)``
    with the binary matrices as plain bytes — smaller than pickling the
    state object and directly ``==``-comparable, so the warm pool can key
    worker initialization on the payload content.  Restored states get a
    fresh RNG (the sampler re-seeds every copy it takes).
    """
    return ("stabilizer_ch_form", tuple(state.qubits)) + state.ch_form.to_words()


def restore_chform_state(payload: Tuple) -> StabilizerChFormSimulationState:
    """Registry ``restore`` hook, inverse of :func:`snapshot_chform_state`."""
    tag, qubits = payload[0], payload[1]
    if tag != "stabilizer_ch_form":  # pragma: no cover - defensive
        raise ValueError(f"Not a CH-form snapshot payload: {tag!r}")
    state = StabilizerChFormSimulationState.__new__(
        StabilizerChFormSimulationState
    )
    SimulationState.__init__(state, qubits, None)
    state.ch_form = StabilizerChForm.from_words(*payload[2:])
    return state
