"""Noise channels (Kraus-operator gates).

These make circuits non-unitary; the BGLS simulator then switches to
quantum-trajectory mode (paper Sec. 3.2.1): each repetition stochastically
selects one Kraus branch per channel application, conditioned on its
tracked bitstring, unless the ``apply_op`` owns the channel's class (the
noise apply_ops own :class:`PauliChannel`) or the state is a density
matrix, which applies channels exactly.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from .gates import Gate

_I2 = np.eye(2, dtype=np.complex128)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

#: Single-qubit Pauli name -> matrix.
PAULIS: Dict[str, np.ndarray] = {"I": _I2, "X": _X, "Y": _Y, "Z": _Z}


class KrausChannel(Gate):
    """Base class for single-qubit Kraus channels with fixed operators."""

    def __init__(self, probability: float) -> None:
        p = float(probability)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"Probability must be in [0, 1], got {p}")
        self.probability = p

    def num_qubits(self) -> int:
        return 1

    def _unitary_(self):
        return None

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return other.probability == self.probability

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.probability))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.probability})"


class PauliChannel(KrausChannel):
    """A mixture of Pauli unitaries; the Kraus operators are
    ``sqrt(p) * Pauli`` in :meth:`_pauli_mixture_` order.  Apply_ops that
    sample the Pauli themselves declare ``_bgls_owns_channel_ =
    PauliChannel``."""

    def _pauli_mixture_(self) -> List[Tuple[float, str]]:
        """The channel as ``[(probability, pauli_name)]``."""
        raise NotImplementedError

    def _kraus_(self) -> List[np.ndarray]:
        return [math.sqrt(p) * PAULIS[name] for p, name in self._pauli_mixture_()]


class BitFlipChannel(PauliChannel):
    """Applies X with probability ``p``."""

    def _pauli_mixture_(self) -> List[Tuple[float, str]]:
        p = self.probability
        return [(1.0 - p, "I"), (p, "X")]

    def _diagram_symbols_(self) -> Tuple[str, ...]:
        return (f"BF({self.probability})",)


class PhaseFlipChannel(PauliChannel):
    """Applies Z with probability ``p``."""

    def _pauli_mixture_(self) -> List[Tuple[float, str]]:
        p = self.probability
        return [(1.0 - p, "I"), (p, "Z")]

    def _diagram_symbols_(self) -> Tuple[str, ...]:
        return (f"PF({self.probability})",)


class DepolarizingChannel(PauliChannel):
    """Applies X, Y or Z each with probability ``p/3``."""

    def _pauli_mixture_(self) -> List[Tuple[float, str]]:
        p = self.probability
        return [(1.0 - p, "I"), (p / 3, "X"), (p / 3, "Y"), (p / 3, "Z")]

    def _diagram_symbols_(self) -> Tuple[str, ...]:
        return (f"D({self.probability})",)


class AmplitudeDampingChannel(KrausChannel):
    """T1 decay toward |0> with damping rate ``gamma``."""

    def _kraus_(self) -> List[np.ndarray]:
        g = self.probability
        k0 = np.array([[1, 0], [0, math.sqrt(1 - g)]], dtype=np.complex128)
        k1 = np.array([[0, math.sqrt(g)], [0, 0]], dtype=np.complex128)
        return [k0, k1]

    def _diagram_symbols_(self) -> Tuple[str, ...]:
        return (f"AD({self.probability})",)


class PhaseDampingChannel(KrausChannel):
    """Pure dephasing with rate ``gamma``."""

    def _kraus_(self) -> List[np.ndarray]:
        g = self.probability
        k0 = np.array([[1, 0], [0, math.sqrt(1 - g)]], dtype=np.complex128)
        k1 = np.array([[0, 0], [0, math.sqrt(g)]], dtype=np.complex128)
        return [k0, k1]

    def _diagram_symbols_(self) -> Tuple[str, ...]:
        return (f"PD({self.probability})",)


def bit_flip(p: float) -> BitFlipChannel:
    """Bit-flip channel with flip probability ``p``."""
    return BitFlipChannel(p)


def phase_flip(p: float) -> PhaseFlipChannel:
    """Phase-flip channel with flip probability ``p``."""
    return PhaseFlipChannel(p)


def depolarize(p: float) -> DepolarizingChannel:
    """Depolarizing channel with total error probability ``p``."""
    return DepolarizingChannel(p)


def amplitude_damp(gamma: float) -> AmplitudeDampingChannel:
    """Amplitude-damping channel with decay probability ``gamma``."""
    return AmplitudeDampingChannel(gamma)


def phase_damp(gamma: float) -> PhaseDampingChannel:
    """Phase-damping channel with dephasing probability ``gamma``."""
    return PhaseDampingChannel(gamma)
