"""Simulation states: the quantum-state representations BGLS samples from."""

from . import registry
from .base import SimulationState, bits_to_index, index_to_bits
from .registry import (
    BackendCapabilities,
    capabilities_for,
    register_backend,
    registered_backends,
    unregister_backend,
)
from .state_vector import StateVectorSimulationState
from .density_matrix import DensityMatrixSimulationState
from .chform import StabilizerChForm
from .stabilizer import StabilizerChFormSimulationState
from .tableau import CliffordTableau, CliffordTableauSimulationState

__all__ = [
    "registry",
    "BackendCapabilities",
    "capabilities_for",
    "register_backend",
    "registered_backends",
    "unregister_backend",
    "SimulationState",
    "StateVectorSimulationState",
    "DensityMatrixSimulationState",
    "StabilizerChForm",
    "StabilizerChFormSimulationState",
    "CliffordTableau",
    "CliffordTableauSimulationState",
    "bits_to_index",
    "index_to_bits",
]
