"""Circuit compilation: decompositions, rewriting passes, light-cone pruning.

This package generalizes the paper's single optimization hook
(``optimize_for_bgls``, Sec. 3.2.2) into a small compiler:

* :mod:`~repro.transpile.euler` — ZYZ angles for any 1-qubit unitary.
* :mod:`~repro.transpile.multiplexor` — uniformly-controlled Ry/Rz.
* :mod:`~repro.transpile.qsd` — quantum Shannon decomposition of arbitrary
  unitaries into {Rz, Ry, CNOT}.
* :mod:`~repro.transpile.clifford_t` — exact Toffoli/Fredkin/CCZ/SWAP/ISWAP
  identities and the T-count metric.
* :mod:`~repro.transpile.light_cone` — causal-cone reduction for sampling.
* :mod:`~repro.transpile.passes` — the pass framework and default pipeline.
"""

from .clifford_t import (
    decompose_ccz,
    decompose_cswap,
    decompose_iswap,
    decompose_swap,
    decompose_toffoli,
    t_count,
)
from .euler import decompose_single_qubit, zyz_angles, zyz_matrix
from .light_cone import light_cone_qubits, reduce_to_light_cone
from .multiplexor import multiplexed_rotation, multiplexed_rotation_matrix
from .passes import (
    CancelAdjacentInverses,
    DecomposeMultiQubitGates,
    DropEmptyMoments,
    DropNegligibleGates,
    LightConeReduction,
    MergeRotations,
    MergeSingleQubitGates,
    PassPipeline,
    PassStats,
    TranspilerPass,
    default_pipeline,
    transpile,
)
from .qsd import quantum_shannon_decompose, shannon_circuit
from .routing import RoutedCircuit, Topology, is_routed, route_circuit

__all__ = [
    "Topology",
    "RoutedCircuit",
    "route_circuit",
    "is_routed",
    "zyz_angles",
    "zyz_matrix",
    "decompose_single_qubit",
    "multiplexed_rotation",
    "multiplexed_rotation_matrix",
    "quantum_shannon_decompose",
    "shannon_circuit",
    "decompose_toffoli",
    "decompose_ccz",
    "decompose_cswap",
    "decompose_swap",
    "decompose_iswap",
    "t_count",
    "light_cone_qubits",
    "reduce_to_light_cone",
    "TranspilerPass",
    "MergeSingleQubitGates",
    "MergeRotations",
    "DropEmptyMoments",
    "DropNegligibleGates",
    "CancelAdjacentInverses",
    "LightConeReduction",
    "DecomposeMultiQubitGates",
    "PassStats",
    "PassPipeline",
    "default_pipeline",
    "transpile",
]
