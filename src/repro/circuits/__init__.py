"""Circuit substrate: qubits, gates, channels, moments, circuits, interop.

This subpackage is the from-scratch replacement for the slice of Cirq the
reference BGLS package builds upon.
"""

from .qubits import (
    GridQubit,
    LineQubit,
    NamedQubit,
    Qid,
    qubit_index_map,
    sorted_qubits,
)
from .parameters import ParamResolver, Symbol, is_parameterized
from .gates import (
    CCX,
    CCZ,
    CNOT,
    CSWAP,
    CX,
    CZ,
    FREDKIN,
    H,
    I,
    ISWAP,
    S,
    S_DAG,
    SWAP,
    T,
    T_DAG,
    TOFFOLI,
    X,
    Y,
    Z,
    CCXPowGate,
    CCZPowGate,
    ControlledGate,
    CSwapGate,
    CXPowGate,
    CZPowGate,
    EigenGate,
    Gate,
    HPowGate,
    IdentityGate,
    ISwapPowGate,
    MatrixGate,
    MeasurementGate,
    PhasedXPowGate,
    Rx,
    Ry,
    Rz,
    SwapPowGate,
    XPowGate,
    YPowGate,
    ZPowGate,
    measure,
    rx,
    ry,
    rz,
)
from .channels import (
    AmplitudeDampingChannel,
    BitFlipChannel,
    DepolarizingChannel,
    KrausChannel,
    PauliChannel,
    PhaseDampingChannel,
    PhaseFlipChannel,
    amplitude_damp,
    bit_flip,
    depolarize,
    phase_damp,
    phase_flip,
)
from .operations import GateOperation
from .moment import Moment
from .circuit import Circuit
from .diagram import circuit_diagram
from .random_circuits import (
    CLIFFORD_GATE_DOMAIN,
    DEFAULT_GATE_DOMAIN,
    count_gate,
    generate_random_circuit,
    random_clifford_circuit,
    random_clifford_t_circuit,
    substitute_clifford_with_t,
    substitute_gate,
)
from .optimize import (
    drop_empty_moments,
    merge_single_qubit_gates,
    optimize_for_bgls,
)
from .qasm import QasmError, circuit_from_qasm, circuit_to_qasm
from .paulis import PauliString, PauliSum, pauli_string_from_text
from .metrics import (
    CircuitMetrics,
    compute_metrics,
    entangling_depth,
    interaction_graph,
    summarize,
)

__all__ = [
    # qubits
    "Qid", "LineQubit", "GridQubit", "NamedQubit", "sorted_qubits", "qubit_index_map",
    # parameters
    "Symbol", "ParamResolver", "is_parameterized",
    # gates
    "Gate", "EigenGate", "IdentityGate", "MatrixGate", "ControlledGate",
    "XPowGate", "YPowGate", "ZPowGate", "HPowGate", "PhasedXPowGate",
    "CXPowGate", "CZPowGate",
    "SwapPowGate", "ISwapPowGate", "CCXPowGate", "CCZPowGate", "CSwapGate",
    "MeasurementGate",
    "I", "X", "Y", "Z", "H", "S", "S_DAG", "T", "T_DAG",
    "CX", "CNOT", "CZ", "SWAP", "ISWAP", "CCX", "TOFFOLI", "CCZ", "CSWAP", "FREDKIN",
    "Rx", "Ry", "Rz", "rx", "ry", "rz", "measure",
    # channels
    "KrausChannel", "PauliChannel", "BitFlipChannel", "PhaseFlipChannel", "DepolarizingChannel",
    "AmplitudeDampingChannel", "PhaseDampingChannel",
    "bit_flip", "phase_flip", "depolarize", "amplitude_damp", "phase_damp",
    # pauli algebra
    "PauliString", "PauliSum", "pauli_string_from_text",
    # metrics
    "CircuitMetrics", "compute_metrics", "interaction_graph",
    "entangling_depth", "summarize",
    # structure
    "GateOperation", "Moment", "Circuit", "circuit_diagram",
    # generators
    "DEFAULT_GATE_DOMAIN", "CLIFFORD_GATE_DOMAIN", "generate_random_circuit",
    "random_clifford_circuit", "random_clifford_t_circuit",
    "substitute_gate", "substitute_clifford_with_t", "count_gate",
    # optimization
    "optimize_for_bgls", "merge_single_qubit_gates", "drop_empty_moments",
    # qasm
    "circuit_from_qasm", "circuit_to_qasm", "QasmError",
]
