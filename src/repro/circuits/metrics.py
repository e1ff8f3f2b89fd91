"""Circuit resource metrics: gate counts, depths, entanglement structure.

The quantities that predict BGLS sampling cost before running anything:
two-qubit gate count (bond growth for MPS), T count (branch count for
sum-over-Cliffords), per-qubit depth (trajectory length), and the
interaction graph (routing/contraction structure).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict

from .circuit import Circuit
from .qubits import Qid

if TYPE_CHECKING:  # imported on use, to keep `import repro` light
    import networkx as nx


@dataclass
class CircuitMetrics:
    """Aggregate resource summary of a circuit."""

    num_qubits: int
    num_operations: int
    num_moments: int
    num_measurements: int
    num_channels: int
    one_qubit_gates: int
    two_qubit_gates: int
    multi_qubit_gates: int
    gate_histogram: Dict[str, int] = field(repr=False)
    qubit_depths: Dict[Qid, int] = field(repr=False)

    @property
    def max_qubit_depth(self) -> int:
        """Longest per-qubit operation chain (trajectory length bound)."""
        return max(self.qubit_depths.values(), default=0)

    @property
    def parallelism(self) -> float:
        """Average operations per moment (1.0 = fully serial)."""
        if self.num_moments == 0:
            return 0.0
        return self.num_operations / self.num_moments


def compute_metrics(circuit: Circuit) -> CircuitMetrics:
    """Walk the circuit once and collect every resource counter."""
    histogram: Counter = Counter()
    depths: Dict[Qid, int] = {q: 0 for q in circuit.all_qubits()}
    one_q = two_q = multi_q = measurements = channels_count = 0

    for op in circuit.all_operations():
        label = type(op.gate).__name__
        histogram[label] += 1
        for q in op.qubits:
            depths[q] += 1
        if op.is_measurement:
            measurements += 1
            continue
        if op._unitary_() is None and op._kraus_() is not None:
            channels_count += 1
            continue  # channels are tallied separately from gates
        arity = len(op.qubits)
        if arity == 1:
            one_q += 1
        elif arity == 2:
            two_q += 1
        else:
            multi_q += 1

    return CircuitMetrics(
        num_qubits=len(depths),
        num_operations=circuit.num_operations(),
        num_moments=len(circuit.moments),
        num_measurements=measurements,
        num_channels=channels_count,
        one_qubit_gates=one_q,
        two_qubit_gates=two_q,
        multi_qubit_gates=multi_q,
        gate_histogram=dict(histogram),
        qubit_depths=depths,
    )


def interaction_graph(circuit: Circuit) -> nx.Graph:
    """Graph over qubits with an edge per interacting pair.

    Edge weight = number of multi-qubit operations coupling the pair.
    Its connectivity predicts MPS bond structure and routing cost.
    """
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(circuit.all_qubits())
    for op in circuit.all_operations():
        if op.is_measurement or len(op.qubits) < 2:
            continue
        qs = op.qubits
        for i in range(len(qs)):
            for j in range(i + 1, len(qs)):
                if graph.has_edge(qs[i], qs[j]):
                    graph[qs[i]][qs[j]]["weight"] += 1
                else:
                    graph.add_edge(qs[i], qs[j], weight=1)
    return graph


def entangling_depth(circuit: Circuit) -> int:
    """Number of moments containing at least one multi-qubit gate.

    The quantity the paper's Fig. 7 argument turns on: entanglement (and
    with it MPS cost) grows with entangling depth, not raw depth.
    """
    count = 0
    for moment in circuit.moments:
        if any(
            len(op.qubits) >= 2 and not op.is_measurement
            for op in moment.operations
        ):
            count += 1
    return count


def summarize(circuit: Circuit) -> str:
    """Human-readable one-paragraph resource summary."""
    m = compute_metrics(circuit)
    graph = interaction_graph(circuit)
    lines = [
        f"qubits={m.num_qubits} ops={m.num_operations} "
        f"moments={m.num_moments} (parallelism {m.parallelism:.2f})",
        f"1q={m.one_qubit_gates} 2q={m.two_qubit_gates} "
        f"3q+={m.multi_qubit_gates} meas={m.num_measurements} "
        f"channels={m.num_channels}",
        f"entangling_depth={entangling_depth(circuit)} "
        f"max_qubit_depth={m.max_qubit_depth} "
        f"interaction_edges={graph.number_of_edges()}",
        "gates: "
        + ", ".join(
            f"{name}x{count}"
            for name, count in sorted(m.gate_histogram.items())
        ),
    ]
    return "\n".join(lines)
