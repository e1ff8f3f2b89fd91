"""Qubit routing: SWAP insertion for connectivity-constrained devices.

Real devices (and nearest-neighbor-friendly representations like MPS)
only offer two-qubit gates between adjacent qubits.  ``route_circuit``
rewrites an all-to-all circuit for a target :class:`Topology` by tracking
a logical-to-physical mapping and inserting SWAPs along shortest paths —
the classic greedy router.

Correctness contract: simulating the routed circuit and permuting the
qubit axes by the returned final mapping reproduces the original
circuit's state exactly (tested property).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..circuits import gates
from ..circuits.circuit import Circuit
from ..circuits.operations import GateOperation
from ..circuits.qubits import GridQubit, LineQubit, Qid

if TYPE_CHECKING:  # imported on use, to keep `import repro` light
    import networkx as nx


class Topology:
    """A device connectivity graph over physical qubits."""

    def __init__(self, graph: nx.Graph):
        if graph.number_of_nodes() == 0:
            raise ValueError("Topology needs at least one qubit")
        import networkx as nx

        if not nx.is_connected(graph):
            raise ValueError("Topology graph must be connected")
        self.graph = graph
        self.qubits: Tuple[Qid, ...] = tuple(sorted(graph.nodes(), key=repr))

    @classmethod
    def line(cls, n: int) -> "Topology":
        """A 1-D chain of ``LineQubit``s — the MPS-native layout."""
        import networkx as nx

        graph = nx.Graph()
        qubits = LineQubit.range(n)
        graph.add_nodes_from(qubits)
        graph.add_edges_from(zip(qubits, qubits[1:]))
        return cls(graph)

    @classmethod
    def ring(cls, n: int) -> "Topology":
        """A closed chain."""
        if n < 3:
            raise ValueError("A ring needs at least 3 qubits")
        topo = cls.line(n)
        qubits = LineQubit.range(n)
        topo.graph.add_edge(qubits[-1], qubits[0])
        return cls(topo.graph)

    @classmethod
    def grid(cls, rows: int, cols: int) -> "Topology":
        """A 2-D grid of ``GridQubit``s — the superconducting-chip layout."""
        import networkx as nx

        graph = nx.Graph()
        for r in range(rows):
            for c in range(cols):
                graph.add_node(GridQubit(r, c))
                if c > 0:
                    graph.add_edge(GridQubit(r, c - 1), GridQubit(r, c))
                if r > 0:
                    graph.add_edge(GridQubit(r - 1, c), GridQubit(r, c))
        return cls(graph)

    def are_adjacent(self, a: Qid, b: Qid) -> bool:
        """Whether a two-qubit gate may act directly on (a, b)."""
        return self.graph.has_edge(a, b)

    def shortest_path(self, a: Qid, b: Qid) -> List[Qid]:
        """A shortest physical path from a to b (inclusive)."""
        import networkx as nx

        return nx.shortest_path(self.graph, a, b)

    def __repr__(self) -> str:
        return (
            f"Topology(num_qubits={len(self.qubits)}, "
            f"num_edges={self.graph.number_of_edges()})"
        )


def is_routed(circuit: Circuit, topology: Topology) -> bool:
    """Whether every multi-qubit op acts on adjacent physical qubits."""
    nodes = set(topology.qubits)
    for op in circuit.all_operations():
        if any(q not in nodes for q in op.qubits):
            return False
        if len(op.qubits) == 2 and not op.is_measurement:
            if not topology.are_adjacent(*op.qubits):
                return False
        if len(op.qubits) > 2 and not op.is_measurement:
            return False
    return True


class RoutedCircuit:
    """Routing output: the rewritten circuit plus the qubit maps.

    Attributes:
        circuit: The routed circuit over physical qubits.
        initial_mapping: logical -> physical placement at circuit start.
        final_mapping: logical -> physical placement after all SWAPs;
            measurement records of logical qubit ``l`` live on physical
            qubit ``final_mapping[l]`` only for *terminal* measurements —
            mid-circuit ones are remapped at their own moment.
        num_swaps: SWAPs inserted.
    """

    def __init__(
        self,
        circuit: Circuit,
        initial_mapping: Dict[Qid, Qid],
        final_mapping: Dict[Qid, Qid],
        num_swaps: int,
    ):
        self.circuit = circuit
        self.initial_mapping = dict(initial_mapping)
        self.final_mapping = dict(final_mapping)
        self.num_swaps = int(num_swaps)

    def __repr__(self) -> str:
        return (
            f"RoutedCircuit(num_swaps={self.num_swaps}, "
            f"num_ops={self.circuit.num_operations()})"
        )


def route_circuit(
    circuit: Circuit,
    topology: Topology,
    initial_mapping: Optional[Dict[Qid, Qid]] = None,
) -> RoutedCircuit:
    """Greedy shortest-path router.

    Walks the circuit in order keeping a logical->physical map.  A
    two-qubit gate on non-adjacent physical qubits triggers SWAPs that
    walk the first operand along the shortest path until adjacent; the
    map is updated accordingly.  Single-qubit gates and measurements are
    remapped directly.

    Args:
        circuit: Logical circuit (1q/2q gates + measurements; decompose
            larger gates first with ``DecomposeMultiQubitGates``).
        topology: Target connectivity.
        initial_mapping: Optional placement; defaults to logical qubits in
            sorted order onto ``topology.qubits`` in sorted order.

    Raises:
        ValueError: If the circuit needs more qubits than the topology
            has, contains >2-qubit non-measurement gates, or the given
            placement is not a bijection into the topology.
    """
    logical = circuit.all_qubits()
    if len(logical) > len(topology.qubits):
        raise ValueError(
            f"Circuit uses {len(logical)} qubits but the topology has "
            f"only {len(topology.qubits)}"
        )
    if initial_mapping is None:
        initial_mapping = dict(zip(logical, topology.qubits))
    else:
        targets = list(initial_mapping.values())
        if len(set(targets)) != len(targets) or any(
            p not in set(topology.qubits) for p in targets
        ):
            raise ValueError("initial_mapping must inject into the topology")
        missing = [q for q in logical if q not in initial_mapping]
        if missing:
            raise ValueError(f"initial_mapping misses qubits: {missing}")

    to_physical = dict(initial_mapping)
    occupant: Dict[Qid, Qid] = {p: l for l, p in to_physical.items()}
    out_ops: List[GateOperation] = []
    num_swaps = 0

    def swap_physical(pa: Qid, pb: Qid) -> None:
        nonlocal num_swaps
        out_ops.append(gates.SWAP.on(pa, pb))
        num_swaps += 1
        la, lb = occupant.get(pa), occupant.get(pb)
        if la is not None:
            to_physical[la] = pb
        if lb is not None:
            to_physical[lb] = pa
        occupant[pa], occupant[pb] = lb, la

    for op in circuit.all_operations():
        if len(op.qubits) > 2 and not op.is_measurement:
            raise ValueError(
                f"Route 1q/2q circuits only; decompose {op!r} first"
            )
        if len(op.qubits) == 2 and not op.is_measurement:
            la, lb = op.qubits
            pa, pb = to_physical[la], to_physical[lb]
            if not topology.are_adjacent(pa, pb):
                path = topology.shortest_path(pa, pb)
                # Walk la's occupant down the path until adjacent to pb.
                for step in path[1:-1]:
                    swap_physical(to_physical[la], step)
            out_ops.append(
                op.with_qubits(to_physical[la], to_physical[lb])
            )
        else:
            out_ops.append(
                op.with_qubits(*(to_physical[q] for q in op.qubits))
            )

    routed = Circuit()
    routed.append(out_ops)
    return RoutedCircuit(routed, initial_mapping, dict(to_physical), num_swaps)
