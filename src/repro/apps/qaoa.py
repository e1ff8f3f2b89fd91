"""QAOA for MaxCut (paper Sec. 4.4, Figs. 8-9).

Pipeline exactly as in the paper: a random Erdős–Rényi graph is mapped to
a parameterized QAOA circuit (cost unitaries ``exp(-i gamma Z_i Z_j / 2)``
per edge via CNOT–Rz–CNOT, mixer ``Rx(2 beta)``), a grid sweep over
``(gamma, beta)`` selects the parameters maximizing the average cut of the
sampled bitstrings, and a final, larger run returns the best cut found.

The sampler is pluggable: the paper runs this with the BGLS simulator over
an MPS state with bounded bond dimension (wide, sparse graphs => low
entanglement), which :func:`solve_maxcut` reproduces by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits import (
    CNOT,
    Circuit,
    H,
    LineQubit,
    ParamResolver,
    Qid,
    Rx,
    Rz,
    Symbol,
    measure,
)
from .sampling import sample_bits as _sample_bits

if TYPE_CHECKING:  # imported on use, to keep `import repro` light
    import networkx as nx

SamplerFn = Callable[[Circuit, int], np.ndarray]
"""A function ``(resolved_circuit, repetitions) -> (reps, n) bit array``.

Everywhere a ``SamplerFn`` is accepted, a
:class:`repro.sampler.Simulator` works too: sweeps then go through its
``sample_bitstrings_sweep`` API, which compiles the parameterized
template once and re-specializes only the resolver-dependent gates per
grid point (memoized per resolved parameter tuple, so refinement passes
revisiting a point skip even that) instead of recompiling the whole
circuit per point.  A Simulator carrying a
:class:`repro.sampler.ProcessPoolExecutor` additionally fans whole grid
points across its warm process pool: the workers are initialized once
for the template and reused across every sweep and refinement call,
bit-for-bit identical to the serial sweep.
"""


def random_graph(
    num_nodes: int,
    edge_probability: float = 0.3,
    random_state: Union[int, np.random.Generator, None] = None,
) -> nx.Graph:
    """Erdős–Rényi G(n, p) graph (paper: n=10, p=0.3), guaranteed non-empty."""
    import networkx as nx

    rng = (
        random_state
        if isinstance(random_state, np.random.Generator)
        else np.random.default_rng(random_state)
    )
    while True:
        seed = int(rng.integers(2**31))
        graph = nx.erdos_renyi_graph(num_nodes, edge_probability, seed=seed)
        if graph.number_of_edges() > 0:
            return graph


def qaoa_maxcut_circuit(
    graph: nx.Graph,
    gamma: Union[float, Symbol],
    beta: Union[float, Symbol],
    layers: int = 1,
    qubits: Optional[Sequence[Qid]] = None,
    measure_key: Optional[str] = "z",
) -> Circuit:
    """The p-layer QAOA circuit for MaxCut on ``graph``.

    Args:
        graph: Nodes must be 0..n-1 (networkx default).
        gamma, beta: Cost/mixer angles — floats or symbols for sweeps.
        layers: Number of (cost, mixer) repetitions p.
        qubits: Defaults to ``LineQubit.range(n)`` in node order.
        measure_key: Terminal measurement key (None to omit).
    """
    nodes = sorted(graph.nodes())
    if qubits is None:
        qubits = LineQubit.range(len(nodes))
    index = {node: qubits[i] for i, node in enumerate(nodes)}

    circuit = Circuit(H.on(q) for q in qubits)
    for _ in range(layers):
        for u, v in graph.edges():
            qu, qv = index[u], index[v]
            # exp(-i gamma Z_u Z_v / 2) up to phase: CNOT . Rz(gamma) . CNOT
            circuit.append(CNOT.on(qu, qv))
            circuit.append(Rz(gamma).on(qv))
            circuit.append(CNOT.on(qu, qv))
        for q in qubits:
            circuit.append(Rx(beta).on(q))
    if measure_key is not None:
        circuit.append(measure(*qubits, key=measure_key))
    return circuit


def cut_value(graph: nx.Graph, bits: Sequence[int]) -> int:
    """Number of edges cut by the partition encoded in ``bits``."""
    return int(sum(1 for u, v in graph.edges() if bits[u] != bits[v]))


def average_cut(graph: nx.Graph, samples: np.ndarray) -> float:
    """Mean cut value over sampled bitstrings (the QAOA energy proxy)."""
    return float(np.mean([cut_value(graph, row) for row in np.asarray(samples)]))


@dataclass
class QAOAResult:
    """Outcome of a QAOA MaxCut optimization."""

    best_gamma: float
    best_beta: float
    best_bitstring: Tuple[int, ...]
    best_cut: int
    sweep_gammas: np.ndarray
    sweep_betas: np.ndarray
    sweep_average_cuts: np.ndarray = field(repr=False)

    def partition(self) -> Tuple[List[int], List[int]]:
        """The two node sets of the best cut."""
        left = [i for i, b in enumerate(self.best_bitstring) if b == 0]
        right = [i for i, b in enumerate(self.best_bitstring) if b == 1]
        return left, right


def sweep_parameters(
    graph: nx.Graph,
    sampler: SamplerFn,
    gammas: Sequence[float],
    betas: Sequence[float],
    repetitions: int = 100,
    layers: int = 1,
) -> np.ndarray:
    """Average cut for every (gamma, beta) grid point (paper Fig. 9a).

    Returns an array of shape ``(len(gammas), len(betas))``.

    With a :class:`repro.sampler.Simulator` as ``sampler`` the whole grid
    runs through ``sample_bitstrings_sweep``: the template compiles once
    and every (gamma, beta) point re-specializes just its Rz/Rx records —
    the parameter-scan fast path the Program cache exists for.  If that
    Simulator carries a pooled executor, the grid points themselves fan
    across the warm worker pool (one single-seeded stream per point,
    bit-for-bit identical to the serial sweep), and repeated calls —
    optimizer refinements — reuse the same initialized workers.
    """
    gamma_s, beta_s = Symbol("gamma"), Symbol("beta")
    template = qaoa_maxcut_circuit(graph, gamma_s, beta_s, layers=layers)
    if hasattr(sampler, "sample_bitstrings_sweep"):
        resolvers = [
            ParamResolver({"gamma": float(g), "beta": float(b)})
            for g in gammas
            for b in betas
        ]
        sweeps = sampler.sample_bitstrings_sweep(
            template, resolvers, repetitions=repetitions
        )
        return np.asarray(
            [average_cut(graph, samples) for samples in sweeps]
        ).reshape(len(gammas), len(betas))
    grid = np.empty((len(gammas), len(betas)))
    for i, gamma in enumerate(gammas):
        for j, beta in enumerate(betas):
            resolved = template.resolve_parameters(
                ParamResolver({"gamma": gamma, "beta": beta})
            )
            samples = _sample_bits(sampler, resolved, repetitions)
            grid[i, j] = average_cut(graph, samples)
    return grid


def solve_maxcut(
    graph: nx.Graph,
    sampler: SamplerFn,
    grid_size: int = 10,
    sweep_repetitions: int = 100,
    final_repetitions: int = 400,
    layers: int = 1,
) -> QAOAResult:
    """Full paper pipeline: sweep, pick the best parameters, final run.

    The returned bitstring is the sampled partition maximizing the cut in
    the final run (paper: cut of 9 on its G(10, 0.3) instance).
    """
    gammas = np.linspace(0.0, math.pi, grid_size, endpoint=False)
    betas = np.linspace(0.0, math.pi, grid_size, endpoint=False)
    grid = sweep_parameters(
        graph, sampler, gammas, betas, repetitions=sweep_repetitions, layers=layers
    )
    gi, bj = np.unravel_index(int(np.argmax(grid)), grid.shape)
    best_gamma, best_beta = float(gammas[gi]), float(betas[bj])

    final_circuit = qaoa_maxcut_circuit(graph, best_gamma, best_beta, layers=layers)
    samples = _sample_bits(sampler, final_circuit, final_repetitions)
    cuts = np.asarray([cut_value(graph, row) for row in samples])
    best_row = int(np.argmax(cuts))
    return QAOAResult(
        best_gamma=best_gamma,
        best_beta=best_beta,
        best_bitstring=tuple(int(b) for b in samples[best_row]),
        best_cut=int(cuts[best_row]),
        sweep_gammas=gammas,
        sweep_betas=betas,
        sweep_average_cuts=grid,
    )


def brute_force_maxcut(graph: nx.Graph) -> Tuple[int, Tuple[int, ...]]:
    """Exact MaxCut by enumeration (exponential; verification only)."""
    n = graph.number_of_nodes()
    best = (-1, (0,) * n)
    for mask in range(2 ** (n - 1)):  # fix node 0 in set 0 (symmetry)
        bits = tuple((mask >> (n - 1 - i)) & 1 if i > 0 else 0 for i in range(n))
        value = cut_value(graph, bits)
        if value > best[0]:
            best = (value, bits)
    return best
