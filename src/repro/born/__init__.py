"""Born-rule probability functions (the ``bgls.born`` module).

Each ``compute_probability_*`` has signature ``(state, bitstring) -> float``
and is what users hand to :class:`repro.sampler.Simulator`.  The sampler
itself asks one *candidate oracle* per gate: ``(state, bits_list,
support) -> (B, 2^k)``, the probabilities of all ``2^k`` candidates of
each of ``B`` tracked bitstrings, answered by one vectorized gather or
contraction.  :func:`many_candidate_function_for` maps a scalar function
to its backend's oracle, so the Simulator takes the fast path
automatically.

Dispatch flows through the backend capability registry
(:mod:`repro.states.registry`): importing this module registers the five
shipped backends, binding each scalar function to its backend, whose
candidate oracle is the state's own ``candidate_probabilities_many``.
User backends get identical treatment by calling
:func:`repro.states.registry.register_backend` — there is no privileged
shipped-backend table.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..mps import state as _mps
from ..mps.state import MPSState
from ..states import registry
from ..states import stabilizer as _stabilizer
from ..states import tableau as _tableau
from ..states.density_matrix import DensityMatrixSimulationState
from ..states.stabilizer import StabilizerChFormSimulationState
from ..states.state_vector import StateVectorSimulationState
from ..states.tableau import CliffordTableauSimulationState


def compute_probability_state_vector(
    state: StateVectorSimulationState, bitstring: Sequence[int]
) -> float:
    """|<b|psi>|^2 from a dense state vector."""
    return state.probability_of(bitstring)


def compute_probability_density_matrix(
    state: DensityMatrixSimulationState, bitstring: Sequence[int]
) -> float:
    """<b|rho|b> from a density matrix."""
    return state.probability_of(bitstring)


def compute_probability_stabilizer_state(
    state: StabilizerChFormSimulationState, bitstring: Sequence[int]
) -> float:
    """|<b|psi>|^2 from a CH-form stabilizer state in O(n^2) (Sec. 4.1.3)."""
    return state.probability_of(bitstring)


def compute_probability_tableau(
    state: CliffordTableauSimulationState, bitstring: Sequence[int]
) -> float:
    """|<b|psi>|^2 from an Aaronson-Gottesman tableau in O(n^3).

    The tableau has no native amplitude query; the probability is a chain
    of forced-measurement conditionals on a scratch copy.  Shipped for the
    tableau-vs-CH-form ablation benchmark.
    """
    return state.probability_of(bitstring)


def compute_probability_mps(
    state: MPSState, bitstring: Sequence[int]
) -> float:
    """|<b|psi>|^2 from an MPS by sliced contraction (Sec. 4.3.2)."""
    return state.probability_of(bitstring)


# The paper's code-listing name: the same function object, so it resolves
# to the MPS backend's oracle with no extra registry entry.
mps_bitstring_probability = compute_probability_mps


# Shipped-backend registrations.  Each class says what it can do (its
# candidate oracle and application fast paths); registration adds the
# scalar Born function, the pool snapshot hooks and a display name.
# Every later lookup — the Simulator's candidate resolution, the
# planner's fast-path flags, the pooled executor's snapshots — reads
# these descriptors; there is no other dispatch table.
registry.register_backend(
    StateVectorSimulationState,
    name="state_vector",
    compute_probability=compute_probability_state_vector,
)
registry.register_backend(
    DensityMatrixSimulationState,
    name="density_matrix",
    compute_probability=compute_probability_density_matrix,
)
registry.register_backend(
    StabilizerChFormSimulationState,
    name="stabilizer_ch_form",
    compute_probability=compute_probability_stabilizer_state,
    # Warm-pool workers receive the CH form as raw uint64 words instead
    # of a pickled state object (see the snapshot-hook contract in the
    # README); the payload is also the pool's re-initialization key.
    snapshot=_stabilizer.snapshot_chform_state,
    restore=_stabilizer.restore_chform_state,
)
registry.register_backend(
    CliffordTableauSimulationState,
    name="clifford_tableau",
    compute_probability=compute_probability_tableau,
    snapshot=_tableau.snapshot_tableau_state,
    restore=_tableau.restore_tableau_state,
)
registry.register_backend(
    MPSState,
    name="mps",
    compute_probability=compute_probability_mps,
    # Wide MPS sweeps ship the network as raw tensor bytes + bond
    # metadata instead of a pickled state object (no RNG, no qubit-index
    # dict, no per-tensor ndarray envelopes); the payload doubles as the
    # warm pool's content-comparable re-initialization key.
    snapshot=_mps.snapshot_mps_state,
    restore=_mps.restore_mps_state,
)


def many_candidate_function_for(
    compute_probability: Callable,
) -> Optional[Callable]:
    """The candidate oracle of the backend registered for a scalar function.

    Signature of the returned function:
    ``(state, bits_list, support) -> (len(bits_list), 2^k) ndarray``.
    Returns None for unregistered (user-supplied) probability functions,
    in which case the Simulator loops over ``compute_probability`` per
    candidate (still correct, just not vectorized).
    """
    caps = registry.capabilities_for_probability_fn(compute_probability)
    return caps.candidates_many if caps is not None else None


__all__ = [
    "compute_probability_state_vector",
    "compute_probability_density_matrix",
    "compute_probability_stabilizer_state",
    "compute_probability_tableau",
    "compute_probability_mps",
    "mps_bitstring_probability",
    "many_candidate_function_for",
]
