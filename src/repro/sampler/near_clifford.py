"""Sum-over-Cliffords gate application (paper Sec. 4.2).

Any diagonal rotation ``R(theta) = exp(-i Z theta / 2)`` decomposes exactly
into Clifford terms (Bravyi et al. 2019):

    R(theta) = (cos(theta/2) - sin(theta/2)) I
             + sqrt(2) exp(-i pi/4) sin(theta/2) S

``act_on_near_clifford`` applies Clifford gates exactly and, for each
``Rz``-like gate (incl. T = R(pi/4)), substitutes I or S stochastically
with probability proportional to the magnitude of its coefficient.  A
single trajectory therefore explores one of the ``2^{#R}`` branches, which
is why the sampler must rerun per repetition and why the attained overlap
lags for non-Clifford circuits (Figs. 4-5).
"""

from __future__ import annotations

import math
from typing import Tuple


from ..circuits.gates import ZPowGate
from ..circuits.operations import GateOperation
from ..protocols.stabilizer import has_stabilizer_effect, stabilizer_sequence
from ..states.stabilizer import StabilizerChFormSimulationState


def rotation_branch_weights(theta: float) -> Tuple[float, float]:
    """(|c_I|, |c_S|) for the sum-over-Cliffords split of R(theta)."""
    c_i = abs(math.cos(theta / 2.0) - math.sin(theta / 2.0))
    c_s = abs(math.sqrt(2.0) * math.sin(theta / 2.0))
    return c_i, c_s


def stabilizer_extent_rz(theta: float) -> float:
    """Stabilizer extent ``zeta`` of R(theta): squared 1-norm of the ideal
    decomposition — the paper's heuristic for "how non-Clifford" a gate is."""
    c_i, c_s = rotation_branch_weights(theta)
    return (c_i + c_s) ** 2


def count_non_clifford_gates(circuit) -> int:
    """Number of operations sum-over-Cliffords must expand stochastically."""
    count = 0
    for op in circuit.all_operations():
        if op.is_measurement:
            continue
        if op._stabilizer_sequence_() is None:
            count += 1
    return count


def stabilizer_extent_circuit(circuit) -> float:
    """Multiplicative stabilizer-extent estimate of a Clifford+Rz circuit.

    The extent is multiplicative over tensor products and submultiplicative
    over composition, so the product of per-gate extents upper-bounds the
    circuit extent (Bravyi et al. 2019).  It governs the sampling overhead
    of sum-over-Cliffords: ~``zeta`` trajectories are needed per effective
    sample.  Raises for gates that are neither Clifford nor ZPowGate.
    """
    total = 1.0
    for op in circuit.all_operations():
        if op.is_measurement or op._stabilizer_sequence_() is not None:
            continue
        gate = op.gate
        if isinstance(gate, ZPowGate) and not gate._is_parameterized_():
            total *= stabilizer_extent_rz(float(gate.exponent) * math.pi)
            continue
        raise ValueError(
            f"No extent formula for non-Clifford operation {op!r}; "
            "only ZPowGate rotations are supported."
        )
    return total


def _needs_ch_form(state) -> ValueError:
    return ValueError(
        f"Sum-over-Cliffords cannot run on {type(state).__name__}; use "
        "StabilizerChFormSimulationState with act_on_near_clifford."
    )


def act_on_near_clifford(
    op: GateOperation, state: StabilizerChFormSimulationState
) -> None:
    """Apply ``op`` to a stabilizer state, expanding Rz gates stochastically.

    Clifford operations (checked via :func:`has_stabilizer_effect`) apply
    exactly; ``ZPowGate`` rotations choose I or S following the relative
    coefficient magnitudes; anything else raises ``ValueError``, as does a
    state other than the CH form (the tableau runs Clifford gates only).
    """
    if not hasattr(state, "apply_stabilizer_sequence"):
        raise _needs_ch_form(state)
    if op.is_measurement:
        state.measure(state.axes_of(op.qubits))
        return
    seq = stabilizer_sequence(op)
    if seq is not None:
        state.apply_stabilizer_sequence(seq, state.axes_of(op.qubits))
        return
    gate = op.gate
    if isinstance(gate, ZPowGate) and not gate._is_parameterized_():
        theta = float(gate.exponent) * math.pi  # R(theta) up to global phase
        c_i, c_s = rotation_branch_weights(theta)
        total = c_i + c_s
        axis = state.axes_of(op.qubits)[0]
        ch_form = getattr(state, "ch_form", None)
        if ch_form is None:
            raise _needs_ch_form(state)
        if state.rng.random() < c_s / total:
            ch_form.apply_s(axis)
        # I branch: nothing to apply.
        return
    if has_stabilizer_effect(op):
        raise ValueError(
            f"{op!r} is Clifford but provides no stabilizer decomposition; "
            "express it through H/S/CNOT-family gates."
        )
    raise ValueError(
        f"Cannot apply non-Clifford operation {op!r}; only Clifford gates "
        "and Rz(theta)/ZPowGate rotations are supported."
    )


# The Simulator checks this flag: stochastic gate application means samples
# cannot share a wavefunction, so the dict parallelization is disabled.
act_on_near_clifford._bgls_stochastic_ = True  # type: ignore[attr-defined]
