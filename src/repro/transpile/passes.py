"""Composable circuit-rewriting passes and the :class:`PassPipeline`.

Each pass is a pure ``Circuit -> Circuit`` function object; a
:class:`PassPipeline` chains them.  ``default_pipeline()`` reproduces
``optimize_for_bgls`` (paper Sec. 3.2.2) plus the light-cone reduction.

Every pass preserves the sampling distribution over measurement keys —
that invariant is what the test suite checks for each of them.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from ..circuits import gates
from ..circuits.circuit import Circuit
from ..circuits.operations import GateOperation
from ..circuits.optimize import drop_empty_moments, merge_single_qubit_gates
from .clifford_t import (
    decompose_ccz,
    decompose_cswap,
    decompose_iswap,
    decompose_swap,
    decompose_toffoli,
)
from .light_cone import reduce_to_light_cone
from .qsd import quantum_shannon_decompose


class TranspilerPass(abc.ABC):
    """A circuit-to-circuit rewrite preserving measurement distributions."""

    @abc.abstractmethod
    def __call__(self, circuit: Circuit) -> Circuit:
        """Apply the rewrite."""

    @property
    def name(self) -> str:
        """Display name used in :class:`PassStats`."""
        return type(self).__name__

    def __repr__(self) -> str:
        return f"{self.name}()"


class MergeSingleQubitGates(TranspilerPass):
    """Merge runs of 1-qubit gates into one MatrixGate (Sec. 3.2.2)."""

    def __call__(self, circuit: Circuit) -> Circuit:
        return merge_single_qubit_gates(circuit)


class DropEmptyMoments(TranspilerPass):
    """Remove moments containing no operations."""

    def __call__(self, circuit: Circuit) -> Circuit:
        return drop_empty_moments(circuit)


class MergeRotations(TranspilerPass):
    """Collapse adjacent same-axis rotation runs into one power gate.

    Hardware-style circuits arrive with single-qubit rotations split into
    consecutive fractional pulses about the same axis (pulse
    decomposition, spin-echo padding, virtual-Z bookkeeping).  Unlike
    :class:`MergeSingleQubitGates`, which fuses *any* 1-qubit run into a
    numeric ``MatrixGate``, this pass only fuses runs that share an axis
    and keeps the result in the named power-gate family — so downstream
    stabilizer/diagram/Clifford machinery still recognizes the gate.

    Two ops share an axis when they are the *same* ``EigenGate`` type
    (``X/Y/Z/HPowGate``...), or both :class:`PhasedXPowGate` with equal
    ``phase_exponent`` (``Z^p X^t Z^-p`` powers commute at fixed ``p``).
    A run merges by exponent addition with the global phase accumulated
    exactly:

        ``G(t1, s1) G(t2, s2) = G(t1+t2, (s1 t1 + s2 t2)/(t1+t2))``

    since every base gate here is an involution.  A run whose exponent
    sum is ``0 (mod 2)`` is the identity up to global phase and is
    dropped outright.  Parameterized ops, measurements, and multi-qubit
    gates act as barriers; single gates not in a run pass through
    untouched.
    """

    def __init__(self, atol: float = 1e-9):
        self.atol = float(atol)

    def _axis_key(self, op: GateOperation):
        """Hashable merge key, or None if the op is not a mergeable rotation."""
        if len(op.qubits) != 1 or op.is_measurement or op._is_parameterized_():
            return None
        gate = op.gate
        if type(gate) is gates.PhasedXPowGate:
            return (gates.PhasedXPowGate, float(gate.phase_exponent))
        # Exact-type match: subclasses may redefine the unitary, and two
        # different axes never merge.
        if type(gate) in (
            gates.XPowGate,
            gates.YPowGate,
            gates.ZPowGate,
            gates.HPowGate,
        ):
            return type(gate)
        return None

    def _merge_run(self, key, run: List[GateOperation]) -> List[GateOperation]:
        if len(run) < 2:
            return run
        exponents = [float(op.gate.exponent) for op in run]
        exp_sum = sum(exponents)
        phase_exp = sum(
            t * op.gate.global_shift for t, op in zip(exponents, run)
        )
        # Involution bases are 2-periodic in the exponent: an exponent sum
        # of 0 (mod 2) is the identity up to a global phase.
        if abs(exp_sum - 2.0 * round(exp_sum / 2.0)) <= self.atol:
            return []
        shift = phase_exp / exp_sum
        if isinstance(key, tuple):
            cls, phase_exponent = key
            merged = cls(
                phase_exponent=phase_exponent,
                exponent=exp_sum,
                global_shift=shift,
            )
        else:
            merged = key(exponent=exp_sum, global_shift=shift)
        return [merged.on(run[0].qubits[0])]

    def __call__(self, circuit: Circuit) -> Circuit:
        out: List[GateOperation] = []
        pending: Dict[object, Tuple[object, List[GateOperation]]] = {}

        def flush(qubit) -> None:
            entry = pending.pop(qubit, None)
            if entry is not None:
                out.extend(self._merge_run(entry[0], entry[1]))

        for op in circuit.all_operations():
            key = self._axis_key(op)
            if key is None:
                for q in op.qubits:
                    flush(q)
                out.append(op)
                continue
            qubit = op.qubits[0]
            entry = pending.get(qubit)
            if entry is not None and entry[0] == key:
                entry[1].append(op)
            else:
                flush(qubit)
                pending[qubit] = (key, [op])
        for qubit in list(pending):
            flush(qubit)
        result = Circuit()
        result.append(out)
        return result


class DropNegligibleGates(TranspilerPass):
    """Drop unitary gates within ``atol`` of a global phase times identity."""

    def __init__(self, atol: float = 1e-8):
        self.atol = float(atol)

    def _is_negligible(self, op: GateOperation) -> bool:
        if op.is_measurement or op._is_parameterized_():
            return False
        u = op._unitary_()
        if u is None:
            return False
        phase = u[0, 0]
        if abs(abs(phase) - 1.0) > self.atol:
            return False
        return bool(np.allclose(u, phase * np.eye(u.shape[0]), atol=self.atol))

    def __call__(self, circuit: Circuit) -> Circuit:
        out = Circuit()
        for moment in circuit.moments:
            kept = [op for op in moment.operations if not self._is_negligible(op)]
            if kept:
                out.append_new_moment(kept)
        return out


class CancelAdjacentInverses(TranspilerPass):
    """Cancel consecutive op pairs whose product is a global phase.

    Scans per-qubit adjacency: two ops cancel when they act on the same
    qubit tuple with no intervening op on any of those qubits and their
    unitaries multiply to ``e^{i phi} I``.  Repeats until a fixed point
    (cancellations can cascade, e.g. ``X H H X``).
    """

    def __init__(self, atol: float = 1e-8):
        self.atol = float(atol)

    def _cancels(self, first: GateOperation, second: GateOperation) -> bool:
        if first.qubits != second.qubits:
            return False
        u1, u2 = first._unitary_(), second._unitary_()
        if u1 is None or u2 is None:
            return False
        product = u2 @ u1
        phase = product[0, 0]
        if abs(abs(phase) - 1.0) > self.atol:
            return False
        return bool(
            np.allclose(product, phase * np.eye(product.shape[0]), atol=self.atol)
        )

    def _one_round(self, ops: List[GateOperation]) -> Optional[List[GateOperation]]:
        last_on_qubit = {}
        for i, op in enumerate(ops):
            if op.is_measurement or op._is_parameterized_():
                for q in op.qubits:
                    last_on_qubit[q] = None
                continue
            prev_entries = {last_on_qubit.get(q) for q in op.qubits}
            if len(prev_entries) == 1:
                prev = prev_entries.pop()
                if prev is not None and self._cancels(ops[prev], op):
                    return ops[:prev] + ops[prev + 1 : i] + ops[i + 1 :]
            for q in op.qubits:
                last_on_qubit[q] = i
        return None

    def __call__(self, circuit: Circuit) -> Circuit:
        ops = list(circuit.all_operations())
        while True:
            reduced = self._one_round(ops)
            if reduced is None:
                break
            ops = reduced
        out = Circuit()
        out.append(ops)
        return out


class LightConeReduction(TranspilerPass):
    """Drop operations outside the measurements' backward causal cone."""

    def __call__(self, circuit: Circuit) -> Circuit:
        return reduce_to_light_cone(circuit)


class DecomposeMultiQubitGates(TranspilerPass):
    """Lower 3+-qubit gates and exotic 2-qubit gates to {1q, CNOT, CZ}.

    Known gates use their exact textbook identities (Toffoli as 7 T's,
    Fredkin, CCZ, SWAP, ISWAP); anything else with a unitary goes through
    the quantum Shannon decomposition.  One- and two-qubit CX/CZ-like
    gates, measurements, and channels pass through unchanged.
    """

    _KEEP_TWO_QUBIT = (gates.CXPowGate, gates.CZPowGate)

    def __init__(self, decompose_swaps: bool = False):
        self.decompose_swaps = bool(decompose_swaps)

    def _lower(self, op: GateOperation) -> List[GateOperation]:
        gate = op.gate
        qs = op.qubits
        if isinstance(gate, gates.CCXPowGate) and float(gate.exponent) == 1.0:
            return decompose_toffoli(*qs)
        if isinstance(gate, gates.CCZPowGate) and float(gate.exponent) == 1.0:
            return decompose_ccz(*qs)
        if isinstance(gate, gates.CSwapGate):
            return decompose_cswap(*qs)
        if isinstance(gate, gates.SwapPowGate) and float(gate.exponent) == 1.0:
            if self.decompose_swaps:
                return decompose_swap(*qs)
            return [op]
        if isinstance(gate, gates.ISwapPowGate) and float(gate.exponent) == 1.0:
            return decompose_iswap(*qs)
        u = op._unitary_()
        if u is None:
            return [op]
        _, ops = quantum_shannon_decompose(u, list(qs))
        return ops

    def __call__(self, circuit: Circuit) -> Circuit:
        out = Circuit()
        for op in circuit.all_operations():
            if (
                op.is_measurement
                or op._is_parameterized_()
                or len(op.qubits) == 1
                or (
                    len(op.qubits) == 2
                    and isinstance(op.gate, self._KEEP_TWO_QUBIT)
                )
                or op._unitary_() is None
            ):
                out.append(op)
                continue
            out.append(self._lower(op))
        return out


@dataclass(frozen=True)
class PassStats:
    """What one pass did to the circuit: op counts, depth, wall time."""

    name: str
    ops_before: int
    ops_after: int
    depth_before: int
    depth_after: int
    seconds: float


class PassPipeline(TranspilerPass):
    """Ordered pass composition with per-pass op-count/depth stats.

    A pipeline is itself a :class:`TranspilerPass` (``pipeline(circuit)``
    runs every stage), so pipelines nest and compose with single passes.
    After each run, :attr:`stats` holds one :class:`PassStats` per stage.
    """

    def __init__(self, passes: Iterable[TranspilerPass]):
        self.passes: List[TranspilerPass] = list(passes)
        self.stats: List[PassStats] = []

    def run(self, circuit: Circuit) -> Circuit:
        """Apply all passes in order, recording per-pass stats."""
        self.stats = []
        for p in self.passes:
            ops_before = circuit.num_operations()
            depth_before = circuit.depth()
            start = time.perf_counter()
            circuit = p(circuit)
            elapsed = time.perf_counter() - start
            self.stats.append(
                PassStats(
                    name=p.name,
                    ops_before=ops_before,
                    ops_after=circuit.num_operations(),
                    depth_before=depth_before,
                    depth_after=circuit.depth(),
                    seconds=elapsed,
                )
            )
        return circuit

    def __call__(self, circuit: Circuit) -> Circuit:
        return self.run(circuit)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.passes!r})"


def default_pipeline(*, light_cone: bool = True) -> PassPipeline:
    """The recommended BGLS pre-sampling pipeline.

    Light-cone reduction first (it can only delete work), then inverse
    cancellation, then the paper's single-qubit merging, then cleanup.
    (:class:`MergeRotations` is not included: the unconditional
    single-qubit merging subsumes it here; use it directly on circuits
    that must stay in the named power-gate family.)
    """
    passes: List[TranspilerPass] = []
    if light_cone:
        passes.append(LightConeReduction())
    passes.extend(
        [
            CancelAdjacentInverses(),
            MergeSingleQubitGates(),
            DropNegligibleGates(),
            DropEmptyMoments(),
        ]
    )
    return PassPipeline(passes)


def transpile(
    circuit: Circuit,
    passes: Union[Iterable[TranspilerPass], PassPipeline, None] = None,
    *,
    light_cone: bool = True,
) -> Circuit:
    """Rewrite ``circuit`` through a pass pipeline; the one-call entry point.

    Args:
        circuit: The circuit to rewrite.
        passes: ``None`` for :func:`default_pipeline`, a pre-built
            :class:`PassPipeline`, or any iterable of passes (composed in
            order into a fresh pipeline).
        light_cone: Only consulted when ``passes`` is ``None``: include
            the light-cone reduction stage in the default pipeline.

    Returns:
        The rewritten circuit.  For per-pass stats, build a
        :class:`PassPipeline` yourself and read ``pipeline.stats`` after
        running it.
    """
    if passes is None:
        pipeline = default_pipeline(light_cone=light_cone)
    elif isinstance(passes, PassPipeline):
        pipeline = passes
    else:
        pipeline = PassPipeline(passes)
    return pipeline.run(circuit)
