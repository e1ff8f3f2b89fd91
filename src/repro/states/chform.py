"""The CH form of stabilizer states (Bravyi et al., Quantum 3, 181 (2019)).

Any stabilizer state is written ``|psi> = omega * U_C * U_H |s>`` where
``U_C`` is a *control-type* Clifford circuit (products of S, CZ, CNOT, all
fixing |0..0>), ``U_H = prod_j H_j^{v_j}``, ``s`` is a basis state and
``omega`` a complex scalar.  ``U_C`` is stored through its conjugation
action on Pauli generators via binary matrices F, G, M and a phase vector
``gamma`` (mod 4):

    U_C^dag Z_p U_C = prod_j Z_j^{G[p,j]}
    U_C^dag X_p U_C = i^{gamma[p]} prod_j X_j^{F[p,j]} Z_j^{M[p,j]}

All update rules below are derived from these relations (see DESIGN.md);
the implementation is validated against the dense state-vector simulator
by reconstructing full wavefunctions.

Packed layout (see :mod:`repro.states.bitpack`): the binary matrices are
stored row-packed as ``Fw``/``Gw``/``Mw`` — ``(n, ceil(n/64))`` ``uint64``
arrays with column ``c`` at bit ``c & 63`` of word ``c >> 6`` — and the
``v``/``s`` vectors as packed words ``vw``/``sw``.  Row operations
(``M[q] ^= G[r]``, the amplitude query's generator accumulation) are
``O(n/64)`` word XORs; parity counts are word popcounts; phase powers are
tracked as integers mod 4 rather than complex scalars.  ``F``/``G``/``M``
/``v``/``s`` properties unpack to the textbook ``bool`` form.  The
pre-packing implementation is retained as the test oracle
``UnpackedStabilizerChForm`` in ``tests/reference_engines.py``, and
property tests assert exact agreement gate-for-gate.

Every gate update except the Hadamard indexes rows with ``...`` and
reduces over the last axis, and the candidate routine broadcasts over a
leading axis, so the same code runs on one CH form and on a
``(B, n, W)`` batch stack.  :class:`StackedChForms` inherits them,
takes copies, stacks and views from the field list both stabilizer
engines share (:class:`~repro.states.base.StabilizerEngine`), and only
adds the per-trajectory Hadamard (whose ``update_sum`` case split
depends on each trajectory's own ``v`` and ``s``) and the write-back of
the fields a scalar kernel rebinds.

Why BGLS cares: computing one bitstring amplitude costs O(n^2) and is
*independent of circuit depth* — the property behind the paper's Fig. 3.
Probability queries are cheaper still: a stabilizer state is flat, so
:meth:`StabilizerChForm.probabilities_of_many` answers a whole batch of
bitstrings (all ``2^k`` candidates of a gate's support, across every
tracked bitstring of a parallel-mode run) with one dense GF(2) matvec
membership test and the shared magnitude ``|omega|^2 2^{-|v|}``.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from . import bitpack as bp
from .base import (
    StabilizerEngine,
    StackedEngine,
    apply_primitives,
    check_basis_index,
)

_SQRT2 = math.sqrt(2.0)
_I_POW = np.array([1, 1j, -1, -1j], dtype=np.complex128)


class StabilizerChForm(StabilizerEngine):
    """Mutable CH-form stabilizer state on ``n`` qubits, initially |0..0>."""

    _SHAPE = ("n", "_w", "_mask")
    _FIELDS = ("Fw", "Gw", "Mw", "gamma", "vw", "sw", "omega")

    def __init__(self, num_qubits: int, initial_state: int = 0):
        n = int(num_qubits)
        if n <= 0:
            raise ValueError("Need at least one qubit")
        initial_state = check_basis_index(initial_state, n)
        self.n = n
        w = bp.num_words(n)
        self._w = w
        self._mask = bp.mask(n)
        self.Fw = bp.packed_eye(n)
        self.Gw = self.Fw.copy()
        self.Mw = np.zeros((n, w), dtype=np.uint64)
        self.gamma = np.zeros(n, dtype=np.int64)  # i^gamma row phases, mod 4
        self.vw = np.zeros(w, dtype=np.uint64)
        self.sw = np.zeros(w, dtype=np.uint64)
        self.omega: complex = 1.0 + 0.0j
        if initial_state:
            for q in range(n):
                if (initial_state >> (n - 1 - q)) & 1:
                    self.apply_x(q)

    # -- unpacked views (tests, diagnostics) -------------------------------
    @property
    def F(self) -> np.ndarray:
        """The F matrix unpacked to ``(n, n)`` ``bool`` (read-only copy)."""
        return bp.unpack_rows(self.Fw, self.n).astype(bool)

    @property
    def G(self) -> np.ndarray:
        """The G matrix unpacked to ``(n, n)`` ``bool`` (read-only copy)."""
        return bp.unpack_rows(self.Gw, self.n).astype(bool)

    @property
    def M(self) -> np.ndarray:
        """The M matrix unpacked to ``(n, n)`` ``bool`` (read-only copy)."""
        return bp.unpack_rows(self.Mw, self.n).astype(bool)

    @property
    def v(self) -> np.ndarray:
        """The Hadamard-layer vector unpacked to ``(n,)`` ``bool``."""
        return bp.unpack_rows(self.vw, self.n).astype(bool)

    @property
    def s(self) -> np.ndarray:
        """The basis-state vector unpacked to ``(n,)`` ``bool``."""
        return bp.unpack_rows(self.sw, self.n).astype(bool)

    # ------------------------------------------------------------------
    # Pauli rows pushed through U_H onto |s>
    # ------------------------------------------------------------------
    def _x_row_action(self, q: int) -> Tuple[int, np.ndarray]:
        """Action of ``U_C^dag X_q U_C`` on ``U_H|s>``: (i-power, new_s).

        Per qubit j the operator is X^F Z^M;  through H (v_j=1) it becomes
        H Z^F X^M, flipping s_j by M and contributing (-1)^{F*(s+M)}; on
        bare qubits (v_j=0) it flips s_j by F and contributes (-1)^{M*s}.
        """
        f_row, m_row = self.Fw[..., q, :], self.Mw[..., q, :]
        v, s = self.vw, self.sw
        t = s ^ (f_row & ~v) ^ (m_row & v)
        beta = bp.count_bits(m_row & ~v & s, axis=-1)
        beta += bp.count_bits(f_row & v & (s ^ m_row), axis=-1)
        return (self.gamma[..., q] + 2 * beta) % 4, t

    def _z_row_action(self, q: int) -> Tuple[int, np.ndarray]:
        """Action of ``U_C^dag Z_q U_C`` on ``U_H|s>``: (i-power, new_s)."""
        g_row = self.Gw[..., q, :]
        u = self.sw ^ (g_row & self.vw)
        alpha = bp.count_bits(g_row & ~self.vw & self.sw, axis=-1)
        return (2 * alpha) % 4, u

    # ------------------------------------------------------------------
    # Left multiplications (circuit gates).  Every update except the
    # Hadamard indexes rows with ``...`` and reduces over ``axis=-1``, so
    # it runs unchanged on a :class:`StackedChForms` batch.
    # ------------------------------------------------------------------
    def apply_x(self, q: int) -> None:
        pw, t = self._x_row_action(q)
        self.omega *= _I_POW[pw]
        self.sw = t

    def apply_z(self, q: int) -> None:
        pw, u = self._z_row_action(q)
        self.omega *= _I_POW[pw]
        self.sw = u

    def apply_y(self, q: int) -> None:
        """Y = i X Z (apply Z, then X, then the i)."""
        self.apply_z(q)
        self.apply_x(q)
        self.omega *= 1j

    def apply_s(self, q: int) -> None:
        """S (phase gate): gamma_q -= 1, M_q ^= G_q."""
        self.Mw[..., q, :] ^= self.Gw[..., q, :]
        self.gamma[..., q] = (self.gamma[..., q] - 1) % 4

    def apply_sdg(self, q: int) -> None:
        """S^dagger: gamma_q += 1, M_q ^= G_q."""
        self.Mw[..., q, :] ^= self.Gw[..., q, :]
        self.gamma[..., q] = (self.gamma[..., q] + 1) % 4

    def apply_s_many(self, qs: Sequence[int]) -> None:
        """S on several distinct qubits in one batched row pass."""
        idx = np.asarray(qs, dtype=np.intp)
        self.Mw[..., idx, :] ^= self.Gw[..., idx, :]
        self.gamma[..., idx] = (self.gamma[..., idx] - 1) % 4

    def apply_sdg_many(self, qs: Sequence[int]) -> None:
        """S-dagger on several distinct qubits in one batched row pass."""
        idx = np.asarray(qs, dtype=np.intp)
        self.Mw[..., idx, :] ^= self.Gw[..., idx, :]
        self.gamma[..., idx] = (self.gamma[..., idx] + 1) % 4

    def apply_z_many(self, qs: Sequence[int]) -> None:
        """Z on several distinct qubits in one batched pass.

        Sound because Z only flips ``s`` under the Hadamard layer (``v``
        positions) while each gate's phase count reads ``s`` on the bare
        (``~v``) positions — so the per-qubit contributions never observe
        each other's updates and commute into one XOR reduction.
        """
        idx = np.asarray(qs, dtype=np.intp)
        if idx.size == 0:
            return
        g_rows = self.Gw[..., idx, :]
        v = self.vw[..., None, :]
        alpha = bp.count_bits(g_rows & ~v & self.sw[..., None, :], axis=(-2, -1))
        self.omega *= _I_POW[(2 * alpha) % 4]
        self.sw = self.sw ^ np.bitwise_xor.reduce(g_rows & v, axis=-2)

    def apply_cz(self, q: int, r: int) -> None:
        """CZ: M_q ^= G_r and M_r ^= G_q (no phase)."""
        if q == r:
            raise ValueError("CZ needs distinct qubits")
        self.Mw[..., q, :] ^= self.Gw[..., r, :]
        self.Mw[..., r, :] ^= self.Gw[..., q, :]

    def apply_cx(self, c: int, t: int) -> None:
        """CNOT with control c, target t."""
        if c == t:
            raise ValueError("CNOT needs distinct qubits")
        # Phase from reordering Z^{M_c} past X^{F_t} when combining rows.
        parity = bp.count_bits(self.Mw[..., c, :] & self.Fw[..., t, :], axis=-1)
        self.gamma[..., c] = (
            self.gamma[..., c] + self.gamma[..., t] + 2 * (parity & 1)
        ) % 4
        self.Gw[..., t, :] ^= self.Gw[..., c, :]
        self.Fw[..., c, :] ^= self.Fw[..., t, :]
        self.Mw[..., c, :] ^= self.Mw[..., t, :]

    def apply_h(self, q: int) -> None:
        """Hadamard: H = (X + Z)/sqrt(2) creates a two-branch superposition
        which :meth:`update_sum` folds back into CH form (Proposition 4)."""
        px, t = self._x_row_action(q)
        pz, u = self._z_row_action(q)
        delta = (pz - px) % 4
        self.omega *= _I_POW[px] / _SQRT2
        self.update_sum(t, u, delta)

    def apply_stabilizer_sequence(self, seq, axes: Sequence[int]) -> None:
        """Apply a ``(phase, [(primitive, local_axes)])`` decomposition.

        The CH form tracks global phase: the sequence's phase multiplies
        ``omega`` after the primitives.
        """
        phase, prims = seq
        apply_primitives(self, prims, axes)
        self.omega *= phase

    def apply_single_qubit_moment(
        self, seqs: Sequence, axes: Sequence[int]
    ) -> None:
        """Apply one single-qubit Clifford gate per (disjoint) axis.

        ``seqs[i]`` is ``(phase, [primitive, ...])`` for the gate on
        ``axes[i]``.  Primitives are layered; within a layer the row-local
        gates (S, S-dagger) and the phase-only Z batch into single
        vectorized passes, while X/Y/H — whose CH updates read state the
        other gates write — stay sequential.  All global phases multiply
        into ``omega`` first.
        """
        for phase, _ in seqs:
            self.omega *= phase
        depth = max(len(prims) for _, prims in seqs)
        for layer in range(depth):
            batched = {"S": [], "SDG": [], "Z": []}
            sequential = []
            for i, (_, prims) in enumerate(seqs):
                if layer >= len(prims):
                    continue
                name = prims[layer]
                if name in batched:
                    batched[name].append(axes[i])
                else:
                    sequential.append((name, (i,)))
            if batched["S"]:
                self.apply_s_many(batched["S"])
            if batched["SDG"]:
                self.apply_sdg_many(batched["SDG"])
            if batched["Z"]:
                self.apply_z_many(batched["Z"])
            apply_primitives(self, sequential, axes)

    # ------------------------------------------------------------------
    # Right multiplications (absorbing gates into U_C)
    # ------------------------------------------------------------------
    def _right_cx(self, c: int, t: int) -> None:
        """U_C <- U_C CX_{c,t} (column operations, no phase)."""
        bp.xor_col(self.Gw, c, bp.get_col(self.Gw, t))
        bp.xor_col(self.Fw, t, bp.get_col(self.Fw, c))
        bp.xor_col(self.Mw, c, bp.get_col(self.Mw, t))

    def _right_cz(self, c: int, t: int) -> None:
        """U_C <- U_C CZ_{c,t}."""
        fc = bp.get_col(self.Fw, c)
        ft = bp.get_col(self.Fw, t)
        self.gamma[:] = (self.gamma + 2 * (fc & ft).astype(np.int64)) % 4
        bp.xor_col(self.Mw, c, ft)
        bp.xor_col(self.Mw, t, fc)

    def _right_s(self, q: int) -> None:
        """U_C <- U_C S_q   (S^dag X S = i X Z per row with an X there)."""
        fq = bp.get_col(self.Fw, q)
        bp.xor_col(self.Mw, q, fq)
        self.gamma[:] = (self.gamma - fq.astype(np.int64)) % 4

    def _right_sdg(self, q: int) -> None:
        """U_C <- U_C S^dag_q."""
        fq = bp.get_col(self.Fw, q)
        bp.xor_col(self.Mw, q, fq)
        self.gamma[:] = (self.gamma + fq.astype(np.int64)) % 4

    # ------------------------------------------------------------------
    # Proposition 4: rewrite U_H (|t> + i^delta |u>) back into CH form
    # ------------------------------------------------------------------
    def update_sum(self, t: np.ndarray, u: np.ndarray, delta: int) -> None:
        """Set the state to ``omega * U_C * U_H (|t> + i^delta |u>)``.

        ``t`` and ``u`` are packed word vectors.  ``omega`` must already
        hold all prefactors; this method multiplies the scalars it extracts
        into ``omega`` and updates U_C, v, s.
        """
        delta = int(delta) % 4
        if np.array_equal(t, u):
            self.sw = t.copy()
            self.omega *= 1 + _I_POW[delta]
            return

        diff = t ^ u
        set0 = bp.bit_positions(diff & ~self.vw & self._mask, self.n)
        set1 = bp.bit_positions(diff & self.vw, self.n)

        if set0.size > 0:
            # Case A: an un-Hadamarded difference qubit exists.
            q = int(set0[0])
            for i in set0[1:]:
                self._right_cx(q, int(i))
            for i in set1:
                self._right_cz(q, int(i))
            t_q = bp.get_bit(t, q)
            # t_i XOR t_q on the difference set.
            new_s = (t ^ diff) if t_q else t.copy()
            # Single-qubit superposition |t_q> + i^delta |1 - t_q>.
            if t_q:
                self.omega *= _I_POW[delta]
                delta = (-delta) % 4
            a, b = {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1)}[delta]
            if a:
                self._right_s(q)
            bp.set_bit(new_s, q, b)
            bp.set_bit(self.vw, q, 1)
            self.sw = new_s
            self.omega *= _SQRT2
            return

        # Case B: every difference qubit sits under a Hadamard.
        q = int(set1[0])
        for i in set1[1:]:
            self._right_cx(int(i), q)  # H (x) H conjugation reverses CX
        t_q = bp.get_bit(t, q)
        new_s = (t ^ diff) if t_q else t.copy()
        if t_q:
            self.omega *= _I_POW[delta]
            delta = (-delta) % 4
        # H(|0> + i^delta |1>) for delta = 0..3.
        if delta == 0:
            bp.set_bit(new_s, q, 0)
            bp.set_bit(self.vw, q, 0)
            self.omega *= _SQRT2
        elif delta == 2:
            bp.set_bit(new_s, q, 1)
            bp.set_bit(self.vw, q, 0)
            self.omega *= _SQRT2
        elif delta == 1:
            bp.set_bit(new_s, q, 0)
            self._right_sdg(q)
            self.omega *= 1 + 1j
        else:  # delta == 3
            bp.set_bit(new_s, q, 0)
            self._right_s(q)
            self.omega *= 1 - 1j
        self.sw = new_s

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def measurement_outcome_info(self, q: int) -> Tuple[bool, int]:
        """(is_random, deterministic_bit): whether measuring qubit ``q`` is
        a coin flip, and the forced outcome when it is not."""
        pz, u = self._z_row_action(q)
        if np.array_equal(u, self.sw):
            # Z_q |psi> = i^pz |psi| with pz in {0, 2}; +1 eigenvalue <-> 0.
            return False, 0 if pz == 0 else 1
        return True, -1

    def project_measurement(self, q: int, outcome: int) -> float:
        """Collapse qubit ``q`` to ``outcome``; return its probability.

        Returns 1.0 when the outcome was already pinned and 0.5 when it
        was random; a zero-probability outcome raises ``ValueError``.
        """
        pz, u = self._z_row_action(q)
        if np.array_equal(u, self.sw):
            bit = 0 if pz == 0 else 1
            if bit != int(outcome):
                raise ValueError(
                    f"Measurement outcome {outcome} has probability 0"
                )
            return 1.0
        # (I + (-1)^m Z_q)/2 |psi|, renormalized by sqrt(2).
        delta = (2 * int(outcome) + pz) % 4
        self.omega /= _SQRT2
        self.update_sum(self.sw.copy(), u, delta)
        return 0.5

    def measure(self, q: int, rng: np.random.Generator) -> int:
        """Sample and collapse a Z measurement of qubit ``q``."""
        is_random, bit = self.measurement_outcome_info(q)
        if not is_random:
            return bit
        outcome = int(rng.integers(2))
        self.project_measurement(q, outcome)
        return outcome

    # ------------------------------------------------------------------
    # Amplitudes
    # ------------------------------------------------------------------
    def _accumulate_x_rows(
        self, positions: Sequence[int], phase_pow: int, x: np.ndarray, z: np.ndarray
    ) -> int:
        """Multiply the X rows of ``positions`` into the (phase, x, z)
        accumulator in place; returns the new phase power.

        The rows are conjugates of X's on distinct qubits, so they commute
        and any accumulation order yields the same group element.  The
        sequential recurrence ``phase += 2 * parity(z_running & F[p])``
        expands into pairwise cross terms (XOR distributes over AND and
        parities add mod 2), so the whole accumulation vectorizes: one
        ``(k, k)`` pairwise-parity table plus two XOR reductions, with no
        Python loop over rows.
        """
        pos = np.asarray(positions, dtype=np.intp)
        k = pos.size
        if k == 0:
            return phase_pow
        if k == 1:
            p = pos[0]
            f_row = self.Fw[p]
            phase_pow += int(self.gamma[p])
            phase_pow += 2 * (int(bp.popcount(f_row & z).sum()) & 1)
            x ^= f_row
            z ^= self.Mw[p]
            return phase_pow
        f_rows = self.Fw[pos]
        m_rows = self.Mw[pos]
        phase_pow += int(self.gamma[pos].sum())
        # Step j of the sequential recurrence sees the incoming z XOR'd
        # with the M rows of steps i < j; an exclusive cumulative XOR
        # reproduces all cross terms in one vectorized popcount.
        zcum = np.bitwise_xor.accumulate(m_rows, axis=0)
        zprev = np.empty_like(zcum)
        zprev[0] = z
        zprev[1:] = zcum[:-1] ^ z
        phase_pow += 2 * (int(bp.popcount(zprev & f_rows).sum()) & 1)
        x ^= np.bitwise_xor.reduce(f_rows, axis=0)
        z ^= zcum[-1]
        return phase_pow

    def _finish_amplitude(
        self, phase_pow: int, x: np.ndarray, z: np.ndarray
    ) -> complex:
        """``<0| i^phi X^x Z^z U_H |s>`` given the accumulated generator."""
        if ((x ^ self.sw) & ~self.vw & self._mask).any():
            return 0.0 + 0.0j
        phase_pow += 2 * (int(bp.popcount((x & z) ^ (x & self.sw & self.vw)).sum()) & 1)
        magnitude = 2.0 ** (-0.5 * int(bp.popcount(self.vw).sum()))
        return self.omega * _I_POW[phase_pow % 4] * magnitude

    def inner_product_with_basis_state(self, bits: Sequence[int]) -> complex:
        """Amplitude ``<b|psi>`` for a computational-basis bitstring.

        Writes <b| = <0| prod_{p: b_p=1} X_p and pushes the X's through
        U_C; cost O(n * |b| / 64) <= O(n^2 / 64), independent of depth.
        """
        b = np.asarray(bits, dtype=bool)
        if b.shape != (self.n,):
            raise ValueError(f"Expected {self.n} bits, got {b.shape}")
        x = np.zeros(self._w, dtype=np.uint64)
        z = np.zeros(self._w, dtype=np.uint64)
        phase_pow = self._accumulate_x_rows(np.flatnonzero(b), 0, x, z)
        return self._finish_amplitude(phase_pow, x, z)

    def _nonzero_probability(self) -> float:
        """The common probability of every basis state in the support.

        A stabilizer state is flat: all nonzero amplitudes share the
        magnitude ``|omega| * 2^{-|v|/2}``, so probability queries reduce
        to the support-membership test and this constant — no phase
        bookkeeping required.  A stack gets one constant per trajectory.
        """
        return abs(self.omega) ** 2 * 2.0 ** -bp.count_bits(self.vw, axis=-1)

    def probability_of(self, bits: Sequence[int]) -> float:
        """Born probability of a full bitstring: |<b|psi>|^2.

        ``b`` is in the support iff ``x = F^T b`` agrees with ``s`` on the
        un-Hadamarded qubits; the probability is then the flat constant.
        """
        b = np.asarray(bits, dtype=bool)
        if b.shape != (self.n,):
            raise ValueError(f"Expected {self.n} bits, got {b.shape}")
        pos = np.flatnonzero(b)
        if pos.size:
            x = np.bitwise_xor.reduce(self.Fw[pos], axis=0)
        else:
            x = np.zeros(self._w, dtype=np.uint64)
        if ((x ^ self.sw) & ~self.vw & self._mask).any():
            return 0.0
        return self._nonzero_probability()

    def probabilities_of_many(self, bitstrings) -> np.ndarray:
        """Born probabilities of a ``(..., R, n)`` batch of bitstrings.

        One dense GF(2) matmul ``X = C F mod 2`` answers every
        support-membership test at once; the per-row probability is the
        flat stabilizer constant.  On a :class:`StackedChForms` the
        leading axis is the trajectory: ``bitstrings[b]`` is tested
        against trajectory ``b``'s own ``F``, ``s`` and ``v``.  This is the
        kernel behind the sampler's per-gate candidate batching.
        """
        c = np.asarray(bitstrings, dtype=np.float64)
        if c.ndim < 2 or c.shape[-1] != self.n:
            raise ValueError(f"Expected (R, {self.n}) bitstrings, got {c.shape}")
        f_mat = bp.unpack_rows(self.Fw, self.n).astype(np.float64)
        x = (c @ f_mat) % 2.0
        s = bp.unpack_rows(self.sw, self.n).astype(np.float64)[..., None, :]
        bare = bp.unpack_rows(self.vw, self.n)[..., None, :] == 0
        mismatch = ((x != s) & bare).any(axis=-1)
        flat = np.asarray(self._nonzero_probability())[..., None]
        return np.where(mismatch, 0.0, flat)

    def candidate_probabilities_many(
        self, bits_list: Sequence[Sequence[int]], support: Sequence[int]
    ) -> np.ndarray:
        """A ``(B, 2^k)`` matrix of candidate probabilities for ``B``
        tracked bitstrings sharing one gate support — one batched matvec
        for the whole resampling step of a gate.  On a stack, row ``b`` is
        answered by trajectory ``b``."""
        support = [int(a) for a in support]
        k = len(support)
        base = np.asarray(bits_list, dtype=np.uint8)
        if base.ndim != 2 or base.shape[1] != self.n:
            raise ValueError(
                f"Expected (B, {self.n}) bitstrings, got {base.shape}"
            )
        cands = np.repeat(base[:, None, :], 2**k, axis=1)
        patterns = (
            (np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1)[None, :]) & 1
        ).astype(np.uint8)
        cands[:, :, support] = patterns[None, :, :]
        return self.probabilities_of_many(cands)

    def state_vector(self) -> np.ndarray:
        """Full dense wavefunction (exponential; for testing on small n)."""
        dim = 2**self.n
        out = np.empty(dim, dtype=np.complex128)
        for idx in range(dim):
            bits = [(idx >> (self.n - 1 - j)) & 1 for j in range(self.n)]
            out[idx] = self.inner_product_with_basis_state(bits)
        return out

    # -- packed snapshot payloads (warm-pool worker shipping) ---------------
    def to_words(self) -> Tuple:
        """``(n, F, G, M, gamma, v, s, omega)`` with matrices as raw bytes.

        The whole CH form as hashable wire values: the three conjugation
        matrices and the ``v``/``s`` vectors ship as packed little-endian
        words, ``gamma`` as its mod-4 ``int64`` bytes, ``omega`` as a
        plain complex.  ``_mask`` is derived from ``n`` and is not
        shipped.
        """
        return (
            self.n,
            bp.words_to_bytes(self.Fw),
            bp.words_to_bytes(self.Gw),
            bp.words_to_bytes(self.Mw),
            self.gamma.astype("<i8").tobytes(),
            bp.words_to_bytes(self.vw),
            bp.words_to_bytes(self.sw),
            complex(self.omega),
        )

    @classmethod
    def from_words(
        cls,
        n: int,
        f_bytes: bytes,
        g_bytes: bytes,
        m_bytes: bytes,
        gamma_bytes: bytes,
        v_bytes: bytes,
        s_bytes: bytes,
        omega: complex,
    ) -> "StabilizerChForm":
        """Rebuild a CH form from :meth:`to_words` without re-deriving it."""
        n = int(n)
        w = bp.num_words(n)
        out = cls.__new__(cls)
        out.n = n
        out._w = w
        out._mask = bp.mask(n)
        out.Fw = bp.words_from_bytes(f_bytes, (n, w))
        out.Gw = bp.words_from_bytes(g_bytes, (n, w))
        out.Mw = bp.words_from_bytes(m_bytes, (n, w))
        out.gamma = np.frombuffer(gamma_bytes, dtype="<i8").astype(np.int64)
        out.vw = bp.words_from_bytes(v_bytes, (w,))
        out.sw = bp.words_from_bytes(s_bytes, (w,))
        out.omega = complex(omega)
        return out

    def __repr__(self) -> str:
        return f"StabilizerChForm(n={self.n}, |v|={bp.count_bits(self.vw)})"


class StackedChForms(StackedEngine, StabilizerChForm):
    """A stack of ``B`` independent CH forms sharing each gate's word pass.

    The batched-trajectory engine's CH layout: ``Fw``/``Gw``/``Mw`` are
    ``(B, n, W)`` ``uint64`` arrays, ``gamma`` is ``(B, n)``, ``vw``/``sw``
    are ``(B, W)`` and ``omega`` is a ``(B,)`` complex vector.  The
    inherited control-type gates (S, S-dagger, CZ, CNOT) and Pauli row
    actions (X, Y, Z) broadcast over ``B`` in one NumPy call, and the
    inherited candidate routine answers trajectory ``b`` against row
    ``b``.  Hadamard and measurement collapse branch per trajectory
    (``update_sum``'s case analysis depends on the trajectory's own
    ``v``/``s``); those run through :meth:`view`, a zero-copy scalar alias
    of one trajectory, with the rebound ``sw``/``omega`` scalars written
    back by :meth:`store`.
    """

    _SCALAR = StabilizerChForm

    def store(self, b: int, form: StabilizerChForm) -> None:
        """Write back the scalar-rebound ``sw``/``omega`` of a view."""
        self.sw[b] = form.sw
        self.omega[b] = form.omega

    def apply_h(self, q: int) -> None:
        """Hadamard: ``update_sum``'s case analysis is per-trajectory."""
        for b in range(self.batch):
            st = self.view(b)
            st.apply_h(q)
            self.store(b, st)


StabilizerChForm._STACK = StackedChForms
