"""Aaronson-Gottesman stabilizer tableau, bit-packed (paper reference [1]).

This is the second stabilizer engine in the package, complementing the
CH form of :mod:`repro.states.chform`.  The paper's Sec. 4.1 builds on the
CH form because it supports *amplitudes* natively in ``O(n^2)``; the plain
tableau of Aaronson & Gottesman (PRA 70, 052328 (2004)) is the more common
textbook representation and has no amplitude query.  Its Born
probabilities still come cheaply: a stabilizer state's computational-basis
distribution is uniform on an affine subspace, so ``P(b)`` is ``2^-r`` or
0.  Shipping both lets the benchmark suite quantify that design choice
(see ``benchmarks/bench_tableau_vs_chform.py``).

Packed layout (Stim-style; see :mod:`repro.states.bitpack`):

* ``xw``/``zw`` are ``(2n+1, ceil(n/64))`` ``uint64`` matrices; column
  ``c`` lives at bit ``c & 63`` of word ``c >> 6``.  Row ``i < n`` is the
  i-th *destabilizer*, row ``n + i`` the i-th *stabilizer*, row ``2n``
  scratch.  ``x``/``z`` properties unpack to the textbook ``uint8`` form.
* ``r`` is the ``(2n+1,)`` sign vector (1 means the row carries a ``-``).
* Row ``h`` represents the Pauli ``(-1)^{r[h]} prod_j X_j^{x[h,j]}
  Z_j^{z[h,j]}`` (up to the ``i^{x.z}`` bookkeeping handled by rowsum).

Kernel complexities with ``W = ceil(n/64)`` words per row:

* Gate updates touch one or two columns of all rows: ``O(n)`` single-word
  operations.  CZ and S-dagger use direct single-pass sign/column updates
  instead of their H.CX.H / Z.S compositions.
* ``_rowsum`` multiplies two Pauli rows in ``O(W)`` via three AND/NOT word
  masks per sign (the phase exponent is ``popcount(pos) - popcount(neg)``).
* ``_rowsum_many`` — the measurement-collapse kernel — multiplies one
  pivot row into *all* anticommuting rows in a single 2-D vectorized pass:
  ``O(n * W)`` with no Python loop over rows.
* ``candidate_probabilities_many`` answers a ``(B, 2^k)`` block of BGLS
  candidate queries from one ``O(n^2 W)`` elimination of the stabilizer
  rows' X block (rank ``r``, plus one ``z . b = s`` parity constraint per
  row left without an X pivot) and one packed parity test per
  constraint: ``P(b) = 2^-r`` when ``b`` meets every constraint, else 0.

Gate updates (and the fused single-qubit layer) index the word axis with
``...`` and reduce over the last axis, so the same code updates one
tableau ``(2n+1, W)`` or a batch stack ``(B, 2n+1, W)``:
:class:`StackedCliffordTableaus` inherits them, and its stacking and
per-trajectory views come from the field list both stabilizer engines
share (:class:`~repro.states.base.StabilizerEngine`).

The pre-packing one-bit-per-byte implementation is retained verbatim as
the test oracle ``UnpackedCliffordTableau`` in
``tests/reference_engines.py``; property tests assert bit-exact agreement
gate-for-gate.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import bitpack as bp
from .base import (
    StabilizerEngine,
    StabilizerSimulationState,
    StackedEngine,
    apply_primitives,
    check_basis_index,
    engine_alias,
)

_ONE = np.uint64(1)


def _g_masks(x1, z1, x2, z2):
    """Word masks of columns contributing +1 / -1 to the rowsum phase.

    ``x1``/``z1`` is the multiplying (pivot) row, ``x2``/``z2`` the row(s)
    being multiplied into; broadcasting allows ``x2`` to be 2-D.  Each term
    ANDs a complemented word with an uncomplemented one, so tail bits past
    the logical width stay zero.
    """
    pos = (x1 & z1 & z2 & ~x2) | (x1 & ~z1 & z2 & x2) | (~x1 & z1 & x2 & ~z2)
    neg = (x1 & z1 & x2 & ~z2) | (x1 & ~z1 & z2 & ~x2) | (~x1 & z1 & x2 & z2)
    return pos, neg


def _scatter_xor_columns(
    mat: np.ndarray, ws: np.ndarray, bs: np.ndarray, vals: np.ndarray
) -> None:
    """XOR per-column 0/1 values into packed columns, one pass per word.

    ``vals[..., j]`` lands at bit ``bs[j]`` of word column ``ws[j]``.  Columns
    sharing a word are combined first (their bit positions are distinct, so
    OR equals the XOR sum) and each destination word is touched once —
    plain fancy-indexed ``^=`` would silently drop duplicate word indices.
    """
    shifted = vals << bs
    order = np.argsort(ws, kind="stable")
    sorted_ws = ws[order]
    starts = np.flatnonzero(np.r_[True, sorted_ws[1:] != sorted_ws[:-1]])
    combined = np.bitwise_or.reduceat(shifted[..., order], starts, axis=-1)
    mat[..., sorted_ws[starts]] ^= combined


class CliffordTableau(StabilizerEngine):
    """The Aaronson-Gottesman tableau over ``n`` qubits, ``uint64``-packed.

    Args:
        num_qubits: Register width ``n``.
        initial_state: Computational-basis index (big-endian) to start in.
    """

    _FIELDS = ("xw", "zw", "r")

    def __init__(self, num_qubits: int, initial_state: int = 0):
        n = int(num_qubits)
        if n < 1:
            raise ValueError(f"num_qubits must be >= 1, got {num_qubits}")
        initial_state = check_basis_index(initial_state, n)
        self.n = n
        w = bp.num_words(n)
        self._w = w
        # Destabilizers X_0..X_{n-1}, stabilizers Z_0..Z_{n-1}, scratch row.
        eye = bp.packed_eye(n)
        scratch = np.zeros((1, w), dtype=np.uint64)
        self.xw = np.concatenate([eye, np.zeros_like(eye), scratch])
        self.zw = np.concatenate([np.zeros_like(eye), eye, scratch])
        self.r = np.zeros(2 * n + 1, dtype=np.uint8)
        # |b> is stabilized by (-1)^{b_j} Z_j.
        for j in range(n):
            if (initial_state >> (n - 1 - j)) & 1:
                self.r[n + j] = 1

    # -- unpacked views (tests, diagnostics, stabilizer_strings) -----------
    @property
    def x(self) -> np.ndarray:
        """The X block unpacked to ``(2n+1, n)`` ``uint8`` (read-only copy)."""
        return bp.unpack_rows(self.xw, self.n)

    @property
    def z(self) -> np.ndarray:
        """The Z block unpacked to ``(2n+1, n)`` ``uint8`` (read-only copy)."""
        return bp.unpack_rows(self.zw, self.n)

    # ------------------------------------------------------------------
    # rowsum: multiply row h by row i, tracking the sign (AG04 Sec. III)
    # ------------------------------------------------------------------
    def _rowsum(self, h: int, i: int) -> None:
        x1, z1 = self.xw[i], self.zw[i]
        x2, z2 = self.xw[h], self.zw[h]
        pos, neg = _g_masks(x1, z1, x2, z2)
        gsum = int(bp.popcount(pos).sum()) - int(bp.popcount(neg).sum())
        total = 2 * int(self.r[h]) + 2 * int(self.r[i]) + gsum
        self.r[h] = (total % 4) // 2
        x2 ^= x1
        z2 ^= z1

    def _rowsum_many(self, targets: np.ndarray, i: int) -> None:
        """Multiply pivot row ``i`` into every row in ``targets`` at once.

        One 2-D vectorized pass replaces the per-row Python loop of the
        unpacked engine; this is the measurement-collapse hot kernel.
        """
        x1, z1 = self.xw[i], self.zw[i]
        x2 = self.xw[targets]
        z2 = self.zw[targets]
        pos, neg = _g_masks(x1, z1, x2, z2)
        gsum = bp.popcount(pos).sum(axis=1).astype(np.int64) - bp.popcount(
            neg
        ).sum(axis=1).astype(np.int64)
        total = 2 * self.r[targets].astype(np.int64) + 2 * int(self.r[i]) + gsum
        self.r[targets] = ((total % 4) // 2).astype(np.uint8)
        self.xw[targets] = x2 ^ x1
        self.zw[targets] = z2 ^ z1

    # ------------------------------------------------------------------
    # Clifford gate updates (all O(n) single-word column operations)
    # ------------------------------------------------------------------
    def apply_h(self, a: int) -> None:
        """Hadamard on qubit ``a``: swaps the X and Z columns."""
        w, b = bp.word_and_bit(a)
        xa = (self.xw[..., w] >> b) & _ONE
        za = (self.zw[..., w] >> b) & _ONE
        self.r ^= (xa & za).astype(np.uint8)
        diff = (xa ^ za) << b
        self.xw[..., w] ^= diff
        self.zw[..., w] ^= diff

    def apply_s(self, a: int) -> None:
        """Phase gate S on qubit ``a``."""
        w, b = bp.word_and_bit(a)
        xa = (self.xw[..., w] >> b) & _ONE
        za = (self.zw[..., w] >> b) & _ONE
        self.r ^= (xa & za).astype(np.uint8)
        self.zw[..., w] ^= xa << b

    def apply_sdg(self, a: int) -> None:
        """S-dagger on qubit ``a``, in one pass (= Z then S fused)."""
        w, b = bp.word_and_bit(a)
        xa = (self.xw[..., w] >> b) & _ONE
        za = (self.zw[..., w] >> b) & _ONE
        self.r ^= (xa & (za ^ _ONE)).astype(np.uint8)
        self.zw[..., w] ^= xa << b

    def apply_x(self, a: int) -> None:
        """Pauli X: flips the sign of rows anticommuting with X_a."""
        w, b = bp.word_and_bit(a)
        self.r ^= ((self.zw[..., w] >> b) & _ONE).astype(np.uint8)

    def apply_z(self, a: int) -> None:
        """Pauli Z: flips the sign of rows anticommuting with Z_a."""
        w, b = bp.word_and_bit(a)
        self.r ^= ((self.xw[..., w] >> b) & _ONE).astype(np.uint8)

    def apply_y(self, a: int) -> None:
        """Pauli Y: flips the sign of rows holding X or Z (not Y) at ``a``."""
        w, b = bp.word_and_bit(a)
        xa = (self.xw[..., w] >> b) & _ONE
        za = (self.zw[..., w] >> b) & _ONE
        self.r ^= (xa ^ za).astype(np.uint8)

    def apply_cx(self, a: int, b: int) -> None:
        """CNOT with control ``a`` and target ``b``."""
        if a == b:
            raise ValueError("CNOT control and target must differ")
        wa, ba = bp.word_and_bit(a)
        wb, bb = bp.word_and_bit(b)
        xa = (self.xw[..., wa] >> ba) & _ONE
        za = (self.zw[..., wa] >> ba) & _ONE
        xb = (self.xw[..., wb] >> bb) & _ONE
        zb = (self.zw[..., wb] >> bb) & _ONE
        self.r ^= (xa & zb & (xb ^ za ^ _ONE)).astype(np.uint8)
        self.xw[..., wb] ^= xa << bb
        self.zw[..., wa] ^= zb << ba

    def apply_cz(self, a: int, b: int) -> None:
        """CZ in one pass: Z_a gains X_b, Z_b gains X_a, sign flips where
        both rows hold X and exactly one holds Z (the fused H.CX.H sign)."""
        if a == b:
            raise ValueError("CZ control and target must differ")
        wa, ba = bp.word_and_bit(a)
        wb, bb = bp.word_and_bit(b)
        xa = (self.xw[..., wa] >> ba) & _ONE
        za = (self.zw[..., wa] >> ba) & _ONE
        xb = (self.xw[..., wb] >> bb) & _ONE
        zb = (self.zw[..., wb] >> bb) & _ONE
        self.r ^= (xa & xb & (za ^ zb)).astype(np.uint8)
        self.zw[..., wa] ^= xb << ba
        self.zw[..., wb] ^= xa << bb

    def apply_single_qubit_layer(
        self, names: Sequence[str], cols: Sequence[int]
    ) -> None:
        """Apply one single-qubit Clifford primitive per (distinct) column.

        The whole layer runs as one batched column pass: every column's X/Z
        bits are gathered with one 2-D fancy index, the sign flips of all
        gates XOR into ``r`` in one reduction, and the column updates
        scatter back word-by-word.  This replaces the ~10 small NumPy calls
        per gate of the scalar kernels with a constant number of calls per
        *moment* — the per-gate overhead win for circuits below a few
        hundred qubits.
        """
        cols = np.asarray(cols, dtype=np.intp)
        if cols.size == 0:
            return
        if np.unique(cols).size != cols.size:
            raise ValueError("Layer columns must be distinct qubits")
        ws = cols >> 6
        bs = (cols & (bp.WORD_BITS - 1)).astype(np.uint64)
        xa = (self.xw[..., ws] >> bs) & _ONE
        za = (self.zw[..., ws] >> bs) & _ONE
        flips = np.empty_like(xa)
        dx = np.zeros_like(xa)
        dz = np.zeros_like(xa)
        names_arr = np.asarray(names)
        if names_arr.shape != cols.shape:
            raise ValueError("Need exactly one primitive name per column")
        for name in set(names):
            sel = names_arr == name
            x_s, z_s = xa[..., sel], za[..., sel]
            if name == "H":
                diff = x_s ^ z_s
                flips[..., sel] = x_s & z_s
                dx[..., sel] = diff
                dz[..., sel] = diff
            elif name == "S":
                flips[..., sel] = x_s & z_s
                dz[..., sel] = x_s
            elif name == "SDG":
                flips[..., sel] = x_s & (z_s ^ _ONE)
                dz[..., sel] = x_s
            elif name == "X":
                flips[..., sel] = z_s
            elif name == "Z":
                flips[..., sel] = x_s
            elif name == "Y":
                flips[..., sel] = x_s ^ z_s
            else:
                raise ValueError(f"Unknown single-qubit primitive {name!r}")
        self.r ^= np.bitwise_xor.reduce(flips, axis=-1).astype(np.uint8)
        _scatter_xor_columns(self.xw, ws, bs, dx)
        _scatter_xor_columns(self.zw, ws, bs, dz)

    def apply_swap(self, a: int, b: int) -> None:
        """SWAP by column exchange (cheaper than three CNOTs)."""
        wa, ba = bp.word_and_bit(a)
        wb, bb = bp.word_and_bit(b)
        for mat in (self.xw, self.zw):
            ca = (mat[..., wa] >> ba) & _ONE
            cb = (mat[..., wb] >> bb) & _ONE
            diff = ca ^ cb
            mat[..., wa] ^= diff << ba
            mat[..., wb] ^= diff << bb

    def apply_stabilizer_sequence(self, seq, axes: Sequence[int]) -> None:
        """Apply a ``(phase, [(primitive, local_axes)])`` decomposition.

        The global phase is not representable and is dropped.
        """
        apply_primitives(self, seq[1], axes)

    def apply_single_qubit_moment(
        self, seqs: Sequence, axes: Sequence[int]
    ) -> None:
        """Apply one single-qubit Clifford gate per (disjoint) axis, batched.

        ``seqs[i]`` is ``(phase, [primitive, ...])`` — the gate on
        ``axes[i]`` as a sequence of single-qubit primitives.  The gates
        are layered (j-th primitive of every axis together) and each layer
        runs as one :meth:`apply_single_qubit_layer` column pass.  Global
        phases are dropped, as in :meth:`apply_stabilizer_sequence`.
        """
        depth = max(len(prims) for _, prims in seqs)
        for layer in range(depth):
            names = []
            cols = []
            for (_, prims), axis in zip(seqs, axes):
                if layer < len(prims):
                    names.append(prims[layer])
                    cols.append(axis)
            self.apply_single_qubit_layer(names, cols)

    # ------------------------------------------------------------------
    # Measurement (AG04 Sec. III) and forced projection
    # ------------------------------------------------------------------
    def _random_pivot(self, a: int) -> Optional[int]:
        """First stabilizer row with X at column ``a``, or None."""
        n = self.n
        w, b = bp.word_and_bit(a)
        hits = np.flatnonzero((self.xw[n : 2 * n, w] >> b) & _ONE)
        if hits.size == 0:
            return None
        return n + int(hits[0])

    def deterministic_outcome(self, a: int) -> Optional[int]:
        """The forced measurement outcome of qubit ``a``, or None if random.

        Does not modify the tableau's first ``2n`` rows (it only overwrites
        the scratch row), so it can answer "is this qubit's value pinned?"
        queries non-destructively.

        The product of the selected stabilizer rows is accumulated in one
        vectorized pass: stabilizer rows commute, so step ``j`` of the
        sequential rowsum recurrence sees exactly the XOR of rows ``< j``
        — an exclusive cumulative XOR — and every per-column sign mask is
        evaluated on the full 2-D block at once.
        """
        if self._random_pivot(a) is not None:
            return None
        n = self.n
        w, b = bp.word_and_bit(a)
        hits = np.flatnonzero((self.xw[:n, w] >> b) & _ONE)
        self.xw[2 * n] = 0
        self.zw[2 * n] = 0
        self.r[2 * n] = 0
        if hits.size == 0:
            return 0
        rows = n + hits
        x_rows = self.xw[rows]
        z_rows = self.zw[rows]
        xcum = np.bitwise_xor.accumulate(x_rows, axis=0)
        zcum = np.bitwise_xor.accumulate(z_rows, axis=0)
        xprev = np.zeros_like(xcum)
        zprev = np.zeros_like(zcum)
        xprev[1:] = xcum[:-1]
        zprev[1:] = zcum[:-1]
        pos, neg = _g_masks(x_rows, z_rows, xprev, zprev)
        gsum = int(bp.popcount(pos).sum()) - int(bp.popcount(neg).sum())
        total = 2 * int(self.r[rows].sum()) + gsum
        outcome = (total % 4) // 2
        self.xw[2 * n] = xcum[-1]
        self.zw[2 * n] = zcum[-1]
        self.r[2 * n] = outcome
        return outcome

    def _collapse(self, a: int, p: int, outcome: int) -> None:
        """Post-random-measurement update: pivot row ``p``, result ``outcome``.

        All rows anticommuting with Z_a absorb the pivot through one
        batched :meth:`_rowsum_many` pass.
        """
        n = self.n
        w, b = bp.word_and_bit(a)
        hits = np.flatnonzero((self.xw[:, w] >> b) & _ONE)
        hits = hits[(hits != p) & (hits != 2 * n)]
        if hits.size:
            self._rowsum_many(hits, p)
        self.xw[p - n] = self.xw[p]
        self.zw[p - n] = self.zw[p]
        self.r[p - n] = self.r[p]
        self.xw[p] = 0
        self.zw[p] = 0
        bp.set_bit(self.zw[p], a, 1)
        self.r[p] = outcome

    def measure(self, a: int, rng: np.random.Generator) -> int:
        """Measure qubit ``a`` in the computational basis, collapsing."""
        p = self._random_pivot(a)
        if p is None:
            outcome = self.deterministic_outcome(a)
            assert outcome is not None
            return outcome
        outcome = int(rng.integers(2))
        self._collapse(a, p, outcome)
        return outcome

    def project_measurement(self, a: int, bit: int) -> float:
        """Force qubit ``a`` to ``bit``; return the outcome's probability.

        Returns 0.5 when the outcome was random, 1.0 when it was already
        pinned to ``bit``, and 0.0 (without modifying the state) when the
        outcome is pinned to the opposite value.
        """
        bit = int(bit)
        p = self._random_pivot(a)
        if p is None:
            forced = self.deterministic_outcome(a)
            return 1.0 if forced == bit else 0.0
        self._collapse(a, p, bit)
        return 0.5

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _parity_constraints(self) -> Tuple[int, np.ndarray, np.ndarray]:
        """Row-reduce the stabilizer rows' X block on a scratch copy.

        Returns ``(rank, z, s)``.  Each row left without an X pivot is
        ``(-1)^s Z^z``, so ``|b>`` lies in the support iff ``z . b = s
        (mod 2)`` for all of them, and each basis state of the support has
        probability ``2^-rank`` (the support is an affine subspace: AG04;
        Garcia, Markov & Cross, arXiv:1210.6646).  Stabilizer rows
        commute, so the :meth:`_rowsum_many` phase stays real.
        """
        n = self.n
        tab = self.copy()
        free = np.arange(n, 2 * n)
        for c in range(n):
            w, b = bp.word_and_bit(c)
            hits = free[((tab.xw[free, w] >> b) & _ONE).astype(bool)]
            if hits.size == 0:
                continue
            if hits.size > 1:
                tab._rowsum_many(hits[1:], hits[0])
            free = free[free != hits[0]]
        return n - free.size, tab.zw[free], tab.r[free]

    def probability_of(self, bits: Sequence[int]) -> float:
        """Born probability of the full bitstring ``bits``: ``2^-rank`` if
        it meets every parity constraint, else 0 (the ``k = 0`` case of
        :meth:`candidate_probabilities_many`)."""
        if len(bits) != self.n:
            raise ValueError(f"Expected {self.n} bits, got {len(bits)}")
        return float(self.candidate_probabilities_many([bits], [])[0, 0])

    def candidate_probabilities_many(
        self, bits_list: Sequence[Sequence[int]], support: Sequence[int]
    ) -> np.ndarray:
        """A ``(B, 2^k)`` candidate-probability matrix for ``B`` bitstrings.

        One elimination (:meth:`_parity_constraints`) answers the block.
        Each constraint's parity splits into an off-support part per
        bitstring (packed AND plus popcount, support bits cleared) and a
        support part per candidate index (a ``(2^k, m)`` table over the
        constraint rows' support columns).  A candidate gets ``2^-rank``
        when every constraint holds and 0 otherwise.
        """
        support = np.asarray(support, dtype=np.intp).reshape(-1)
        k = support.size
        base = np.asarray(bits_list, dtype=np.uint8)
        if base.ndim != 2 or base.shape[1] != self.n:
            raise ValueError(
                f"Expected (B, {self.n}) bitstrings, got {base.shape}"
            )
        rank, z, s = self._parity_constraints()
        ws = support >> 6
        bs = (support & (bp.WORD_BITS - 1)).astype(np.uint64)
        z_support = ((z[:, ws] >> bs) & _ONE).astype(np.int64)  # (m, k)
        off_bits = base.copy()
        off_bits[:, support] = 0
        off = bp.count_bits(bp.pack_rows(off_bits)[:, None, :] & z, axis=-1)
        patterns = (np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
        table = patterns @ z_support.T  # (2^k, m)
        parity = (off ^ s)[:, None, :] ^ table
        return np.where((parity & 1).any(axis=-1), 0.0, 2.0**-rank)

    def stabilizer_strings(self) -> List[str]:
        """Human-readable stabilizer generators (e.g. ``['+XX', '-ZZ']``)."""
        x = self.x
        z = self.z
        out = []
        for i in range(self.n, 2 * self.n):
            sign = "-" if self.r[i] else "+"
            chars = []
            for j in range(self.n):
                xij, zij = int(x[i, j]), int(z[i, j])
                chars.append({(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}[(xij, zij)])
            out.append(sign + "".join(chars))
        return out

    # -- packed snapshot payloads (warm-pool worker shipping) ---------------
    def to_words(self) -> Tuple[int, bytes, bytes, bytes]:
        """``(n, x_bytes, z_bytes, r_bytes)`` — the tableau as raw words.

        Only the ``2n`` destabilizer/stabilizer rows ship; the scratch
        row carries no state (every reader overwrites it first) and is
        reallocated on restore.  The byte strings are plain hashable
        values, so whole payloads compare with ``==`` — the property the
        warm-pool key relies on.
        """
        n = self.n
        return (
            n,
            bp.words_to_bytes(self.xw[: 2 * n]),
            bp.words_to_bytes(self.zw[: 2 * n]),
            self.r[: 2 * n].tobytes(),
        )

    @classmethod
    def from_words(
        cls, n: int, x_bytes: bytes, z_bytes: bytes, r_bytes: bytes
    ) -> "CliffordTableau":
        """Rebuild a tableau from :meth:`to_words` without re-deriving it."""
        n = int(n)
        w = bp.num_words(n)
        out = cls.__new__(cls)
        out.n = n
        out._w = w
        scratch = np.zeros((1, w), dtype=np.uint64)
        out.xw = np.concatenate(
            [bp.words_from_bytes(x_bytes, (2 * n, w)), scratch]
        )
        out.zw = np.concatenate(
            [bp.words_from_bytes(z_bytes, (2 * n, w)), scratch]
        )
        out.r = np.concatenate(
            [np.frombuffer(r_bytes, dtype=np.uint8), np.zeros(1, np.uint8)]
        )
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, CliffordTableau):
            return NotImplemented
        return (
            self.n == other.n
            and bool(np.array_equal(self.xw[: 2 * self.n], other.xw[: 2 * other.n]))
            and bool(np.array_equal(self.zw[: 2 * self.n], other.zw[: 2 * other.n]))
            and bool(np.array_equal(self.r[: 2 * self.n], other.r[: 2 * other.n]))
        )

    def __repr__(self) -> str:
        return f"CliffordTableau(num_qubits={self.n})"


class StackedCliffordTableaus(StackedEngine, CliffordTableau):
    """A stack of ``B`` independent tableaus updated by one column pass.

    The batched-trajectory engine's word layout: ``xw``/``zw`` are
    ``(B, 2n+1, W)`` ``uint64`` arrays and ``r`` is ``(B, 2n+1)``, i.e.
    ``B`` :class:`CliffordTableau` instances stacked on a leading axis.
    The inherited gate updates index the word axis with ``...``, so each
    Clifford gate is the scalar kernel broadcast over the batch axis in
    one NumPy call.  Measurement-adjacent operations (pivot search,
    collapse, the candidate oracle's elimination) branch per row and run
    on :meth:`view`, a zero-copy :class:`CliffordTableau` whose arrays alias
    the stack (every scalar kernel mutates in place, so views stay
    coherent).
    """

    _SCALAR = CliffordTableau

    def candidate_probabilities_many(self, bits_list, support) -> np.ndarray:
        """Row ``b`` answered by trajectory ``b`` through :meth:`view`, as
        on :class:`~repro.states.chform.StackedChForms`."""
        return np.concatenate([
            self.view(b).candidate_probabilities_many([bits], support)
            for b, bits in enumerate(bits_list)
        ])


CliffordTableau._STACK = StackedCliffordTableaus


class CliffordTableauSimulationState(StabilizerSimulationState):
    """Aaronson-Gottesman tableau bound to a qubit register.

    A drop-in alternative to
    :class:`~repro.states.StabilizerChFormSimulationState` for pure
    Clifford circuits.  Gates are routed through the same
    ``_stabilizer_sequence_`` hook; global phases are discarded (the
    tableau does not track them, and no probability depends on them).
    Born queries are one parity test against the affine support found
    by eliminating the stabilizer rows (see module note).
    """

    _engine_type = CliffordTableau
    _payload_tag = "clifford_tableau"
    tableau = engine_alias

    def stabilizer_strings(self) -> List[str]:
        """The current stabilizer generators as signed Pauli strings."""
        return self.engine.stabilizer_strings()
