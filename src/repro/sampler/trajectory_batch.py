"""Batched trajectory engine: a repetition stack as one NumPy computation.

:meth:`Simulator._run_trajectories` walks the compiled plan once per
repetition — a pure Python loop whose per-gate constants (state copy,
candidate query, one scalar multinomial) dominate trajectory-mode cost.
This module runs a whole chunk of ``B`` repetitions as **one stacked
computation** instead, and evolves each distinct trajectory state once:

* an adapter holds one row per *distinct* trajectory state — the dense
  backend as a ``(U, 2, ..., 2)`` amplitude tile, the stabilizer backends
  as ``(U, rows, words)`` packed GF(2) word stacks
  (:class:`~repro.states.tableau.StackedCliffordTableaus`,
  :class:`~repro.states.chform.StackedChForms`) — plus an
  ``owner: (B,)`` map from trajectory to row.  A tile starts as one row
  owned by every trajectory; rows split only where trajectories' states
  diverge, at a Kraus branch or a mid-circuit projection, into one row
  per distinct ``(owner, branch)`` or ``(owner, outcome)`` pair
  (:func:`regroup`).  So ``U <= B``, and a noiseless prefix runs on one
  row (the paper's sample parallelization, Sec. 3.2.3, applied to
  trajectories);
* every plan record applies to the ``U`` rows in one call, through the
  scalar backends' own kernels: unitaries via
  :func:`~repro.states.state_vector.apply_matrix` on the tile's shifted
  axes (diagonal ones in place), Clifford primitives via the engines'
  ``...``-indexed gate updates; candidate probabilities gather each
  trajectory's row through ``owner``;
* bit resampling replaces ``B`` scalar multinomials with one vectorized
  cumulative-sum/searchsorted pass over a ``(B, 2^k)`` probability matrix;
* Kraus branching applies each Kraus operator to the ``U`` rows to weigh
  the branches, draws all ``B`` branch choices at once, and applies each
  chosen operator to the new rows that take it — one call per *branch*,
  not per trajectory.

Sharing rows does not change any trajectory's floats: each trajectory's
row comes out of the same :func:`apply_matrix` call on the same input row
as it would in a tile of ``B`` explicit copies, and :func:`apply_rows`
keeps the kernel's result for a row independent of how many rows sit
beside it.

**Determinism contract.**  A stacked engine cannot reproduce the serial
loop's interleaved RNG draw order, so batched mode pins its own contract:
trajectory ``r`` of sweep point ``p`` consumes uniforms drawn from
``default_rng(SeedSequence([base_seed, p, rep_base + r]))``, and the
number of uniforms each plan record consumes is a *static* function of
the plan (branching records: 2; resampled records: 1; measurements and
skipped diagonals: 0).  Output is therefore a pure function of
``(base_seed, point, rep_base + r)`` per trajectory — bit-for-bit
identical across tile sizes, chunk geometries, and worker counts.

:func:`adapter_for` maps a state class to one of the three shipped
adapters (state vector, CH form, tableau; subclasses included), each
implementing the small interface at the top of
:class:`BatchedStateVector`.  Other backends, custom ``apply_op``
functions, user candidate functions, and plans an adapter does not
support (a subclass overriding ``_act_on_`` has no ``fast_unitary``
plan) fall back to the serial loop unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..states.base import candidate_index_matrix
from ..states.stabilizer import StabilizerChFormSimulationState
from ..states.state_vector import StateVectorSimulationState, apply_matrix
from ..states.tableau import CliffordTableauSimulationState
from .plan import ExecutionPlan, FusedOpRecord

#: Soft cap on the dense tile's amplitude memory (bytes).  The engine
#: splits a repetition chunk into tiles no larger than this; Kraus
#: probing holds ~2 tiles live, hence the factor in :meth:`tile_size`.
DENSE_TILE_BUDGET_BYTES = 128 << 20

#: Stacked stabilizer states are cheap; cap the tile only to bound the
#: per-tile uniforms matrix and bit front.
STABILIZER_TILE_CAP = 1 << 16


def categorical_rows(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One categorical draw per row of ``probs`` from uniforms ``u``.

    The vectorized equivalent of ``np.searchsorted(np.cumsum(p), u)`` per
    row: row ``b``'s choice is the first index whose cumulative
    (normalized) probability reaches ``u[b]``.  Rows are clipped of float
    dust and normalized; a vanished row raises like
    :meth:`Simulator._normalize_prob_rows`.
    """
    probs = np.clip(np.asarray(probs, dtype=float), 0.0, None)
    totals = probs.sum(axis=1)
    if not np.all(np.isfinite(totals)) or np.any(totals <= 0):
        raise ValueError(
            "All candidate probabilities vanished; state and bitstring "
            "are inconsistent (is compute_probability correct?)"
        )
    cum = np.cumsum(probs, axis=1)
    cum /= cum[:, -1:]
    u = np.asarray(u, dtype=float)
    choice = (u[:, None] > cum).sum(axis=1)
    return np.minimum(choice, probs.shape[1] - 1)


def _assign_support_rows(
    bits: np.ndarray, support: Sequence[int], choice: np.ndarray
) -> None:
    """Decode big-endian candidate indices into the support columns."""
    k = len(support)
    for pos, axis in enumerate(support):
        bits[:, axis] = (choice >> (k - 1 - pos)) & 1


def apply_rows(
    tile: np.ndarray, u: np.ndarray, axes: Sequence[int], overwrite=False
) -> np.ndarray:
    """:func:`apply_matrix` on a tile, each row's result independent of
    how many rows the tile holds.

    BLAS rounds the last ``m % 4`` of the ``m = rows * 2^(n-k)`` vectors
    it multiplies differently.  That count is a multiple of 4 unless
    ``n - k <= 1``; then the tile is padded with zero rows to a multiple
    of 4 rows.
    """
    rows = len(tile)
    if rows % 4 and (tile[0].size >> len(axes)) % 4:
        pad = np.zeros((-rows % 4,) + tile.shape[1:], dtype=tile.dtype)
        padded = np.concatenate([tile, pad])
        return apply_matrix(padded, u, axes, overwrite=True)[:rows]
    return apply_matrix(tile, u, axes, overwrite=overwrite)


def regroup(owner: np.ndarray, labels: np.ndarray):
    """One row per distinct ``(owner, label)`` pair.

    ``labels`` holds one entry (a branch) or one row (outcomes) per
    trajectory.  Returns ``(first, new_owner)``: new row ``j`` is a copy
    of row ``owner[first[j]]`` carrying label ``labels[first[j]]``, and
    trajectory ``b`` now owns row ``new_owner[b]``.  Rows come sorted by
    ``(owner, label)``, so distinct owners with one label each keep
    their order.
    """
    keys = np.column_stack([owner, labels])
    _, first, new_owner = np.unique(
        keys, axis=0, return_index=True, return_inverse=True
    )
    return first, new_owner.reshape(-1)


def record_draws(plan: ExecutionPlan, skip_diagonal: bool) -> List[int]:
    """Per-record uniform consumption — static in the plan.

    Branching records consume 2 uniforms (branch choice + bit
    resampling), resampled records 1, measurements and skipped diagonal
    records 0.  Static scheduling is what makes batched output
    independent of tiling: trajectory ``r`` reads its own pre-drawn
    uniform row at fixed offsets regardless of who shares its tile.
    """
    draws = []
    for rec in plan.records:
        if rec.is_measurement:
            draws.append(0)
        elif rec.needs_branching:
            draws.append(2)
        elif skip_diagonal and rec.is_diagonal():
            draws.append(0)
        else:
            draws.append(1)
    return draws


class BatchedStateVector:
    """Dense ``(B, 2, ..., 2)`` amplitude tile for the batched engine.

    The tile holds ``U`` distinct trajectory states; ``owner[b]`` is the
    row of trajectory ``b`` (``batch`` trajectories in all).  Built from
    an explicit ``(B, 2, ..., 2)`` stack, every trajectory owns its own
    row.

    Adapter interface (shared by every adapter :func:`adapter_for` returns):

    * ``supports_plan(plan)`` — classmethod; static plan eligibility.
    * ``from_state(state, batch)`` — classmethod; ``batch`` trajectories
      sharing one row holding the scalar simulation state.
    * ``tile_size(state, repetitions)`` — classmethod; the
      memory-budgeted tile width.
    * ``apply_record(plan, rec)`` — apply one non-branching,
      non-measurement record to every distinct row.
    * ``candidate_probabilities(bits, support)`` — ``(B, 2^k)`` Born
      probabilities of each trajectory's candidates.
    * ``project(support, outcomes)`` — collapse each trajectory onto its
      own ``(B, k)`` outcome rows.
    * ``apply_kraus(kraus, support, bits, u_branch)`` — branch every
      trajectory (only reached when ``supports_plan`` accepts
      branching).
    """

    def __init__(
        self, tensor: np.ndarray, num_qubits: int, owner: np.ndarray = None
    ):
        self.tensor = tensor
        self.n = num_qubits
        self.owner = np.arange(len(tensor)) if owner is None else owner
        self.batch = len(self.owner)

    # -- adapter classmethods ---------------------------------------------
    @classmethod
    def supports_plan(cls, plan: ExecutionPlan) -> bool:
        if not plan.fast_unitary:
            return False
        for rec in plan.records:
            if rec.is_measurement or type(rec) is FusedOpRecord:
                continue
            if rec.needs_branching:
                if rec.kraus is None:
                    return False
            elif rec.unitary is None:
                return False
        return True

    @classmethod
    def from_state(cls, state, batch: int) -> "BatchedStateVector":
        return cls(
            state.tensor[None].copy(),
            state.num_qubits,
            np.zeros(batch, dtype=np.intp),
        )

    @classmethod
    def tile_size(cls, state, repetitions: int) -> int:
        per_rep = 16 * (2**state.num_qubits)
        # Kraus probing keeps a transient branch tile alive next to the
        # tile itself, so budget two tiles of ``repetitions`` rows (the
        # most distinct states a tile can hold).
        tile = max(1, DENSE_TILE_BUDGET_BYTES // (2 * per_rep))
        return min(tile, repetitions)

    # -- stacked mutations -------------------------------------------------
    def apply_record(self, plan: ExecutionPlan, rec) -> None:
        subs = rec.records if type(rec) is FusedOpRecord else (rec,)
        for sub in subs:
            # Tile axis 0 is the batch, so qubit a lives on axis a + 1.
            axes = [a + 1 for a in sub.support]
            self.tensor = apply_rows(
                self.tensor, sub.unitary, axes, overwrite=True
            )

    def _flat(self) -> np.ndarray:
        return self.tensor.reshape(len(self.tensor), -1)

    def _set_rows(self, flat: np.ndarray, owner: np.ndarray) -> None:
        """Renormalize the new rows and make them the tile."""
        norms = np.linalg.norm(flat, axis=1)
        # A chosen Kraus branch has positive candidate mass, so only a
        # projection can vanish.
        if np.any(norms == 0):
            raise ValueError("Projected onto a zero-probability outcome")
        flat /= norms[:, None]
        self.tensor = flat.reshape((len(flat),) + (2,) * self.n)
        self.owner = owner

    def candidate_probabilities(
        self, bits: np.ndarray, support: Sequence[int]
    ) -> np.ndarray:
        idx = candidate_index_matrix(bits, support, self.n)
        return np.abs(self._flat()[self.owner[:, None], idx]) ** 2

    def project(self, support: Sequence[int], outcomes: np.ndarray) -> None:
        """Collapse each trajectory onto its own support outcome: one
        new row per distinct ``(owner, outcome)`` pair."""
        first, owner = regroup(self.owner, outcomes)
        flat = self._flat()[self.owner[first]]
        outcomes = outcomes[first]
        keep = np.ones(flat.shape, dtype=bool)
        basis = np.arange(flat.shape[1], dtype=np.int64)
        for pos, axis in enumerate(support):
            axis_bits = (basis >> (self.n - 1 - axis)) & 1
            keep &= axis_bits[None, :] == outcomes[:, pos, None]
        self._set_rows(np.where(keep, flat, 0.0), owner)

    def apply_kraus(
        self,
        kraus: Sequence[np.ndarray],
        support: Sequence[int],
        bits: np.ndarray,
        u_branch: np.ndarray,
    ) -> np.ndarray:
        """Two-pass Kraus branching of every trajectory.

        Pass 1 applies every Kraus operator to the distinct rows
        transiently and gathers each trajectory's branch candidate
        probabilities through ``owner``; branch ``i`` of trajectory ``b``
        is weighted by its candidate mass (exactly the serial
        :meth:`Simulator._apply_channel_branch` weights).  All ``B``
        branch choices come from one uniform column; pass 2 builds one
        row per distinct ``(owner, branch)`` pair, applies each chosen
        operator to the rows that take it, and renormalizes them.
        Returns the chosen-branch candidate probabilities for bit
        resampling.
        """
        nk = len(kraus)
        axes = [a + 1 for a in support]
        idx = candidate_index_matrix(bits, support, self.n)
        gather = (self.owner[:, None], idx)
        probses = np.empty((nk, self.batch, idx.shape[1]))
        for i, k_op in enumerate(kraus):
            trial = apply_rows(self.tensor, k_op, axes)
            probses[i] = np.abs(trial.reshape(len(trial), -1)[gather]) ** 2
        weights = probses.sum(axis=2).T  # (B, nk)
        try:
            choice = categorical_rows(weights, u_branch)
        except ValueError as exc:
            raise ValueError(
                "Channel branches all annihilated the tracked bitstring; "
                "the state and bitstring are inconsistent."
            ) from exc
        first, owner = regroup(self.owner, choice)
        rows, branch = self.owner[first], choice[first]
        out = np.empty((len(first),) + self.tensor.shape[1:], np.complex128)
        for j in range(nk):
            mask = branch == j
            if mask.any():
                # Fancy indexing copies, so the rows are ours to overwrite.
                out[mask] = apply_rows(
                    self.tensor[rows[mask]], kraus[j], axes, overwrite=True
                )
        self._set_rows(out.reshape(len(out), -1), owner)
        return probses[choice, np.arange(self.batch)]


class _StackedStabilizerAdapter:
    """Shared shape of the two stacked stabilizer adapters.

    The stack holds one engine per distinct trajectory state and
    ``owner`` maps trajectories to its rows, as in
    :class:`BatchedStateVector`.  Clifford word passes and fused moments
    broadcast over the rows in one call; measurement-adjacent operations
    (projection chains, candidate recursions for the tableau) branch per
    row or trajectory and run through zero-copy scalar views.
    """

    def __init__(self, stack, num_qubits: int, owner: np.ndarray = None):
        self.stack = stack
        self.n = num_qubits
        self.owner = np.arange(stack.batch) if owner is None else owner
        self.batch = len(self.owner)

    @classmethod
    def supports_plan(cls, plan: ExecutionPlan) -> bool:
        if not plan.fast_stab:
            return False
        for rec in plan.records:
            if rec.is_measurement or type(rec) is FusedOpRecord:
                continue
            if rec.stab_seq is None:
                return False
        return True

    @classmethod
    def tile_size(cls, state, repetitions: int) -> int:
        return min(STABILIZER_TILE_CAP, repetitions)

    def apply_record(self, plan: ExecutionPlan, rec) -> None:
        if type(rec) is FusedOpRecord:
            self.stack.apply_single_qubit_moment(rec.seqs, rec.axes)
        else:
            self.stack.apply_stabilizer_sequence(rec.stab_seq, rec.support)

    def project(self, support: Sequence[int], outcomes: np.ndarray) -> None:
        """One new row per distinct ``(owner, outcome)`` pair, each
        collapsed onto its outcome."""
        first, owner = regroup(self.owner, outcomes)
        self.stack = self.stack.take(self.owner[first])
        self.owner = owner
        for row, b in enumerate(first):
            self._project_row(row, support, outcomes[b])


class BatchedTableaus(_StackedStabilizerAdapter):
    """Stacked Aaronson-Gottesman tableaus for the batched engine."""

    @classmethod
    def from_state(cls, state, batch: int) -> "BatchedTableaus":
        one = state.tableau.stack(1)
        return cls(one, state.num_qubits, np.zeros(batch, dtype=np.intp))

    def candidate_probabilities(
        self, bits: np.ndarray, support: Sequence[int]
    ) -> np.ndarray:
        # Candidate chains replay measurement recursions per trajectory
        # on a copy of its row; the word-op gate passes stay batched.
        out = np.empty((self.batch, 2 ** len(support)))
        for b, row in enumerate(self.owner):
            out[b] = self.stack.view(row).candidate_probabilities_many(
                bits[b : b + 1], support
            )[0]
        return out

    def _project_row(self, row, support, outcome) -> None:
        view = self.stack.view(row)
        for axis, bit in zip(support, outcome):
            if view.project_measurement(axis, int(bit)) == 0.0:
                raise ValueError(
                    f"Projection of qubit axis {axis} onto {int(bit)} has "
                    "zero probability"
                )


class BatchedChForms(_StackedStabilizerAdapter):
    """Stacked CH forms for the batched engine."""

    @classmethod
    def from_state(cls, state, batch: int) -> "BatchedChForms":
        one = state.ch_form.stack(1)
        return cls(one, state.num_qubits, np.zeros(batch, dtype=np.intp))

    def candidate_probabilities(
        self, bits: np.ndarray, support: Sequence[int]
    ) -> np.ndarray:
        return self.stack.take(self.owner).candidate_probabilities_many(
            bits, support
        )

    def _project_row(self, row, support, outcome) -> None:
        # The scalar CH kernels rebind sw/omega, so the projection writes
        # those two back into the stack.
        view = self.stack.view(row)
        for axis, bit in zip(support, outcome):
            view.project_measurement(axis, int(bit))
        self.stack.store(row, view)


_ADAPTERS = (
    (StateVectorSimulationState, BatchedStateVector),
    (StabilizerChFormSimulationState, BatchedChForms),
    (CliffordTableauSimulationState, BatchedTableaus),
)


def adapter_for(state_type: type):
    """The batched adapter for ``state_type`` (a shipped state class or
    a subclass of one), or None to run the serial per-repetition loop."""
    for base, adapter in _ADAPTERS:
        if issubclass(state_type, base):
            return adapter
    return None


def run_batched_trajectories(
    simulator,
    plan: ExecutionPlan,
    repetitions: int,
    ctx: Tuple[int, int, int],
    adapter_cls,
) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    """Run ``repetitions`` trajectories of ``plan`` as stacked tiles.

    ``ctx = (base_seed, point_index, rep_base)`` anchors the
    deterministic contract: trajectory ``r`` (globally,
    ``rep_base + start + r`` within its tile) consumes uniforms from
    ``default_rng(SeedSequence([base_seed, point_index, rep_base + r]))``
    at plan-static offsets.  Returns the same ``(records, all_bits)``
    shapes as :meth:`Simulator._run_trajectories`.
    """
    base, point, rep_base = (int(v) for v in ctx)
    n = plan.num_qubits
    skip_diagonal = simulator.skip_diagonal_updates
    draws = record_draws(plan, skip_diagonal)
    total_draws = sum(draws)

    # One outcome plane per measurement key (compilation rejects
    # duplicate keys, so each key is measured once per trajectory).
    records: Dict[str, np.ndarray] = {
        rec.measurement_key: np.empty(
            (repetitions, len(rec.support)), dtype=np.int8
        )
        for rec in plan.records
        if rec.is_measurement
    }

    all_bits = np.empty((repetitions, n), dtype=np.int8)
    tile = adapter_cls.tile_size(simulator.initial_state, repetitions)
    # Nothing reads the state after the last non-measurement record, so
    # the measurements there record their outcomes without projecting.
    last_op = max(
        (i for i, rec in enumerate(plan.records) if not rec.is_measurement),
        default=-1,
    )

    for start in range(0, repetitions, tile):
        batch = min(tile, repetitions - start)
        uniforms = np.stack(
            [
                np.random.default_rng(
                    np.random.SeedSequence(
                        [base, point, rep_base + start + r]
                    )
                ).random(total_draws)
                for r in range(batch)
            ]
        )
        adapter = adapter_cls.from_state(simulator.initial_state, batch)
        bits = np.zeros((batch, n), dtype=np.int8)
        col = 0
        for i, (rec, n_draws) in enumerate(zip(plan.records, draws)):
            support = rec.support
            if rec.is_measurement:
                outcome = bits[:, list(support)].copy()
                records[rec.measurement_key][start : start + batch] = outcome
                if i < last_op:
                    adapter.project(support, outcome)
                continue
            if rec.needs_branching:
                probs = adapter.apply_kraus(
                    rec.kraus, support, bits, uniforms[:, col]
                )
                u_bits = uniforms[:, col + 1]
            else:
                adapter.apply_record(plan, rec)
                if n_draws == 0:  # skipped diagonal record
                    continue
                probs = adapter.candidate_probabilities(bits, support)
                u_bits = uniforms[:, col]
            col += n_draws
            choice = categorical_rows(probs, u_bits)
            _assign_support_rows(bits, support, choice)
        all_bits[start : start + batch] = bits
    return records, all_bits
