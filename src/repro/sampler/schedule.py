"""Task geometry for pooled batches and sweeps: one pure function.

A pooled ``run_batch``/``run_sweep`` runs as a list of tasks pulled from
the warm pool's shared queue by whichever worker is idle.  Placement is
dynamic and never matters; what fixes the output is the task
*geometry* — into how many repetition chunks each point splits, and the
seed of each chunk.  :func:`schedule` computes that geometry from the
batch's static costs alone, in one of three modes:

* ``"fifo"`` (the default): one task per point, in point order, seeded
  ``SeedSequence([seed, point])`` — bit-for-bit the serial path.
* ``"adaptive"``: points whose cost exceeds a worker's fair share of the
  batch split into repetition chunks, so one deep circuit spreads across
  every worker instead of serializing the tail; tasks are ordered
  largest-first (LPT list scheduling).
* ``"stealing"``: adaptive, plus every point is pre-split into at least
  :data:`GRANULARITY` chunks, so idle workers can take the tail of a
  straggler and absorb cost-model error at runtime.

Chunk ``c`` of a split point ``i`` is seeded ``SeedSequence([seed, i,
c])`` and chunks merge back in chunk order; unsplit points keep the
serial recipe.  The task list is a deterministic function of (batch
costs, repetitions, worker count, mode) — never of timing or submission
order — so a batch with no split point is identical to the serial path
and a split batch is identical to replaying its task list in-process
(pinned by ``tests/test_schedule.py``).

:func:`estimate_cost` is the static cost model: ``qubits x resolved-op
count x repetitions``, read from the compiled
:class:`~repro.sampler.program.Program` alone.  Only ratios matter.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Sequence

from .service import _chunk_sizes


#: Relative cost of one trajectory-mode repetition versus one
#: measurement-only resample of the same record.  Trajectory mode runs
#: every repetition through the full gate-by-gate loop (state mutation +
#: candidate resampling per record) where measurement-only mode evolves
#: the state once and resamples bits; 16x matches the measured order of
#: magnitude and, being uniform per entry, only matters for batches
#: mixing trajectory and non-trajectory entries.
TRAJECTORY_COST_MULTIPLIER = 16

#: The scheduling modes :func:`schedule` accepts.
MODES = ("fifo", "adaptive", "stealing")

#: Chunks a worker's fair share of the batch is divided into when an
#: oversized point splits; also caps a split at ``num_workers * 4`` chunks.
OVERSUBSCRIBE = 4

#: No chunk is smaller than this many repetitions, and a point splits
#: only when it can yield at least two such chunks.
MIN_CHUNK_REPETITIONS = 4

#: Minimum chunks per point in ``"stealing"`` mode (where repetitions
#: allow).
GRANULARITY = 4


def estimate_cost(program, repetitions: int) -> int:
    """Static relative cost of one batch entry: qubits x ops x reps.

    Reads only the compiled Program's structure counters (parameter slots
    count as one op each — their resolved records exist in every
    specialization), so costing a 24-point batch touches no plan builds.
    Trajectory-mode entries (``Program.needs_trajectories``) are weighted
    by :data:`TRAJECTORY_COST_MULTIPLIER`, since each repetition replays
    the whole circuit instead of resampling a single evolved state.
    The unit is arbitrary; only ratios matter to the scheduler.
    """
    ops = program.shared_record_count + program.param_slot_count
    cost = max(1, program.num_qubits) * max(1, ops) * max(1, int(repetitions))
    if getattr(program, "needs_trajectories", False):
        cost *= TRAJECTORY_COST_MULTIPLIER
    return cost


def estimate_job_cost(program, num_points: int, repetitions: int) -> int:
    """Static cost of a whole sweep *job*: per-point cost x point count.

    The sampling service's accounting unit — one submitted job is a
    sweep of ``num_points`` resolvers over one compiled Program, each
    point running ``repetitions`` — read off the same structure counters
    as :func:`estimate_cost`, so quota fair-share and the scheduler
    price work in one currency.  An empty sweep still costs one point's
    worth (admission is never free).
    """
    return estimate_cost(program, repetitions) * max(1, int(num_points))


class BatchEntry(NamedTuple):
    """One (program, resolver) pair of a heterogeneous batch, pre-costed."""

    program_index: int
    point_index: int
    resolver: object
    cost: float


class ScheduledTask(NamedTuple):
    """One pool task of a scheduled batch: a point, or one chunk of it.

    ``num_chunks == 1`` means the whole point runs as one stream with the
    serial seed recipe ``SeedSequence([seed, point_index])``; split points
    carry ``chunk_index`` and use ``SeedSequence([seed, point_index,
    chunk_index])``.  ``repetitions`` is this task's share of the point's
    repetitions (the near-equal split of
    :func:`repro.sampler.service._chunk_sizes`).
    """

    program_index: int
    point_index: int
    resolver: object
    chunk_index: int
    num_chunks: int
    repetitions: int


def check_mode(mode: str) -> str:
    """Return ``mode`` if it is one of :data:`MODES`, else raise."""
    if mode not in MODES:
        raise ValueError(
            f"scheduler must be one of {', '.join(map(repr, MODES))}; "
            f"got {mode!r}"
        )
    return mode


def _chunk_count(
    cost: float, total: float, repetitions: int, num_workers: int, mode: str
) -> int:
    """How many chunks one point splits into (1 = stays whole).

    With ``fair = total / num_workers``, a point of cost ``c > fair``
    splits into ``ceil(c / (fair / OVERSUBSCRIBE))`` chunks, bounded by
    ``repetitions // MIN_CHUNK_REPETITIONS`` and ``num_workers *
    OVERSUBSCRIBE``; ``"stealing"`` raises every point to at least
    ``min(GRANULARITY, repetitions // MIN_CHUNK_REPETITIONS)``.
    """
    by_reps = int(repetitions) // MIN_CHUNK_REPETITIONS
    if num_workers <= 1 or by_reps < 2:
        return 1
    chunks = 1
    fair = total / num_workers
    if fair > 0 and cost > fair:
        wanted = math.ceil(cost / (fair / OVERSUBSCRIBE))
        chunks = min(wanted, by_reps, num_workers * OVERSUBSCRIBE)
    if mode == "stealing":
        chunks = max(chunks, min(GRANULARITY, by_reps))
    return chunks


def schedule(
    entries: Sequence[BatchEntry],
    repetitions: int,
    num_workers: int,
    mode: str = "fifo",
) -> List[ScheduledTask]:
    """Map a costed batch to its ordered list of pool tasks.

    ``"fifo"`` keeps one task per entry in entry order.  ``"adaptive"``
    and ``"stealing"`` split points per :func:`_chunk_count` and order
    tasks by descending per-task cost, ties broken by (point, chunk).
    """
    check_mode(mode)
    if mode == "fifo":
        return [
            ScheduledTask(
                e.program_index, e.point_index, e.resolver, 0, 1, repetitions
            )
            for e in entries
        ]
    total = sum(float(e.cost) for e in entries)
    keyed = []
    for e in entries:
        cost = float(e.cost)
        chunks = _chunk_count(cost, total, repetitions, num_workers, mode)
        if chunks == 1:
            keyed.append(
                (cost, ScheduledTask(
                    e.program_index, e.point_index, e.resolver, 0, 1,
                    repetitions,
                ))
            )
            continue
        sizes = _chunk_sizes(repetitions, chunks)
        for chunk, size in enumerate(sizes):
            keyed.append(
                (cost * size / repetitions, ScheduledTask(
                    e.program_index, e.point_index, e.resolver, chunk,
                    len(sizes), size,
                ))
            )
    keyed.sort(
        key=lambda item: (-item[0], item[1].point_index, item[1].chunk_index)
    )
    return [task for _, task in keyed]


__all__ = [
    "BatchEntry",
    "GRANULARITY",
    "MIN_CHUNK_REPETITIONS",
    "MODES",
    "OVERSUBSCRIBE",
    "ScheduledTask",
    "estimate_cost",
    "estimate_job_cost",
    "schedule",
]
