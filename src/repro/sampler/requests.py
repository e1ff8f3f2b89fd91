"""Shared request normalization for the public ``Simulator.run*`` surface.

Six entry points feed user input into the execution stack — ``run``,
``run_sweep``, ``run_sweep_iter``, ``run_batch``, ``run_batch_iter``, and
``sample_bitstrings_sweep``.  This module is the single source of truth
for their ``seed``/``repetitions``/``trajectory_mode`` validation and
defaults, and for the ``num_workers`` of ``ProcessPoolExecutor`` and
``SamplingService``: every error message below is part of the API
contract pinned by ``tests/test_error_contracts.py``, so the service tier
(and any other caller feeding untrusted input into a Simulator) sees one
typed, named error per bad argument regardless of which entry point it
hit.
"""

from __future__ import annotations

import os
from typing import Optional, Union

import numpy as np

TRAJECTORY_MODES = ("serial", "batched")


def normalize_seed(
    seed: Union[int, np.random.Generator, None],
) -> Union[int, np.random.Generator, None]:
    """Validate a user seed at the API boundary; returns it unchanged.

    Every execution path (serial, chunked, sweep, pooled) ultimately
    feeds the seed into ``numpy.random.SeedSequence``, which requires
    non-negative integers — fail here with a clear message instead of a
    deep NumPy error mid-run (or inside a pool worker).
    """
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ValueError(
            f"seed must be a non-negative integer, a numpy Generator, "
            f"or None; got seed={int(seed)}"
        )
    return seed


def _require_integer(name: str, value) -> None:
    """Reject anything but an ``int`` or ``np.integer`` (bools included)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def normalize_repetitions(repetitions: int) -> int:
    """Reject non-integer or non-positive repetition counts with the
    documented error."""
    _require_integer("repetitions", repetitions)
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    return repetitions


def normalize_trajectory_mode(trajectory_mode: str) -> str:
    """Reject unknown ``trajectory_mode`` values with the documented error."""
    if trajectory_mode not in TRAJECTORY_MODES:
        raise ValueError(
            "trajectory_mode must be 'serial' or 'batched', "
            f"got {trajectory_mode!r}"
        )
    return trajectory_mode


def normalize_num_workers(num_workers: Optional[int]) -> int:
    """A pool size: ``None`` means ``os.cpu_count()``; a non-integer or a
    count below 1 raises."""
    if num_workers is None:
        return os.cpu_count() or 1
    _require_integer("num_workers", num_workers)
    if num_workers < 1:
        raise ValueError(
            f"num_workers must be >= 1 or None, got {num_workers}"
        )
    return int(num_workers)
