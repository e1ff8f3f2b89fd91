"""Porter-Thomas statistics of random-circuit output distributions.

Deep random circuits produce bitstring probabilities distributed as
``Pr(p) = N e^{-N p}`` (exponential with mean ``1/N``, ``N = 2^n``) — the
Porter-Thomas law underpinning the XEB certification discussed in the
paper's introduction.  These helpers test whether a distribution (ideal
or empirical) has converged to that law.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np


def porter_thomas_pdf(p: np.ndarray, dim: int) -> np.ndarray:
    """The PT density ``N e^{-N p}`` over probabilities ``p``."""
    p = np.asarray(p, dtype=float)
    return dim * np.exp(-dim * p)


def porter_thomas_test(
    probabilities: np.ndarray,
    *,
    renormalize: bool = False,
    atol: float = 1e-6,
) -> Tuple[float, float]:
    """Kolmogorov-Smirnov test of probabilities against Porter-Thomas.

    Args:
        probabilities: A full output distribution (length ``2^n``).  By
            default it must sum to 1 within ``atol``; empirical
            estimates (histogram counts, truncated or sampled
            distributions) whose mass drifts further are accepted by
            passing ``renormalize=True``.
        renormalize: When True, scale the distribution to unit mass
            before testing instead of rejecting it.  The KS statistic is
            scale-invariant only after this normalization, so an
            un-normalized empirical estimate must opt in explicitly.
        atol: Tolerance on ``sum(probabilities) - 1`` before the
            distribution is considered un-normalized.

    Returns:
        ``(ks_statistic, p_value)``; a large p-value means consistent
        with Porter-Thomas.

    Raises:
        ValueError: If the input is not a 1-D distribution with at least
            two entries, has negative/non-finite entries, or (without
            ``renormalize=True``) does not sum to 1 within ``atol``.
    """
    probs = np.asarray(probabilities, dtype=float)
    if probs.ndim != 1 or probs.size < 2:
        raise ValueError("Need a 1-D distribution with >= 2 entries")
    if not np.all(np.isfinite(probs)) or np.any(probs < 0):
        raise ValueError(
            "Probabilities must be finite and non-negative"
        )
    total = float(probs.sum())
    if abs(total - 1.0) > atol:
        if not renormalize:
            raise ValueError(
                f"Probabilities sum to {total}, expected 1 within "
                f"atol={atol}; pass renormalize=True to accept an "
                "empirical/unnormalized estimate (it is scaled to unit "
                "mass before testing)"
            )
        if total <= 0:
            raise ValueError(
                f"Cannot renormalize a distribution with total mass {total}"
            )
        probs = probs / total
    dim = probs.size
    # Imported on use: it adds ~45 MB to every process importing repro.
    import scipy.stats

    # Under PT, N*p is Exp(1).
    statistic, p_value = scipy.stats.kstest(dim * probs, "expon")
    return float(statistic), float(p_value)


def collision_probability(probabilities: np.ndarray) -> float:
    """``sum_b p(b)^2`` — 2/N for Porter-Thomas, 1/N for uniform."""
    probs = np.asarray(probabilities, dtype=float)
    return float(np.sum(probs**2))


def pt_collision_ratio(probabilities: np.ndarray) -> float:
    """Collision probability in units of 1/N: ~2 for PT, ~1 for uniform."""
    probs = np.asarray(probabilities, dtype=float)
    return collision_probability(probs) * probs.size


def expected_linear_xeb(probabilities: np.ndarray) -> float:
    """The XEB score an ideal sampler of this distribution would attain.

    ``N sum_b p(b)^2 - 1``: 1 for Porter-Thomas, 0 for uniform.  Useful as
    the reference line when scoring the BGLS sampler's empirical XEB.
    """
    return pt_collision_ratio(probabilities) - 1.0


def shannon_entropy(probabilities: np.ndarray, base: float = 2.0) -> float:
    """Entropy of a distribution; ``n`` bits for uniform over ``2^n``."""
    probs = np.asarray(probabilities, dtype=float)
    nonzero = probs[probs > 0]
    return float(-(nonzero * np.log(nonzero)).sum() / math.log(base))


def pt_expected_entropy(dim: int) -> float:
    """Porter-Thomas entropy ``log2(N) - (1 - gamma)/ln 2`` bits."""
    return math.log2(dim) - (1.0 - np.euler_gamma) / math.log(2.0)
