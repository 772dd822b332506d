"""Detection metrics.

AUC follows the rank-sum convention with half credit for ties, computed
from midranks; it agrees exactly with the quadratic pairwise count
because both numerators are sums of halves.  Detection probability is
read at an empirical false-alarm quantile of the genuine scores.  All
metrics take a 1-D score array and an aligned bool mask of the real
entries; genuine material is expected to score above fakes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import UndefinedMetricError


@dataclass(frozen=True)
class MetricsReport:
    auc: float | None
    accuracy: float | None
    pd_at_fa: float | None
    n_real: int
    n_fake: int


def auc(scores, is_real) -> float:
    """Probability that a random real outscores a random fake, ties at half.

    ``scores`` and the bool mask ``is_real`` are 1-D and aligned.
    """
    scores = np.asarray(scores, dtype=np.float64)
    is_real = np.asarray(is_real, dtype=bool)
    n_real = int(is_real.sum())
    n_fake = len(scores) - n_real
    if n_real == 0 or n_fake == 0:
        raise UndefinedMetricError(
            f"AUC undefined with {n_real} real and {n_fake} fake samples"
        )
    # Equal scores share the midrank of their run of sorted positions.
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    rank_sum = ranks[is_real].sum()
    return float((rank_sum - n_real * (n_real + 1) / 2.0) / (n_real * n_fake))


def pd_at_fa(scores, is_real, fa: float = 0.1) -> float:
    """Fraction of fakes below the empirical fa-quantile of the real scores.

    The threshold is the ceil(fa * n_real)-th smallest real score and
    detection counts strictly-below scores, so the realized false-alarm
    rate never exceeds fa.
    """
    if not 0.0 < fa < 1.0:
        raise ValueError(f"false-alarm rate must lie in (0, 1), got {fa}")
    scores = np.asarray(scores, dtype=np.float64)
    is_real = np.asarray(is_real, dtype=bool)
    reals = np.sort(scores[is_real])
    fakes = scores[~is_real]
    if reals.size == 0 or fakes.size == 0:
        raise UndefinedMetricError(
            f"detection rate undefined with {reals.size} real and {fakes.size} fake samples"
        )
    # The small slack keeps an exact-integer product from ceiling upward
    # when the float rounds a hair above it.
    k = max(1, math.ceil(fa * reals.size - 1e-9))
    threshold = reals[k - 1]
    return float(np.mean(fakes < threshold))


def accuracy(scores, is_real, threshold: float) -> float:
    """Fraction classified correctly when fake means score below threshold."""
    scores = np.asarray(scores, dtype=np.float64)
    if not scores.size:
        raise ValueError("no samples")
    return float(np.mean((scores >= threshold) == np.asarray(is_real, dtype=bool)))
