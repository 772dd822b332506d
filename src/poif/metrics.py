"""Detection metrics.

AUC follows the rank-sum convention with half credit for ties, computed
from midranks; it agrees exactly with the quadratic pairwise count
because both numerators are sums of halves.  Detection probability is
read at an empirical false-alarm quantile of the genuine scores.  All
metrics take real-labeled-high score sets: genuine material is expected
to score above fakes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import UndefinedMetricError
from .records import FAKE, REAL
from .scoring import DecisionPolicy


@dataclass(frozen=True)
class ScoreSample:
    """One scored video: higher scores mean more genuine."""

    score: float
    label: str

    def __post_init__(self):
        if self.label not in (REAL, FAKE):
            raise ValueError(f"label must be {REAL!r} or {FAKE!r}, got {self.label!r}")


@dataclass(frozen=True)
class MetricsReport:
    auc: float | None
    accuracy: float | None
    pd_at_fa: float | None
    n_real: int
    n_fake: int


def _split(samples: Sequence[ScoreSample]):
    scores = np.array([s.score for s in samples], dtype=np.float64)
    is_real = np.array([s.label == REAL for s in samples], dtype=bool)
    return scores, is_real


def auc(samples: Sequence[ScoreSample]) -> float:
    """Probability that a random real outscores a random fake, ties at half."""
    scores, is_real = _split(samples)
    n_real = int(is_real.sum())
    n_fake = len(samples) - n_real
    if n_real == 0 or n_fake == 0:
        raise UndefinedMetricError(
            f"AUC undefined with {n_real} real and {n_fake} fake samples"
        )
    order = np.argsort(scores, kind="stable")
    ranked = scores[order]
    ranks = np.empty(len(samples), dtype=np.float64)
    i = 0
    while i < len(samples):
        j = i
        while j < len(samples) and ranked[j] == ranked[i]:
            j += 1
        ranks[order[i:j]] = (i + 1 + j) / 2.0  # midrank of positions i+1 .. j
        i = j
    rank_sum = ranks[is_real].sum()
    return float((rank_sum - n_real * (n_real + 1) / 2.0) / (n_real * n_fake))


def pd_at_fa(samples: Sequence[ScoreSample], fa: float = 0.1) -> float:
    """Fraction of fakes below the empirical fa-quantile of the real scores.

    The threshold is the ceil(fa * n_real)-th smallest real score and
    detection counts strictly-below scores, so the realized false-alarm
    rate never exceeds fa.
    """
    if not 0.0 < fa < 1.0:
        raise ValueError(f"false-alarm rate must lie in (0, 1), got {fa}")
    scores, is_real = _split(samples)
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


def accuracy(samples: Sequence[ScoreSample], policy: DecisionPolicy) -> float:
    """Fraction classified correctly when fake means score below threshold."""
    if not samples:
        raise ValueError("no samples")
    scores, is_real = _split(samples)
    predicted_real = scores >= policy.threshold
    return float(np.mean(predicted_real == is_real))
