"""Temperature-scaled similarity between embedded segments.

The similarity between two segments in one modality is the negative
squared Euclidean distance of their embeddings divided by a temperature:
larger (closer to zero) means more alike.  The joint audio-visual
similarity is defined as the sum of the two single-modality similarities,
audio term first.  Callers (the loss and the scorer) add the two stored
similarity matrices rather than recompute distances on concatenated
vectors, so the identity holds bit-exactly.  This module holds the one
distance kernel both of them use.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConfigError


def check_temperature(tau: float) -> float:
    tau = float(tau)
    if not tau > 0.0:
        raise ConfigError(f"temperature must be positive, got {tau}")
    return tau


# Byte budget for one row block's (rows, m, d) float64 difference
# temporary, small enough to stay in a core's L2 cache.  On a 2-CPU Xeon
# (2 MB L2 per core) 1000x1000 distances at d=32 took 68 ms against
# 209 ms unblocked; budgets of 256 KB to 1 MB measured alike, 2-4 MB slower.
_BLOCK_BYTES = 1 << 20


def rows_per_block(m: int, d: int) -> int:
    """Rows of x per block against m rows of y in d dimensions (at least 1)."""
    return max(1, _BLOCK_BYTES // max(8 * m * d, 1))


def squared_distance_matrix(x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """All pairwise squared distances between rows of x and rows of y.

    With y omitted the result is exactly symmetric with an exactly zero
    diagonal, because entries are computed from explicit row differences
    rather than the expanded dot-product form.

    Memory is bounded: besides the (n, m) float64 result, the only
    temporary is one block of row differences of at most ``_BLOCK_BYTES``
    (1 MB), or one row's (m, d) differences when a single row exceeds it.
    Each entry still sums its own d squared differences in one reduction,
    so the result does not depend on the blocking, bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-d embedding matrix, got shape {x.shape}")
    if y is None:
        y = x
    else:
        y = np.asarray(y, dtype=np.float64)
        if y.ndim != 2 or y.shape[1] != x.shape[1]:
            raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    n, d = x.shape
    # A call that fits in one block runs the loop once: at d=32 that
    # measured no slower than a separate unblocked path (64x64: 290-316
    # against 342-407 us; 10x100: 79-89 against 77-85 us).
    rows = min(rows_per_block(len(y), d), max(n, 1))
    out = np.empty((n, len(y)))
    block = np.empty((rows, len(y), d))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        diff = block[: stop - start]
        np.subtract(x[start:stop, None, :], y[None, :, :], out=diff)
        np.multiply(diff, diff, out=diff)
        diff.sum(axis=-1, out=out[start:stop])
    return out
