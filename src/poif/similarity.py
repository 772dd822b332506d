"""Temperature-scaled similarity between embedded segments.

The similarity between two segments in one modality is the negative
squared Euclidean distance of their embeddings divided by a temperature:
larger (closer to zero) means more alike.  The joint audio-visual
similarity is defined as the sum of the two single-modality similarities,
video term first: the stored planes are added rather than distances
recomputed on concatenated vectors, so the identity holds bit-exactly.
The loss and the scorer both get that stack from ``similarity_stack``,
the one place it is built, over the one distance kernel.  This module
also holds the fixed-shape row blocks that inference runs on.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .exceptions import ConfigError

# Byte budget for one row block of inference: a (rows, m) float64
# similarity slice in best_matches, or an encoder block's input plus every
# layer's activations.  128 KB is 16 rows against a 1,000-segment
# reference.  Scoring 400 rows against 1,000 peaked at 1.2 MB with it, and
# at 6.7 MB with 1 MB slices: twice the 3.2 MB of the whole matrix.
_SLICE_BYTES = 1 << 17


def rows_per_block(width: int) -> int:
    """Rows per block of ``width`` float64 values a row (at least 1)."""
    return max(1, _SLICE_BYTES // max(8 * width, 1))


def padded_blocks(x: np.ndarray, rows: int):
    """Yield (start, stop, block): x's rows start..stop as exactly ``rows`` rows.

    The last block is zero-padded past stop.  BLAS picks its path and its
    summation order by shape, so a product over blocks of one fixed shape
    gives each row the same bits alone, shifted, or among any neighbours.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    for start in range(0, len(x), rows):
        stop = min(start + rows, len(x))
        block = x[start:stop]
        if stop - start < rows:
            block = np.zeros((rows, x.shape[1]))
            block[:stop - start] = x[start:stop]
        yield start, stop, block


def check_temperature(tau: float) -> float:
    tau = float(tau)
    if not tau > 0.0:
        raise ConfigError(f"temperature must be positive, got {tau}")
    return tau


@lru_cache(maxsize=4)
def _triangles(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (n, n) bool masks: the strict lower triangle, and the rest."""
    lower = np.tri(n, k=-1, dtype=bool)
    rest = ~lower
    lower.flags.writeable = rest.flags.writeable = False
    return lower, rest


def squared_distance_matrix(
    x: np.ndarray, y: np.ndarray | None = None, y_sq: np.ndarray | None = None
) -> np.ndarray:
    """All pairwise squared distances between rows of x and rows of y.

    Gram form: ||x_i||^2 + ||y_j||^2 - 2 x_i.y_j, from one matrix product
    and two in-place broadcasts, clamped at 0 where cancellation would
    leave a tiny negative.  Besides the (n, m) float64 result there is no
    temporary larger than a vector (plus two (n, n) bool masks for the
    y-omitted form, cached per n), and no row blocking.  ``y_sq`` passes
    y's squared row norms, ``np.einsum("ij,ij->i", y, y)``, precomputed.

    Error bound: the product, the norms and the two additions each round,
    so an entry is within about (2d + 4) * eps * (||x_i||^2 + ||y_j||^2) of
    the exact distance (d the dimension, eps the float64 machine epsilon),
    whatever order the BLAS sums in.  A one-row x goes through a different
    BLAS routine than the same row inside a larger x, so the two can differ
    in the last bits, within that bound (``padded_blocks`` removes that).

    With y omitted the result is exactly symmetric with an exactly zero
    diagonal.  x @ x.T is exactly symmetric (numpy's BLAS path computes one
    triangle and mirrors it; its fallback loop sums every pair in the same
    order), the norms are its diagonal, and the entries (i, j) and
    (j, i) go through the same operations: -2g, plus the norm of the
    smaller index, plus the norm of the larger.  On the diagonal that is
    (-2a + a) + a, which is 0 exactly.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-d embedding matrix, got shape {x.shape}")
    if y is None:
        out = x @ x.T
        sq = out.diagonal().copy()
        out *= -2.0
        # Masks, not a materialized ||x_i||^2 + ||x_j||^2: that would be a
        # second (n, n) float64 array, and each bool mask is an eighth of one.
        # Upper triangle and diagonal: + ||x_i||^2, then + ||x_j||^2.
        # Lower triangle: the same two norms in the other order.
        lower, rest = _triangles(len(x))
        np.add(out, sq[:, None], out=out, where=rest)
        out += sq[None, :]
        np.add(out, sq[:, None], out=out, where=lower)
    else:
        y = np.asarray(y, dtype=np.float64)
        if y.ndim != 2 or y.shape[1] != x.shape[1]:
            raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
        out = x @ y.T
        out *= -2.0
        out += np.einsum("ij,ij->i", x, x)[:, None]
        out += (np.einsum("ij,ij->i", y, y) if y_sq is None else y_sq)[None, :]
    return np.maximum(out, 0.0, out=out)


def similarity_stack(x_audio, x_video, tau, ref_audio=None, ref_video=None,
                     ref_sq=(None, None)) -> np.ndarray:
    """(3, n, m) similarities in CHANNELS order: video, audio, joint = video + audio.

    A modality's plane is its squared distances d over -tau: the bits of
    -(d / tau) under round-to-nearest.  With no reference the batch is
    compared with itself (m = n) and every plane is exactly symmetric.
    ``ref_sq``: the reference's (video, audio) squared row norms, or None.
    """
    tau = check_temperature(tau)
    m = len(x_audio) if ref_audio is None else len(ref_audio)
    sims = np.empty((3, len(x_audio), m))
    for plane, x, y, y_sq in zip(sims, (x_video, x_audio), (ref_video, ref_audio), ref_sq):
        np.divide(squared_distance_matrix(x, y, y_sq), -tau, out=plane)
    np.add(sims[0], sims[1], out=sims[2])
    return sims
