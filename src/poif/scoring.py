"""Reference-set verification: similarity indices, calibration, per-clip statistics.

A claimed identity is checked against a reference set of pristine
segments of that person.  The raw index of a test segment in one modality
is its best (maximum) similarity to any reference segment, in the stack
the loss trains on (``similarity.similarity_stack`` serves both).  Raw
indices are normalized with mean and spread estimated on the reference
itself in leave-own-video-out fashion: each reference segment is scored
against the other reference videos only, never against its own, because
same-video pairs share recording conditions and would shrink the spread.
Under that normalization, genuine material scores like a standard normal,
so a decision threshold is just a normal quantile at the accepted
false-alarm rate.  The fused statistic is the minimum of the three
normalized indices: a clip is only as trustworthy as its worst channel.
A reference below the nominal 10-video / 100-segment regime
(``below_nominal``) is calibrated all the same; ``build_reference`` stays
silent about it, and ``experiments.build_references`` names every such
person of one run in one SmallReferenceWarning.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .exceptions import ConfigError, DataError, DegenerateReferenceError
from .records import CHANNELS, SegmentTable
from .similarity import check_temperature, padded_blocks, rows_per_block, similarity_stack

SIGMA_FLOOR = 1e-9

_STD_NORMAL = NormalDist()

class SmallReferenceWarning(UserWarning):
    """Reference set is below the nominal 10-video / 100-segment regime."""


def below_nominal(n_videos: int, n_segments: int) -> bool:
    """True for a reference that SmallReferenceWarning is about."""
    return n_videos < 10 or n_segments < 100


def quantile_threshold(p_fa: float) -> float:
    """Standard-normal quantile for an accepted false-alarm rate."""
    p_fa = float(p_fa)
    if not 0.0 < p_fa < 1.0:
        raise ConfigError(f"false-alarm rate must lie in (0, 1), got {p_fa}")
    return _STD_NORMAL.inv_cdf(p_fa)


@dataclass(eq=False)
class ReferenceSet:
    """Embedded pristine segments of one person, with calibration stats.

    n_videos counts the distinct videos the segments come from.  mu and
    sigma are the (3,) means and population spreads of the
    leave-own-video-out self-scores per channel, in CHANNELS order (video,
    audio, av); self_scores keeps the (3, n) per-segment values for
    diagnostics.
    """

    n_videos: int
    audio: np.ndarray
    video: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    self_scores: np.ndarray

    def __len__(self) -> int:
        return len(self.audio)


def best_matches(x_audio, x_video, ref_audio, ref_video, tau, groups=None):
    """Each row's best similarity to any reference row, as a (3, n) channel stack.

    Rows go in zero-padded blocks of ``rows_per_block(m)`` rows
    (``similarity.padded_blocks``): each similarity matrix is alive only as
    a (rows, m) slice within the 128 KB budget, and a row's best matches
    have the same bits alone, shifted or among any neighbours.  The
    reference's row norms are computed once for all blocks.  ``groups`` is
    for calibration, where the rows are the reference itself: it gives
    each row an integer group code, and pairs within one group are skipped.
    """
    rows = rows_per_block(len(ref_audio))
    best = np.empty((len(CHANNELS), len(x_audio)))
    ref_sq = [np.einsum("ij,ij->i", y, y) for y in (ref_video, ref_audio)]
    for (start, stop, xa), (_, _, xv) in zip(padded_blocks(x_audio, rows),
                                             padded_blocks(x_video, rows)):
        sims = similarity_stack(xa, xv, tau, ref_audio, ref_video, ref_sq)[:, :stop - start]
        if groups is not None:
            np.copyto(sims, -np.inf, where=groups[start:stop, None] == groups[None, :])
        sims.max(axis=2, out=best[:, start:stop])
    return best


def check_reference(table: SegmentTable, *, exclude_same_video: bool = True
                    ) -> tuple[int, np.ndarray]:
    """The checks of one person's pristine segments that need no embedding.

    With ``exclude_same_video`` (the default), at least two distinct videos
    are required and every self-score ignores same-video partners.  Passing
    False relaxes the exclusion to the segment itself, which is the only
    usable protocol for a single-video reference; expect optimistic spread
    estimates there.  Returns the number of distinct videos and each row's
    self-score group: its video's code, or only itself.
    """
    if not len(table):
        raise DataError("empty reference")
    poi_id = str(table.identity_ids[0])
    other = table.identity_ids != poi_id
    bad = np.flatnonzero(other | table.flags[:, 0])
    if len(bad):
        row = bad[0]
        if other[row]:
            raise DataError(
                f"reference mixes identities {poi_id!r} and {str(table.identity_ids[row])!r}"
            )
        raise DataError(f"reference segments must be pristine; found {table.key(row)}")

    names, codes = np.unique(table.video_ids, return_inverse=True)
    n_videos = len(names)
    if exclude_same_video and n_videos < 2:
        raise DataError(
            f"reference for {poi_id!r} needs at least 2 distinct videos for "
            f"leave-own-video-out calibration; got {n_videos}"
        )
    if not exclude_same_video and len(table) < 2:
        raise DataError(f"reference for {poi_id!r} needs at least 2 segments")
    return n_videos, codes if exclude_same_video else np.arange(len(table))


def build_reference(
    table: SegmentTable,
    embedded: tuple[np.ndarray, np.ndarray],
    tau: float,
    checked: tuple[int, np.ndarray],
) -> ReferenceSet:
    """Calibrate one person's pristine segments on their embedding.

    ``embedded`` holds the (audio, video) embeddings of the table's rows,
    in table order (``encode_batch``), and ``checked`` the table's
    ``check_reference`` result, which callers take before embedding.
    """
    tau = check_temperature(tau)
    n_videos, groups = checked
    x_audio, x_video = embedded
    self_scores = best_matches(x_audio, x_video, x_audio, x_video, tau, groups)

    sigma = self_scores.std(axis=1)
    low = np.flatnonzero(sigma < SIGMA_FLOOR)
    if len(low):
        c = low[0]
        raise DegenerateReferenceError(
            f"reference for {str(table.identity_ids[0])!r} is degenerate: {CHANNELS[c]} "
            f"self-scores have spread {sigma[c]:.3g} below the floor {SIGMA_FLOOR:.3g}"
        )

    return ReferenceSet(
        n_videos=n_videos,
        audio=x_audio,
        video=x_video,
        mu=self_scores.mean(axis=1),
        sigma=sigma,
        self_scores=self_scores,
    )


def score_video(raw: np.ndarray, ref: ReferenceSet) -> tuple[np.ndarray, np.ndarray]:
    """Per-clip statistics of a (3, clips, L) stack of segments' raw indices (``best_matches``).

    Each segment's raw index is normalized with the reference's mu and
    sigma, and the fused value is the worst of the three channels.  A
    clip's statistics are the plain means of its per-segment normalized
    and fused values, so longer clips average down the per-segment noise.
    Returns the (3, clips) channel means in CHANNELS order and the
    (clips,) fused means; the decision is the caller's.  The stack is
    made C-contiguous first, so each mean runs over a contiguous row and
    gives the bits of a 1-D mean of that clip alone, whatever the
    caller's layout.
    """
    raw = np.ascontiguousarray(raw, dtype=np.float64)
    if raw.ndim != 3 or len(raw) != len(CHANNELS):
        raise DataError(f"expected a (3, clips, L) stack of raw indices, got {raw.shape}")
    if not raw.size:
        raise DataError("no test segments to score")

    normalized = (raw - ref.mu[:, None, None]) / ref.sigma[:, None, None]
    return normalized.mean(axis=-1), normalized.min(axis=0).mean(axis=-1)
