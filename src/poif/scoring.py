"""Reference-set verification: similarity indices, calibration, decisions.

A claimed identity is checked against a reference set of pristine
segments of that person.  The raw index of a test segment in one modality
is its best (maximum) similarity to any reference segment.  Raw indices
are normalized with mean and spread estimated on the reference itself in
leave-own-video-out fashion: each reference segment is scored against the
other reference videos only, never against its own, because same-video
pairs share recording conditions and would shrink the estimated spread.
Under that normalization, genuine material scores like a standard normal,
so a decision threshold is just a normal quantile at the accepted
false-alarm rate.  The fused statistic is the minimum of the three
normalized indices: a clip is only as trustworthy as its worst channel.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Mapping

import numpy as np

from .encoder import EncoderParams, encode_batch
from .exceptions import ConfigError, DataError, DegenerateReferenceError
from .records import ALL_MODALITIES, FAKE, REAL, Modality, SegmentTable
from .similarity import check_temperature, squared_distance_matrix

FUSED = "fused"

SIGMA_FLOOR = 1e-9

_STD_NORMAL = NormalDist()

# Byte budget for one (rows, m) float64 similarity slice in best_matches.
# 128 KB is 16 rows against a 1,000-segment reference.  Scoring 400 rows
# against 1,000 peaked at 1.2 MB with it, and at 6.7 MB with 1 MB slices:
# twice the 3.2 MB of the whole similarity matrix.
_SLICE_BYTES = 1 << 17


def rows_per_block(m: int) -> int:
    """Rows per best_matches slice against m reference rows (at least 1)."""
    return max(1, _SLICE_BYTES // max(8 * m, 1))


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


@dataclass(frozen=True)
class DecisionPolicy:
    """Accepted false-alarm rate and the implied threshold on normalized scores."""

    p_fa: float = 0.1
    threshold: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "threshold", quantile_threshold(self.p_fa))


@dataclass(eq=False)
class ReferenceSet:
    """Embedded pristine segments of one person, with calibration stats.

    mu and sigma are the mean and population spread of the leave-own-video-out
    self-scores per modality; self_scores keeps the per-segment values for
    diagnostics.
    """

    poi_id: str
    video_ids: tuple[str, ...]
    audio: np.ndarray
    video: np.ndarray
    mu: dict[Modality, float]
    sigma: dict[Modality, float]
    self_scores: dict[Modality, np.ndarray]

    def __len__(self) -> int:
        return len(self.video_ids)

    @property
    def n_videos(self) -> int:
        return len(set(self.video_ids))


def _similarity_rows(x_audio, x_video, ref_audio, ref_video, tau):
    """Test-versus-reference similarities per modality; joint = audio + video."""
    s_a = -(squared_distance_matrix(x_audio, ref_audio) / tau)
    s_v = -(squared_distance_matrix(x_video, ref_video) / tau)
    return {Modality.AUDIO: s_a, Modality.VIDEO: s_v, Modality.AV: s_a + s_v}


def best_matches(x_audio, x_video, ref_audio, ref_video, tau, groups=None):
    """Each row's best similarity to any reference row, per modality.

    Rows go in blocks of ``rows_per_block(m)``, so each similarity matrix
    is alive only as a (rows, m) slice of at most ``_SLICE_BYTES`` (128 KB;
    one row when a single row is larger), never as the whole n-by-m
    matrix.  ``groups`` is for calibration, where the rows are the
    reference itself: it gives each row an integer group code, and pairs
    within one group are skipped.
    """
    n = len(x_audio)
    rows = rows_per_block(len(ref_audio))
    best = {m: np.empty(n) for m in ALL_MODALITIES}
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        sims = _similarity_rows(
            x_audio[start:stop], x_video[start:stop], ref_audio, ref_video, tau
        )
        if groups is not None:
            skipped = groups[start:stop, None] == groups[None, :]
            for m in ALL_MODALITIES:
                sims[m][skipped] = -np.inf
        for m in ALL_MODALITIES:
            best[m][start:stop] = sims[m].max(axis=1)
    return best


def build_reference(
    table: SegmentTable,
    params: EncoderParams,
    tau: float,
    *,
    exclude_same_video: bool = True,
) -> ReferenceSet:
    """Embed one person's pristine segments and calibrate their self-scores.

    The rows are embedded as one batch, in table order.  With
    ``exclude_same_video`` (the default), at least two distinct videos are
    required and every self-score ignores same-video partners.  Passing
    False relaxes the exclusion to the segment itself, which is the only
    usable protocol for a single-video reference; expect optimistic spread
    estimates there.
    """
    tau = check_temperature(tau)
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

    video_ids = tuple(table.video_ids.tolist())
    n_videos = len(set(video_ids))
    if exclude_same_video and n_videos < 2:
        raise DataError(
            f"reference needs at least 2 distinct videos for leave-own-video-out "
            f"calibration; got {n_videos}"
        )
    if not exclude_same_video and len(table) < 2:
        raise DataError("reference needs at least 2 segments")
    if below_nominal(n_videos, len(table)):
        warnings.warn(
            f"reference for {poi_id!r} has {n_videos} videos / {len(table)} segments, "
            f"below the nominal 10-video / 100-segment regime",
            SmallReferenceWarning,
            stacklevel=2,
        )

    x_audio, x_video = encode_batch(params, table.audio, table.video)
    # A self-score skips partners in its own group: its video, or only itself.
    if exclude_same_video:
        groups = np.unique(table.video_ids, return_inverse=True)[1]
    else:
        groups = np.arange(len(table))
    self_scores = best_matches(x_audio, x_video, x_audio, x_video, tau, groups)

    mu: dict[Modality, float] = {}
    sigma: dict[Modality, float] = {}
    for m in ALL_MODALITIES:
        scores = self_scores[m]
        mu[m] = float(scores.mean())
        sigma[m] = float(scores.std())
        if sigma[m] < SIGMA_FLOOR:
            raise DegenerateReferenceError(
                f"reference for {poi_id!r} is degenerate: {m.value} self-scores have "
                f"spread {sigma[m]:.3g} below the floor {SIGMA_FLOOR:.3g}"
            )

    return ReferenceSet(
        poi_id=poi_id,
        video_ids=video_ids,
        audio=x_audio,
        video=x_video,
        mu=mu,
        sigma=sigma,
        self_scores=self_scores,
    )


@dataclass(eq=False)
class StackVerdict:
    """Verdicts for a stack of clips of n_segments segments each.

    ``normalized`` and ``fused`` hold each clip's means of the normalized
    indices and of the fused value, ``decisions`` each clip's verdict.
    """

    n_segments: int
    normalized: dict[Modality, np.ndarray]
    fused: np.ndarray
    decisions: list[str]
    statistic_used: str

    @property
    def statistic_value(self) -> np.ndarray:
        if self.statistic_used == FUSED:
            return self.fused
        return self.normalized[Modality(self.statistic_used)]


def score_video(
    raw: Mapping[Modality, np.ndarray],
    ref: ReferenceSet,
    policy: DecisionPolicy,
    statistic: Modality | str = FUSED,
) -> StackVerdict:
    """Verdicts for a (clips, L) stack of segments' raw indices (``best_matches``).

    Each segment's raw index is normalized with the reference's mu and
    sigma, and the fused value is the worst of the three.  A clip's
    statistic is the plain mean of its per-segment normalized (or fused)
    values, so longer clips average down the per-segment noise; each mean
    runs over a contiguous row, which gives the bits of a 1-D mean of that
    clip alone.  A clip is fake when the chosen statistic falls below the
    policy threshold.
    """
    if not raw[Modality.AUDIO].size:
        raise DataError("no test segments to score")
    if statistic != FUSED:
        try:
            statistic = Modality(statistic)
        except ValueError:
            raise ConfigError(f"unknown statistic {statistic!r}") from None

    normalized = {m: (raw[m] - ref.mu[m]) / ref.sigma[m] for m in ALL_MODALITIES}
    fused_per_segment = np.minimum(
        np.minimum(normalized[Modality.AUDIO], normalized[Modality.VIDEO]),
        normalized[Modality.AV],
    )

    means = {m: normalized[m].mean(axis=-1) for m in ALL_MODALITIES}
    fused = fused_per_segment.mean(axis=-1)
    value = fused if statistic == FUSED else means[statistic]
    return StackVerdict(
        n_segments=raw[Modality.AUDIO].shape[-1],
        normalized=means,
        fused=fused,
        decisions=np.where(value < policy.threshold, FAKE, REAL).tolist(),
        statistic_used=FUSED if statistic == FUSED else statistic.value,
    )
