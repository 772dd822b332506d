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
from typing import Sequence

import numpy as np

from .encoder import EncoderParams, encode_batch
from .exceptions import ConfigError, DataError, DegenerateReferenceError
from .records import ALL_MODALITIES, FAKE, REAL, Modality, SegmentRecord
from .similarity import check_temperature, rows_per_block, squared_distance_matrix

FUSED = "fused"
STATISTICS = (Modality.AUDIO, Modality.VIDEO, Modality.AV, FUSED)

SIGMA_FLOOR = 1e-9

_STD_NORMAL = NormalDist()


class SmallReferenceWarning(UserWarning):
    """Reference set is below the nominal 10-video / 100-segment regime."""


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


def _self_scores(x_audio, x_video, groups, tau):
    """Each reference segment's best similarity to segments of other groups.

    Rows go in the distance kernel's row blocks, so only a block-by-n
    slice of each similarity matrix and mask is alive at a time, never an
    n-by-n matrix.
    """
    n = len(groups)
    rows = rows_per_block(n, max(x_audio.shape[1], x_video.shape[1]))
    scores = {m: np.empty(n) for m in ALL_MODALITIES}
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        sims = _similarity_rows(
            x_audio[start:stop], x_video[start:stop], x_audio, x_video, tau
        )
        allowed = groups[start:stop, None] != groups[None, :]
        for m in ALL_MODALITIES:
            scores[m][start:stop] = np.where(allowed, sims[m], -np.inf).max(axis=1)
    return scores


def build_reference(
    segments: Sequence[SegmentRecord],
    params: EncoderParams,
    tau: float,
    *,
    exclude_same_video: bool = True,
    sigma_floor: float = SIGMA_FLOOR,
) -> ReferenceSet:
    """Embed pristine segments of one person and calibrate their self-scores.

    With ``exclude_same_video`` (the default), at least two distinct
    videos are required and every self-score ignores same-video partners.
    Passing False relaxes the exclusion to the segment itself, which is the
    only usable protocol for a single-video reference; expect optimistic
    spread estimates there.
    """
    tau = check_temperature(tau)
    if not segments:
        raise DataError("empty reference")
    poi_id = segments[0].identity_id
    for seg in segments:
        if seg.identity_id != poi_id:
            raise DataError(
                f"reference mixes identities {poi_id!r} and {seg.identity_id!r}"
            )
        if seg.flags.is_fake:
            raise DataError(f"reference segments must be pristine; found {seg.key}")

    video_ids = tuple(seg.video_id for seg in segments)
    n_videos = len(set(video_ids))
    if exclude_same_video and n_videos < 2:
        raise DataError(
            f"reference needs at least 2 distinct videos for leave-own-video-out "
            f"calibration; got {n_videos}"
        )
    if not exclude_same_video and len(segments) < 2:
        raise DataError("reference needs at least 2 segments")
    if n_videos < 10 or len(segments) < 100:
        warnings.warn(
            f"reference for {poi_id!r} has {n_videos} videos / {len(segments)} segments, "
            f"below the nominal 10-video / 100-segment regime",
            SmallReferenceWarning,
            stacklevel=2,
        )

    x_audio, x_video = encode_batch(params, segments)
    # A self-score skips partners in its own group: its video, or only itself.
    if exclude_same_video:
        groups = np.unique(video_ids, return_inverse=True)[1]
    else:
        groups = np.arange(len(segments))
    self_scores = _self_scores(x_audio, x_video, groups, tau)

    mu: dict[Modality, float] = {}
    sigma: dict[Modality, float] = {}
    for m in ALL_MODALITIES:
        scores = self_scores[m]
        mu[m] = float(scores.mean())
        sigma[m] = float(scores.std())
        if sigma[m] < sigma_floor:
            raise DegenerateReferenceError(
                f"reference for {poi_id!r} is degenerate: {m.value} self-scores have "
                f"spread {sigma[m]:.3g} below the floor {sigma_floor:.3g}"
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
class VideoVerdict:
    """Per-video means of the normalized indices and of the fused value."""

    video_id: str
    n_segments: int
    normalized: dict[Modality, float]
    fused: float
    decision: str
    statistic_used: str

    @property
    def statistic_value(self) -> float:
        if self.statistic_used == FUSED:
            return self.fused
        return self.normalized[Modality(self.statistic_used)]


def score_video(
    test_segments: Sequence[SegmentRecord],
    ref: ReferenceSet,
    params: EncoderParams,
    tau: float,
    policy: DecisionPolicy,
    statistic: Modality | str = FUSED,
) -> VideoVerdict:
    """Score a clip: per-segment indices, averaged after normalization.

    Segments are scored individually; the per-video statistic is the plain
    mean of the per-segment normalized (or fused) values, so longer clips
    average down the per-segment noise.  The verdict is fake when the
    chosen statistic falls below the policy threshold.
    """
    tau = check_temperature(tau)
    if not test_segments:
        raise DataError("no test segments to score")
    if statistic != FUSED:
        try:
            statistic = Modality(statistic)
        except ValueError:
            raise ConfigError(f"unknown statistic {statistic!r}") from None

    x_audio, x_video = encode_batch(params, test_segments)
    sims = _similarity_rows(x_audio, x_video, ref.audio, ref.video, tau)

    raw = {m: sims[m].max(axis=1) for m in ALL_MODALITIES}
    normalized = {m: (raw[m] - ref.mu[m]) / ref.sigma[m] for m in ALL_MODALITIES}
    fused_per_segment = np.minimum(
        np.minimum(normalized[Modality.AUDIO], normalized[Modality.VIDEO]),
        normalized[Modality.AV],
    )

    means = {m: float(normalized[m].mean()) for m in ALL_MODALITIES}
    fused = float(fused_per_segment.mean())
    value = fused if statistic == FUSED else means[statistic]
    decision = FAKE if value < policy.threshold else REAL
    return VideoVerdict(
        video_id=test_segments[0].video_id,
        n_segments=len(test_segments),
        normalized=means,
        fused=fused,
        decision=decision,
        statistic_used=FUSED if statistic == FUSED else statistic.value,
    )
