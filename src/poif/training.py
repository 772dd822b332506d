"""Batch sampling and the contrastive training loop.

Batches hold a fixed number of identities with a fixed number of segments
each, and no two segments in a batch may come from the same video: within
one video the recording conditions are shared, so same-video pairs would
hand the loss a shortcut that does not transfer to unseen clips.

``train`` checks and indexes the dataset once (``index_training_set``);
each step then draws row indices and gathers the batch's feature rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .encoder import EncoderConfig, EncoderParams, init_encoder, loss_and_param_grads
from .exceptions import ConfigError, DataError
from .losses import LossReport, positive_sets
from .optim import OptimState, adamw_step, init_optim_state
from .records import SegmentTable
from .utils import as_rng


@dataclass
class TrainConfig:
    """Optimizer and schedule settings.

    The defaults mirror the full-scale recipe (constant learning rate
    1e-4, decoupled weight decay 0.01, temperature 0.01, 8 identities x 8
    segments, 12 epochs of 2304 batches); desk-scale runs override the
    schedule fields.
    """

    learning_rate: float = 1e-4
    weight_decay: float = 0.01
    tau: float = 0.01
    joint_weight: float = 1.0
    epochs: int = 12
    batches_per_epoch: int = 2304
    identities_per_batch: int = 8
    segments_per_identity: int = 8
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    seed: int = 0
    encoder: EncoderConfig = field(default_factory=EncoderConfig)

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be non-negative, got {self.weight_decay}")
        if not self.tau > 0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        if self.joint_weight < 0:
            raise ConfigError(f"joint_weight must be non-negative, got {self.joint_weight}")
        if self.epochs < 0 or self.batches_per_epoch < 1:
            raise ConfigError(
                f"bad schedule: epochs={self.epochs}, batches_per_epoch={self.batches_per_epoch}"
            )
        if self.identities_per_batch < 2:
            raise ConfigError(
                f"identities_per_batch must be >= 2, got {self.identities_per_batch}"
            )
        if self.segments_per_identity < 2:
            raise ConfigError(
                f"segments_per_identity must be >= 2, got {self.segments_per_identity}"
            )
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError(f"betas must lie in [0, 1), got {self.beta1}, {self.beta2}")
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")

    @property
    def total_steps(self) -> int:
        return self.epochs * self.batches_per_epoch


@dataclass(frozen=True)
class TrainStep:
    step: int
    loss: LossReport


@dataclass(eq=False)
class TrainState:
    """Everything needed to continue a run exactly where it stopped."""

    params: EncoderParams
    optim: OptimState
    rng_state: dict
    steps_done: int


@dataclass(eq=False)
class TrainResult:
    params: EncoderParams
    log: list[TrainStep]
    state: TrainState


@dataclass(frozen=True, eq=False)
class TrainingIndex:
    """A training set prepared once, so that every step runs on arrays.

    Rows are dataset positions.  ``audio`` and ``video`` hold the (n, d)
    feature matrices and ``codes`` each row's identity code: its position
    among the sorted identity ids.  Videos are numbered identity by
    identity, each identity's in sorted video-id order: identity c owns
    videos ``first_video[c]`` to ``first_video[c] + n_videos[c] - 1``.
    ``rows`` lists the dataset rows video by video, each video's in
    ``segment_index`` order; video j's ``n_segments[j]`` rows start at
    ``first_segment[j]``.
    """

    audio: np.ndarray
    video: np.ndarray
    codes: np.ndarray
    n_videos: np.ndarray
    first_video: np.ndarray
    n_segments: np.ndarray
    first_segment: np.ndarray
    rows: np.ndarray


def index_training_set(table: SegmentTable) -> TrainingIndex:
    """Check a training set once and index it by identity, video and segment.

    Training data must be entirely pristine and keep every video id within
    one identity (so a batch of distinct videos per identity has distinct
    videos overall).  An error names the first bad row in table order.
    """
    if not len(table):
        raise DataError("empty training dataset")
    identity_ids, codes = np.unique(table.identity_ids, return_inverse=True)
    _, first, video_codes = np.unique(table.video_ids, return_index=True, return_inverse=True)
    owner = codes[first]  # each video's identity: that of its first row
    fake = table.flags[:, 0]
    bad = fake | (codes != owner[video_codes])
    if bad.any():
        row = int(np.argmax(bad))
        if fake[row]:
            raise DataError(
                f"training data must be pristine; found manipulated segment {table.key(row)}"
            )
        raise DataError(
            f"dataset reuses video id {str(table.video_ids[row])!r} across identities "
            f"{str(identity_ids[owner[video_codes[row]]])!r} and "
            f"{str(table.identity_ids[row])!r}; batch videos must be distinct"
        )

    # Video codes follow sorted video ids, so a stable sort by owner lists
    # the videos identity by identity, each identity's in sorted-id order.
    n_videos = np.bincount(owner, minlength=len(identity_ids))
    n_segments = np.bincount(video_codes)[np.argsort(owner, kind="stable")]
    return TrainingIndex(
        audio=table.audio,
        video=table.video,
        codes=codes,
        n_videos=n_videos,
        first_video=np.cumsum(n_videos) - n_videos,
        n_segments=n_segments,
        first_segment=np.cumsum(n_segments) - n_segments,
        rows=np.lexsort((table.segment_index, video_codes, codes)),
    )


def sample_batch(
    index: TrainingIndex,
    identities_per_batch: int,
    segments_per_identity: int,
    rng,
) -> np.ndarray:
    """Draw identities_per_batch x segments_per_identity rows of the index.

    Each sampled identity contributes segments from distinct videos, one
    segment per chosen video, so no two segments in the batch ever share a
    video id.  Rows come grouped by identity.
    """
    rng = as_rng(rng)
    p, k = identities_per_batch, segments_per_identity

    eligible = np.flatnonzero(index.n_videos >= k)
    if len(eligible) < p:
        raise DataError(
            f"need at least {p} identities with {k} distinct videos each; "
            f"found {len(eligible)} of {len(index.n_videos)}"
        )

    picks = []
    for idx in rng.choice(len(eligible), size=p, replace=False):
        c = eligible[idx]
        videos = index.first_video[c] + rng.choice(index.n_videos[c], size=k, replace=False)
        # One draw for the k segment picks: the same values, and the same
        # generator state after, as k scalar draws.
        picks.append(index.first_segment[videos] + rng.integers(index.n_segments[videos]))
    return index.rows[np.concatenate(picks)]


def train(
    dataset: SegmentTable,
    cfg: TrainConfig,
    resume: TrainState | None = None,
) -> TrainResult:
    """Run (or continue) contrastive training over a pristine dataset.

    Training data must be entirely pristine; a single manipulated segment
    aborts the run.  With ``resume``, execution picks up at the recorded
    step with the saved parameters, moments, and sampler stream, so an
    interrupted run reproduces an uninterrupted one bit for bit.
    """
    index = index_training_set(dataset)

    if resume is None:
        rng = np.random.default_rng(cfg.seed)
        params = init_encoder(index.audio.shape[1], index.video.shape[1], cfg.encoder, rng)
        optim = init_optim_state(params)
        start = 0
    else:
        params, optim = resume.params, resume.optim
        rng = np.random.default_rng(0)
        rng.bit_generator.state = resume.rng_state
        start = resume.steps_done
        if start > cfg.total_steps:
            raise ConfigError(
                f"resume state is at step {start}, beyond the configured {cfg.total_steps}"
            )

    log: list[TrainStep] = []
    for step in range(start, cfg.total_steps):
        rows = sample_batch(index, cfg.identities_per_batch, cfg.segments_per_identity, rng)
        pos = positive_sets(index.codes[rows])
        grads, report = loss_and_param_grads(
            params, index.audio[rows], index.video[rows], pos, cfg.tau, cfg.joint_weight
        )
        params, optim = adamw_step(params, optim, grads, cfg)
        log.append(TrainStep(step=step + 1, loss=report))

    state = TrainState(
        params=params,
        optim=optim,
        rng_state=rng.bit_generator.state,
        steps_done=cfg.total_steps,
    )
    return TrainResult(params=params, log=log, state=state)
