"""Batch sampling and the contrastive training loop.

Batches hold a fixed number of identities with a fixed number of segments
each, and no two segments in a batch may come from the same video: within
one video the recording conditions are shared, so same-video pairs would
hand the loss a shortcut that does not transfer to unseen clips.

``train`` checks and indexes the dataset for its batch shape once
(``index_training_set``) and builds the loss's index arrays once; each
step then draws row indices with one generator call and gathers the
batch's feature rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .encoder import EncoderConfig, EncoderParams, init_encoder, loss_and_param_grads
from .exceptions import ConfigError, DataError
from .losses import LOSS_COLUMNS, check_joint_weight, loss_plan, positive_sets
from .optim import adamw_step, init_optim_state, pack
from .records import SegmentTable
from .similarity import check_temperature


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
        if not self.weight_decay >= 0:
            raise ConfigError(f"weight_decay must be non-negative, got {self.weight_decay}")
        check_temperature(self.tau)
        check_joint_weight(self.joint_weight)
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


@dataclass(eq=False)
class TrainState:
    """Everything needed to continue a run exactly where it stopped.

    ``m`` and ``v`` are Adam's moments, one array per parameter array in
    ``flatten_params`` order; ``rng_state`` is the batch sampler's
    generator state after ``steps_done`` steps.
    """

    params: EncoderParams
    m: list[np.ndarray]
    v: list[np.ndarray]
    rng_state: dict
    steps_done: int


@dataclass(eq=False)
class TrainResult:
    """``log`` holds one LOSS_COLUMNS row per step taken, the last at state.steps_done."""

    log: np.ndarray
    state: TrainState


@dataclass(frozen=True, eq=False)
class TrainingIndex:
    """A training set prepared once for its batch shape, so that every step runs on arrays.

    Rows are dataset positions; ``audio`` and ``video`` hold their features.
    Videos are numbered identity by identity, each identity's in sorted
    video-id order.  ``rows`` lists the rows video by video, by segment
    index; video j's ``n_segments[j]`` rows start at ``first_segment[j]``.
    Per identity with at least ``segments_per_identity`` videos,
    ``first_video`` is its first and ``padding`` is 0.0 on its V video
    slots and 2.0 past its count.
    """

    audio: np.ndarray
    video: np.ndarray
    n_segments: np.ndarray
    first_segment: np.ndarray
    rows: np.ndarray
    identities_per_batch: int
    segments_per_identity: int
    first_video: np.ndarray
    padding: np.ndarray


def index_training_set(
    table: SegmentTable, identities_per_batch: int, segments_per_identity: int
) -> TrainingIndex:
    """Check a training set once and index it by identity, video and segment.

    Training data must be entirely pristine and keep every video id within
    one identity (so a batch of distinct videos per identity has distinct
    videos overall).  An error names the first bad row in table order.
    Batches of p = identities_per_batch identities with k =
    segments_per_identity videos each need p identities with k videos.
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
    p, k = identities_per_batch, segments_per_identity
    n_videos = np.bincount(owner, minlength=len(identity_ids))
    eligible = np.flatnonzero(n_videos >= k)
    if len(eligible) < p:
        raise DataError(
            f"need at least {p} identities with {k} distinct videos each; "
            f"found {len(eligible)} of {len(n_videos)}"
        )

    # Video codes follow sorted video ids, so a stable sort by owner lists
    # the videos identity by identity, each identity's in sorted-id order.
    n_segments = np.bincount(video_codes)[np.argsort(owner, kind="stable")]
    first_video = (np.cumsum(n_videos) - n_videos)[eligible]
    n_videos = n_videos[eligible]
    return TrainingIndex(
        audio=table.audio,
        video=table.video,
        n_segments=n_segments,
        first_segment=np.cumsum(n_segments) - n_segments,
        rows=np.lexsort((table.segment_index, video_codes, codes)),
        identities_per_batch=p,
        segments_per_identity=k,
        first_video=first_video,
        padding=np.where(np.arange(n_videos.max()) >= n_videos[:, None], 2.0, 0.0),
    )


def sample_batch(index: TrainingIndex, rng: np.random.Generator) -> np.ndarray:
    """Draw p = identities_per_batch identities x k = segments_per_identity videos.

    One segment per chosen video, so no two rows share a video; rows come
    grouped by identity.  One call
    draws e + p*V + p*k doubles of one 64-bit word each, so the stream
    after t batches depends on t alone.  The first p of a stable argsort
    of e keys are the identities, the first k of V keys per identity
    (padding above 1) its videos, and u picks segment floor(u*n).
    """
    p, k = index.identities_per_batch, index.segments_per_identity
    e, v = index.padding.shape
    u = rng.random(e + p * v + p * k)
    who = np.argsort(u[:e], kind="stable")[:p]
    keys = u[e:e + p * v].reshape(p, v) + index.padding[who]
    videos = index.first_video[who, None] + np.argsort(keys, axis=1, kind="stable")[:, :k]
    n = index.n_segments[videos]
    # u < 1, but u * n can round up to n
    segment = np.minimum((u[e + p * v:].reshape(p, k) * n).astype(np.intp), n - 1)
    return index.rows[index.first_segment[videos] + segment].ravel()


def train(
    dataset: SegmentTable,
    cfg: TrainConfig,
    resume: TrainState | None = None,
) -> TrainResult:
    """Run (or continue) contrastive training over a pristine dataset.

    Training data must be entirely pristine; a single manipulated segment
    aborts the run.  A fresh run starts from a step-0 state: ``init_encoder``
    on a generator seeded with cfg.seed, zero moments, and that generator's
    state.  Fresh and resumed runs then take the same path, so an
    interrupted run reproduces an uninterrupted one bit for bit.
    """
    p, k = cfg.identities_per_batch, cfg.segments_per_identity
    index = index_training_set(dataset, p, k)
    state = resume
    if state is None:
        rng = np.random.default_rng(cfg.seed)
        params = init_encoder(index.audio.shape[1], index.video.shape[1], cfg.encoder, rng)
        state = TrainState(params, *init_optim_state(params), rng.bit_generator.state, 0)
    if state.steps_done > cfg.total_steps:
        raise ConfigError(f"resume state is at step {state.steps_done}, "
                          f"beyond the configured {cfg.total_steps}")

    # Every batch holds p identities with k rows each, grouped by identity,
    # so one loss plan serves every step.  Packing copies, so a resumed
    # state is left as it was.
    plan = loss_plan(positive_sets(np.repeat(np.arange(p), k)))
    flat = pack(state)
    rng = np.random.default_rng(0)
    rng.bit_generator.state = state.rng_state
    log = np.empty((cfg.total_steps - state.steps_done, len(LOSS_COLUMNS)))
    for losses in log:
        rows = sample_batch(index, rng)
        grads, losses[:] = loss_and_param_grads(
            flat.state.params, index.audio.take(rows, axis=0), index.video.take(rows, axis=0),
            plan, cfg.tau, cfg.joint_weight,
        )
        adamw_step(flat, grads, cfg)
    flat.state.rng_state = rng.bit_generator.state
    return TrainResult(log=log, state=flat.state)
