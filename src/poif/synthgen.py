"""Synthetic audio-visual worlds and manipulated benchmark sets.

Every identity owns one latent vector per modality.  A pristine segment is

    features = identity latent + per-video bias + per-segment noise

so segments of one video share the bias draw, mirroring shared recording
conditions.  Manipulations rewrite a pristine segment in feature space:

* video replacement blends the identity component toward a donor,
  ``video + blend * (donor latent - owner latent)``, which equals
  ``(1 - blend) * owner + blend * donor`` plus the segment's own bias and
  noise.  blend=1 is a full swap, small blends model partial reenactment;
* a real-but-mismatched audio track shifts the audio component fully to
  the donor the same way;
* a synthesized voice adds a fixed cloned-voice offset to the owner's
  audio; all synthesized segments of one person share the offset, the way
  one cloning tool leaves one signature.

Manipulated segments keep the owner's identity_id: a fake claims to be
that person, and the labels carry what was tampered with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .exceptions import ConfigError, DataError
from .records import FLAG_COLUMNS, GROUP_FLAGS, GROUPS, SegmentTable


@dataclass
class WorldConfig:
    n_identities: int
    n_videos_per_identity: int
    n_segments_per_video: int
    audio_dim: int = 16
    video_dim: int = 16
    identity_scale: float = 1.0
    video_bias_scale: float = 0.1
    segment_noise_scale: float = 0.1
    seed: int = 0
    identity_start: int = 0

    def __post_init__(self):
        for name in ("n_identities", "n_videos_per_identity", "n_segments_per_video"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.audio_dim < 1 or self.video_dim < 1:
            raise ConfigError(
                f"feature dims must be >= 1, got audio {self.audio_dim}, video {self.video_dim}"
            )
        for name in ("identity_scale", "video_bias_scale", "segment_noise_scale"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.identity_start < 0:
            raise ConfigError(f"identity_start must be >= 0, got {self.identity_start}")


@dataclass(eq=False)
class World:
    """Identity latents plus the pristine segments generated from them."""

    cfg: WorldConfig
    identity_ids: tuple[str, ...]
    audio_latents: np.ndarray
    video_latents: np.ndarray
    segments: SegmentTable

    def identity_row(self, identity_id: str) -> int:
        try:
            return self.identity_ids.index(identity_id)
        except ValueError:
            raise DataError(f"unknown identity {identity_id!r}") from None


def _pristine_videos(cfg, identity_ids, audio_latents, video_latents, normals, tag):
    """Pristine segments of several identities from one block of standard normals.

    ``normals`` has shape (identities, videos, 1 + segments, audio_dim +
    video_dim): per video its bias draw, then one noise draw per segment,
    audio before video in each.  Rows run identity by identity, video by
    video; video j of identity i is named ``f"{i}_{tag}{j:03d}"``.
    """
    n_ids, n_videos, n_segments = normals.shape[0], normals.shape[1], normals.shape[2] - 1
    da = cfg.audio_dim
    bias = normals[:, :, :1] * cfg.video_bias_scale
    noise = normals[:, :, 1:] * cfg.segment_noise_scale
    audio = (audio_latents[:, None, None] + bias[..., :da]) + noise[..., :da]
    video = (video_latents[:, None, None] + bias[..., da:]) + noise[..., da:]
    names = [f"{i}_{tag}{j:03d}" for i in identity_ids for j in range(n_videos)]
    n = n_ids * n_videos * n_segments
    return SegmentTable(
        identity_ids=np.repeat(np.array(identity_ids, dtype=str), n_videos * n_segments),
        video_ids=np.repeat(np.array(names, dtype=str), n_segments),
        segment_index=np.tile(np.arange(n_segments, dtype=np.int64), n_ids * n_videos),
        flags=np.zeros((n, len(FLAG_COLUMNS)), dtype=bool),
        blend=np.zeros(n),
        audio=audio.reshape(n, da),
        video=video.reshape(n, cfg.video_dim),
    )


def generate_world(cfg: WorldConfig) -> World:
    """Draw a fully deterministic pristine world from cfg.seed.

    Draw order is fixed: per identity, the two latents, then per video its
    two biases followed by per-segment noise, audio before video
    throughout.  The whole world is one draw of standard normals in that
    order.
    """
    rng = np.random.default_rng(cfg.seed)
    d = cfg.audio_dim + cfg.video_dim
    v, k = cfg.n_videos_per_identity, cfg.n_segments_per_video
    normals = rng.standard_normal((cfg.n_identities, d + v * (1 + k) * d))
    latents = normals[:, :d] * cfg.identity_scale
    audio_latents, video_latents = latents[:, :cfg.audio_dim], latents[:, cfg.audio_dim:]
    identity_ids = tuple(f"id{cfg.identity_start + i:04d}" for i in range(cfg.n_identities))
    segments = _pristine_videos(cfg, identity_ids, audio_latents, video_latents,
                                normals[:, d:].reshape(cfg.n_identities, v, 1 + k, d), "v")
    return World(
        cfg=cfg,
        identity_ids=identity_ids,
        audio_latents=audio_latents,
        video_latents=video_latents,
        segments=segments,
    )


def sample_identity_videos(
    world: World,
    identity_id: str,
    n_videos: int,
    n_segments: int,
    rng: np.random.Generator,
    video_prefix: str = "x",
) -> SegmentTable:
    """Draw extra pristine videos for an existing identity.

    Used to grow reference or probe material beyond what the world was
    generated with; draws come from the provided stream, not the world
    seed, in the order ``generate_world`` draws one identity's videos.
    """
    row = world.identity_row(identity_id)
    cfg = world.cfg
    normals = rng.standard_normal((1, n_videos, 1 + n_segments, cfg.audio_dim + cfg.video_dim))
    return _pristine_videos(cfg, [identity_id], world.audio_latents[row:row + 1],
                            world.video_latents[row:row + 1], normals, video_prefix)


def check_disjoint(train_identity_ids: Iterable[str], identity_ids: Iterable[str]):
    """Refuse benchmark identities that the training set also holds."""
    overlap = sorted(set(train_identity_ids) & set(identity_ids))
    if overlap:
        raise DataError(f"benchmark identities overlap the training set: {', '.join(overlap)}")


@dataclass(eq=False)
class Benchmark:
    """Labeled evaluation material: references plus real and fake test videos."""

    reference: SegmentTable
    test: SegmentTable


def generate_benchmark(
    world: World,
    group_counts: Mapping[str, int],
    betas: Sequence[float],
    rng: np.random.Generator,
    *,
    segments_per_video: int = 10,
    reference_videos: int = 10,
    real_videos: int = 4,
    cloned_voice_scale: float = 0.5,
) -> Benchmark:
    """Build an evaluation set over every identity in ``world``.

    Each identity gets ``reference_videos`` pristine reference videos,
    ``real_videos`` pristine test videos, and per manipulation group the
    requested number of fake videos.  Fakes are derived from the pristine
    test videos in rotation, so each fake has a genuine counterpart shot
    under the same conditions.  Video-manipulated groups cycle through
    ``betas``; donors are drawn uniformly from the other identities.
    The caller checks train/test identity disjointness (``check_disjoint``).
    """
    for name, count in (("segments_per_video", segments_per_video),
                        ("reference_videos", reference_videos), ("real_videos", real_videos)):
        if count < 1:
            raise ConfigError(f"{name} must be >= 1, got {count}")
    unknown = sorted(set(group_counts) - set(GROUPS))
    if unknown:
        raise ConfigError(f"unknown manipulation groups: {', '.join(unknown)}")
    for g, c in group_counts.items():
        if c < 0:
            raise ConfigError(f"group {g!r} has negative count {c}")
    betas = [float(b) for b in betas]
    if any(not 0.0 <= b <= 1.0 for b in betas):
        raise ConfigError(f"betas must lie in [0, 1], got {betas}")
    counts = [group_counts.get(g, 0) for g in GROUPS]
    if any(c > 0 for c, flags in zip(counts, GROUP_FLAGS) if flags[1]) and not betas:
        raise ConfigError("video-manipulated groups requested but no betas given")
    n, n_fakes = len(world.identity_ids), sum(counts)
    if n < 2 and n_fakes:
        raise ConfigError("fakes need at least 2 identities to draw donors from")

    # The draws, in their fixed order: every person's voice offset, then per
    # person its reference videos, its real test videos and one donor per fake.
    cfg, k = world.cfg, segments_per_video
    voice_offsets = rng.standard_normal((n, cfg.audio_dim)) * cloned_voice_scale
    shape = (1 + k, cfg.audio_dim + cfg.video_dim)
    reference_normals = np.empty((n, reference_videos, *shape))
    real_normals = np.empty((n, real_videos, *shape))
    picks = np.zeros((n, n_fakes), dtype=np.int64)
    for i in range(n):
        rng.standard_normal(out=reference_normals[i])
        rng.standard_normal(out=real_normals[i])
        if n_fakes:
            picks[i] = rng.integers(n - 1, size=n_fakes)
    latents = (cfg, world.identity_ids, world.audio_latents, world.video_latents)
    reference = _pristine_videos(*latents, reference_normals, "r")
    real = _pristine_videos(*latents, real_normals, "t")

    # A person's fakes run group by group.  Fake j of a group copies the
    # person's real video j in name order and, if it swaps the video, takes
    # beta j, both cycling (without betas, no fake swaps a video).
    group = np.tile(np.repeat(np.arange(len(GROUPS)), counts), n)
    j = np.tile(np.concatenate([np.arange(c) for c in counts]), n)
    owner = np.repeat(np.arange(n), n_fakes)
    donor = picks.ravel() + (picks.ravel() >= owner)  # any identity but the owner
    in_name_order = np.argsort([f"{t:03d}" for t in range(real_videos)])
    source = owner * real_videos + in_name_order[j % real_videos]
    names = [f"{world.identity_ids[o]}_g{g + 1}f{i:02d}"
             for o, g, i in zip(owner.tolist(), group.tolist(), j.tolist())]
    flags = GROUP_FLAGS[group]
    blend = np.where(flags[:, 1], np.take(betas or [0.0], j, mode="wrap"), 0.0)

    # Every fake segment as one gather of its source row, then each edit by mask.
    rows = (source[:, None] * k + np.arange(k)).ravel()
    owner, donor, flags, blend = (np.repeat(x, k, axis=0) for x in (owner, donor, flags, blend))
    audio, video = real.audio[rows], real.video[rows]
    v, a, ai = flags[:, 1], flags[:, 2], flags[:, 3] & ~flags[:, 2]
    video[v] += blend[v, None] * (world.video_latents[donor[v]] - world.video_latents[owner[v]])
    audio[a] += voice_offsets[owner[a]]
    audio[ai] += world.audio_latents[donor[ai]] - world.audio_latents[owner[ai]]
    fakes = SegmentTable(
        identity_ids=real.identity_ids[rows],
        video_ids=np.repeat(np.array(names, dtype=str), k),
        segment_index=real.segment_index[rows],
        flags=flags, blend=blend, audio=audio, video=video,
    )
    # Each person's real videos, then their fakes.
    n_real = n * real_videos * k
    order = np.hstack([np.arange(n_real).reshape(n, real_videos * k),
                       n_real + np.arange(len(fakes)).reshape(n, n_fakes * k)]).ravel()
    return Benchmark(reference=reference, test=SegmentTable.concat([real, fakes]).take(order))
