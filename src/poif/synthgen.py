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
from typing import Mapping, Sequence

import numpy as np

from .exceptions import ConfigError, DataError
from .records import FLAG_COLUMNS, GROUPS, ManipFlags, SegmentTable, flags_for_group
from .utils import as_rng


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
    rng,
    video_prefix: str = "x",
) -> SegmentTable:
    """Draw extra pristine videos for an existing identity.

    Used to grow reference or probe material beyond what the world was
    generated with; draws come from the provided stream, not the world
    seed, in the order ``generate_world`` draws one identity's videos.
    """
    rng = as_rng(rng)
    row = world.identity_row(identity_id)
    cfg = world.cfg
    normals = rng.standard_normal((1, n_videos, 1 + n_segments, cfg.audio_dim + cfg.video_dim))
    return _pristine_videos(cfg, [identity_id], world.audio_latents[row:row + 1],
                            world.video_latents[row:row + 1], normals, video_prefix)


@dataclass(eq=False)
class ManipulationSpec:
    """How to fake a video: flags, blend fraction, donor, voice offset."""

    flags: ManipFlags
    blend: float = 1.0
    donor_identity: str | None = None
    cloned_voice_offset: np.ndarray | None = None

    def __post_init__(self):
        if not self.flags.is_fake:
            raise DataError("manipulation spec must carry fake flags")
        if self.flags.v and not 0.0 <= self.blend <= 1.0:
            raise DataError(f"blend must lie in [0, 1], got {self.blend}")
        needs_donor = self.flags.v or (self.flags.ai and not self.flags.a)
        if needs_donor and self.donor_identity is None:
            raise DataError("manipulation needs a donor identity")
        if self.flags.a and self.cloned_voice_offset is None:
            raise DataError("synthesized-voice manipulation needs a cloned_voice_offset")


def apply_manipulation(
    source: SegmentTable,
    spec: ManipulationSpec,
    world: World,
    new_video_id: str | None = None,
) -> SegmentTable:
    """Rewrite the pristine rows of one identity per the spec; the source is untouched."""
    owners = sorted(set(source.identity_ids.tolist()))
    if len(owners) != 1:
        raise DataError(f"a manipulation rewrites one identity's rows; got identities {owners}")
    fake = np.flatnonzero(source.flags[:, 0])
    if len(fake):
        raise DataError(f"cannot manipulate an already-fake segment {source.key(fake[0])}")
    owner_id = owners[0]
    owner = world.identity_row(owner_id)
    audio = source.audio
    video = source.video
    blend = 0.0

    if spec.donor_identity is not None and spec.donor_identity == owner_id:
        raise DataError(f"donor must differ from the claimed identity {owner_id!r}")

    if spec.flags.v:
        donor = world.identity_row(spec.donor_identity)
        delta = world.video_latents[donor] - world.video_latents[owner]
        video = source.video + spec.blend * delta
        blend = spec.blend
    if spec.flags.a:
        audio = source.audio + spec.cloned_voice_offset
    elif spec.flags.ai:
        donor = world.identity_row(spec.donor_identity)
        audio = source.audio + (world.audio_latents[donor] - world.audio_latents[owner])

    n = len(source)
    return SegmentTable(
        identity_ids=source.identity_ids,
        video_ids=source.video_ids if new_video_id is None else np.full(n, new_video_id),
        segment_index=source.segment_index,
        flags=np.tile([getattr(spec.flags, c) for c in FLAG_COLUMNS], (n, 1)),
        blend=np.full(n, blend),
        audio=audio,
        video=video,
    )


@dataclass(eq=False)
class Benchmark:
    """Labeled evaluation material: references plus real and fake test videos."""

    poi_ids: tuple[str, ...]
    reference: SegmentTable
    test: SegmentTable


def generate_benchmark(
    world: World,
    group_counts: Mapping[str, int],
    betas: Sequence[float],
    rng,
    *,
    segments_per_video: int = 10,
    reference_videos: int = 10,
    real_videos: int = 4,
    cloned_voice_scale: float = 0.5,
    train_identity_ids: Sequence[str] | None = None,
) -> Benchmark:
    """Build an evaluation set over every identity in ``world``.

    Each identity gets ``reference_videos`` pristine reference videos,
    ``real_videos`` pristine test videos, and per manipulation group the
    requested number of fake videos.  Fakes are derived from the pristine
    test videos in rotation, so each fake has a genuine counterpart shot
    under the same conditions.  Video-manipulated groups cycle through
    ``betas``; donors are drawn uniformly from the other identities.
    ``train_identity_ids`` guards train/test identity disjointness.
    """
    for name, count in (("segments_per_video", segments_per_video),
                        ("reference_videos", reference_videos), ("real_videos", real_videos)):
        if count < 1:
            raise ConfigError(f"{name} must be >= 1, got {count}")
    rng = as_rng(rng)
    if train_identity_ids is not None:
        overlap = sorted(set(train_identity_ids) & set(world.identity_ids))
        if overlap:
            raise DataError(
                f"benchmark identities overlap the training set: {', '.join(overlap)}"
            )
    unknown = sorted(set(group_counts) - set(GROUPS))
    if unknown:
        raise DataError(f"unknown manipulation groups: {', '.join(unknown)}")
    for g, c in group_counts.items():
        if c < 0:
            raise ConfigError(f"group {g!r} has negative count {c}")
    betas = [float(b) for b in betas]
    if any(not 0.0 <= b <= 1.0 for b in betas):
        raise ConfigError(f"betas must lie in [0, 1], got {betas}")
    if any(group_counts.get(g, 0) > 0 and "v" in g.split("+") for g in GROUPS) and not betas:
        raise ConfigError("video-manipulated groups requested but no betas given")
    if len(world.identity_ids) < 2 and any(group_counts.get(g, 0) > 0 for g in GROUPS):
        raise DataError("fakes need at least 2 identities to draw donors from")

    n = len(world.identity_ids)
    voice_offsets = {
        poi: rng.standard_normal(world.cfg.audio_dim) * cloned_voice_scale
        for poi in world.identity_ids
    }

    reference: list[SegmentTable] = []
    test: list[SegmentTable] = []
    for poi in world.identity_ids:
        reference.append(
            sample_identity_videos(
                world, poi, reference_videos, segments_per_video, rng, video_prefix="r"
            )
        )
        real = sample_identity_videos(
            world, poi, real_videos, segments_per_video, rng, video_prefix="t"
        )
        test.append(real)
        source_videos = sorted(set(real.video_ids.tolist()))

        for gi, group in enumerate(GROUPS):
            flags = flags_for_group(group)
            for j in range(group_counts.get(group, 0)):
                donor_pick = int(rng.integers(n - 1))
                poi_row = world.identity_row(poi)
                donor_row = donor_pick if donor_pick < poi_row else donor_pick + 1
                spec = ManipulationSpec(
                    flags=flags,
                    blend=betas[j % len(betas)] if flags.v else 0.0,
                    donor_identity=world.identity_ids[donor_row],
                    cloned_voice_offset=voice_offsets[poi] if flags.a else None,
                )
                source = real.take(real.video_ids == source_videos[j % len(source_videos)])
                fake_video_id = f"{poi}_g{gi + 1}f{j:02d}"
                test.append(apply_manipulation(source, spec, world, new_video_id=fake_video_id))

    return Benchmark(poi_ids=world.identity_ids, reference=SegmentTable.concat(reference),
                     test=SegmentTable.concat(test))
