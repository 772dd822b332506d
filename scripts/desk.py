"""The desk-scale experiment: seed s's worlds, benchmark and trained encoder.

The paper trains only on real talking faces, then tests the detector on
video-only, audio-only and audio-video fakes.  The acceptance battery and
both experiment scripts run that experiment on one synthetic world, whose
scales, sizes, seed offsets and training recipe are written here once.
"""

from dataclasses import dataclass

import numpy as np

from poif.encoder import EncoderConfig
from poif.records import SegmentTable
from poif.synthgen import (
    Benchmark,
    World,
    WorldConfig,
    check_disjoint,
    generate_benchmark,
    generate_world,
    sample_identity_videos,
)
from poif.training import TrainConfig, TrainResult, train

TAU = 0.5
STEPS = 2000
IDENTITY_SCALE, VIDEO_BIAS, SEGMENT_NOISE = 1.0, 0.25, 0.25
CLONED_VOICE = 0.2
EVAL_IDENTITIES, FAKES_PER_GROUP = 20, 4
AUDIO_SHIFT_GROUPS = ("v+ai", "a+ai", "v+a+ai")


def world_config(**sizes) -> WorldConfig:
    """A world at the desk scales; sizes sets its counts, first identity and seed."""
    return WorldConfig(identity_scale=IDENTITY_SCALE, video_bias_scale=VIDEO_BIAS,
                       segment_noise_scale=SEGMENT_NOISE, **sizes)


@dataclass(frozen=True)
class DeskWorld:
    """Seed s's training world, its disjoint held-out world and that world's benchmark."""

    seed: int
    train_world: World
    eval_world: World
    bench: Benchmark


def build(s: int) -> DeskWorld:
    train_world = generate_world(world_config(
        n_identities=64, n_videos_per_identity=8, n_segments_per_video=4, seed=1000 + s))
    eval_world = generate_world(world_config(
        n_identities=EVAL_IDENTITIES, n_videos_per_identity=1, n_segments_per_video=1,
        identity_start=10000, seed=3000 + s))
    check_disjoint(train_world.identity_ids, eval_world.identity_ids)
    bench = generate_benchmark(
        eval_world, FAKES_PER_GROUP, [1.0, 0.4],
        np.random.default_rng([4000 + s, 1]), cloned_voice_scale=CLONED_VOICE)
    return DeskWorld(s, train_world, eval_world, bench)


def train_seed(world: DeskWorld, joint_weight: float, steps: int = STEPS,
               tau: float = TAU) -> TrainResult:
    """The desk encoder trained on the seed's training world for steps steps."""
    cfg = TrainConfig(tau=tau, joint_weight=joint_weight, epochs=1,
                      batches_per_epoch=steps, seed=2000 + world.seed,
                      encoder=EncoderConfig(2, 64, 32))
    return train(world.train_world.segments, cfg)


def variety_pool(world: DeskWorld, n_videos: int, n_segments: int) -> SegmentTable:
    """n_videos fresh pristine videos of n_segments segments for every held-out
    person: pools deep enough for the reference-variety sweep's budget."""
    rng = np.random.default_rng([5000 + world.seed])
    return SegmentTable.concat([
        sample_identity_videos(world.eval_world, poi, n_videos, n_segments, rng, "e")
        for poi in world.eval_world.identity_ids])


def audio_shift_av_pd(table: dict) -> float:
    """The AV statistic's Pd at the table's false-alarm rate, averaged over the
    audio-shift groups."""
    return sum(table[g]["av"].pd_at_fa for g in AUDIO_SHIFT_GROUPS) / len(AUDIO_SHIFT_GROUPS)
