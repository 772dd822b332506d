import numpy as np

from poif.losses import positive_sets
from poif.records import SegmentRecord


def make_batch(rng, counts=(2, 2), audio_dim=6, video_dim=5, scale=1.0):
    """Random segment batch: counts[i] segments for identity i.

    Every segment gets its own video id, matching the training sampler's
    no-shared-video guarantee.
    """
    segments = []
    for i, count in enumerate(counts):
        for j in range(count):
            segments.append(SegmentRecord(
                identity_id=f"p{i}",
                video_id=f"p{i}_v{j}",
                segment_index=0,
                audio=rng.standard_normal(audio_dim) * scale,
                video=rng.standard_normal(video_dim) * scale,
            ))
    return segments


def embedding_matrices(rng, n, audio_dim=6, video_dim=5, scale=1.0):
    return (
        rng.standard_normal((n, audio_dim)) * scale,
        rng.standard_normal((n, video_dim)) * scale,
    )


def identity_labels(batch):
    return [s.identity_id for s in batch]


def batch_inputs(batch):
    """A record batch as the training step feeds it: feature rows and positive mask."""
    return (
        np.stack([s.audio for s in batch]),
        np.stack([s.video for s in batch]),
        positive_sets(identity_labels(batch)),
    )
