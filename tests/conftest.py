from dataclasses import fields

import numpy as np

from poif.encoder import encode_batch
from poif.losses import loss_plan, positive_sets
from poif.optim import init_optim_state
from poif.records import SegmentRecord, SegmentTable
from poif.scoring import best_matches, build_reference, score_video
from poif.training import TrainState

EPS = np.finfo(np.float64).eps


def gram_bound(x, y=None):
    """Per-entry bound on |squared_distance_matrix(x, y) - an elementwise oracle|.

    The kernel's Gram form rounds in the product x_i.y_j (at most
    d*eps*|x_i||y_j| in any summation order), in each norm (d*eps relative)
    and in its two additions, so an entry is within (2d + 4)*eps*S of the
    exact distance, S = ||x_i||^2 + ||y_j||^2.  An oracle summing d squared
    differences is within (d + 3)*eps of it relative, at most
    (2d + 6)*eps*S.  8*(d + 2)*eps*S covers both with room for the few
    roundings callers add on each side (a division by tau, the joint sum).
    """
    x = np.asarray(x, dtype=np.float64)
    y = x if y is None else np.asarray(y, dtype=np.float64)
    sq_x, sq_y = (x * x).sum(axis=1), (y * y).sum(axis=1)
    return 8 * (x.shape[1] + 2) * EPS * (sq_x[:, None] + sq_y[None, :])


def index_bound(x_audio, x_video, ref_audio, ref_video, tau):
    """Per-row bound on each channel's raw index (``best_matches``) against an oracle.

    A maximum over reference rows moves by at most the largest error of
    the similarities it is taken over.
    """
    audio = gram_bound(x_audio, ref_audio).max(axis=1) / tau
    video = gram_bound(x_video, ref_video).max(axis=1) / tau
    return np.stack([video, audio, video + audio])


def assert_within(got, want, bound):
    """Elementwise |got - want| <= bound, naming the entry that overshoots most."""
    err = np.abs(np.asarray(got, dtype=np.float64) - np.asarray(want, dtype=np.float64))
    bound = np.broadcast_to(bound, err.shape)
    worst = np.unravel_index(np.argmax(err - bound), err.shape)
    assert np.all(err <= bound), f"error {err[worst]:.3g} > bound {bound[worst]:.3g} at {worst}"


def assert_tables_equal(got: SegmentTable, want: SegmentTable):
    """Every column of two tables has the same dtype, shape and values."""
    for f in fields(SegmentTable):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype and a.shape == b.shape, (f.name, a.dtype, b.dtype,
                                                           a.shape, b.shape)
        np.testing.assert_array_equal(a, b, err_msg=f.name)


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
    """A record batch as the training step feeds it: feature rows and loss plan."""
    return (
        np.stack([s.audio for s in batch]),
        np.stack([s.video for s in batch]),
        loss_plan(positive_sets(identity_labels(batch))),
    )


def score_clip(segments, ref, params, tau):
    """The package's path for one clip: one embedding batch, best matches, and
    the statistics of a one-clip stack (score_video's channel and fused means)."""
    table = SegmentTable.from_records(segments)
    x_audio, x_video = encode_batch(params, table.audio, table.video)
    raw = best_matches(x_audio, x_video, ref.audio, ref.video, tau)
    return score_video(raw[:, None], ref)


def embedded_reference(table, params, tau, **kwargs):
    """build_reference on the table's own embedding."""
    return build_reference(table, encode_batch(params, table.audio, table.video), tau, **kwargs)


def step0(params, steps_done=0):
    """A run state at steps_done: params, zero moments, and a seeded generator's state."""
    return TrainState(params, *init_optim_state(params),
                      np.random.default_rng(1).bit_generator.state, steps_done)


def encoders_only(lines):
    """A checkpoint's lines cut after its encoder sections."""
    return lines[:next(i for i, line in enumerate(lines) if line.startswith("optim,"))]
