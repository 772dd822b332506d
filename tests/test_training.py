import re

import numpy as np
import pytest

from oracles import naive_sample_batch
from poif.encoder import EncoderConfig, init_encoder
from poif.exceptions import ConfigError, DataError
from poif.optim import flatten_params
from poif.records import ManipFlags
from poif.synthgen import WorldConfig, generate_world
from poif import training
from poif.training import TrainConfig, index_training_set, sample_batch, train


def tiny_world(seed=0, identities=6, videos=4, segments=3):
    return generate_world(WorldConfig(
        n_identities=identities, n_videos_per_identity=videos,
        n_segments_per_video=segments, audio_dim=5, video_dim=4, seed=seed,
    ))


def tiny_cfg(**kw):
    defaults = dict(
        tau=0.5, epochs=1, batches_per_epoch=8,
        identities_per_batch=3, segments_per_identity=2,
        encoder=EncoderConfig(1, 8, 3), seed=0,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def uneven_world(seed=3):
    """Identities with 1-5 videos and 1-6 segments per video, gaps in the indices."""
    world = tiny_world(seed=seed, identities=7, videos=5, segments=6)
    rng = np.random.default_rng(seed)
    by_identity = {}
    for seg in world.segments:
        by_identity.setdefault(seg.identity_id, {}).setdefault(seg.video_id, []).append(seg)
    keep = []
    for videos in by_identity.values():
        for video_id in sorted(videos)[:int(rng.integers(1, 6))]:
            segs = videos[video_id]
            chosen = rng.choice(len(segs), size=int(rng.integers(1, len(segs) + 1)),
                                replace=False)
            keep.extend(segs[i] for i in sorted(chosen))
    return keep


def shuffled(segments, seed=0):
    order = np.random.default_rng(seed).permutation(len(segments))
    return [segments[i] for i in order]


def test_sample_batch_one_segment_per_video():
    world = tiny_world()
    index = index_training_set(world.segments)
    rng = np.random.default_rng(0)
    for _ in range(20):
        batch = [world.segments[r] for r in sample_batch(index, 3, 2, rng)]
        assert len(batch) == 6
        assert len({s.identity_id for s in batch}) == 3
        video_ids = [s.video_id for s in batch]
        assert len(set(video_ids)) == len(video_ids)
        for seg in batch:
            assert seg.video_id.startswith(seg.identity_id)


def test_sample_batch_needs_enough_identities_with_enough_videos():
    world = tiny_world(identities=2, videos=2)
    index = index_training_set(world.segments)
    rng = np.random.default_rng(0)
    with pytest.raises(DataError):
        sample_batch(index, 3, 2, rng)  # only 2 identities exist
    with pytest.raises(DataError):
        sample_batch(index, 2, 3, rng)  # only 2 videos per identity


def test_sample_batch_matches_regrouping_oracle():
    """Same segments and the same rng stream as regrouping the dataset per call."""
    segments = shuffled(uneven_world())
    index = index_training_set(segments)
    # the world really is uneven: 1 to 6 segments per video, and some
    # identities have too few videos to be drawn
    assert set(index.n_segments.tolist()) == set(range(1, 7))
    assert 3 <= np.count_nonzero(index.n_videos >= 3) < len(index.n_videos)
    ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(200):
        got = [segments[r].key for r in sample_batch(index, 3, 3, ours)]
        want = [s.key for s in naive_sample_batch(segments, 3, 3, theirs)]
        assert got == want
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_train_ignores_dataset_order():
    segments = uneven_world()
    cfg = tiny_cfg(batches_per_epoch=20)
    a = train(segments, cfg)
    b = train(shuffled(segments, seed=1), cfg)
    for wa, wb in zip(flatten_params(a.params), flatten_params(b.params)):
        np.testing.assert_array_equal(wa, wb)
    assert [s.loss for s in a.log] == [s.loss for s in b.log]
    assert a.state.rng_state == b.state.rng_state


def test_video_id_shared_across_identities_fails_before_first_step(monkeypatch):
    segments = list(tiny_world().segments)
    seg = segments[-1]
    assert seg.identity_id != segments[0].identity_id
    segments[-1] = type(seg)(
        identity_id=seg.identity_id, video_id=segments[0].video_id,
        segment_index=seg.segment_index, audio=seg.audio, video=seg.video,
    )

    def never(*args, **kwargs):
        raise AssertionError("a batch was drawn from an invalid dataset")

    monkeypatch.setattr(training, "sample_batch", never)
    with pytest.raises(DataError, match=repr(segments[0].video_id)):
        train(segments, tiny_cfg())


def test_mixed_feature_dims_fail_before_first_step():
    segments = list(tiny_world().segments)
    seg = segments[4]
    segments[4] = type(seg)(
        identity_id=seg.identity_id, video_id=seg.video_id,
        segment_index=seg.segment_index, audio=seg.audio[:-1], video=seg.video,
    )
    with pytest.raises(DataError, match=re.escape(f"inconsistent feature dims: segment {seg.key}")):
        index_training_set(segments)


def test_train_same_config_is_bit_reproducible():
    world = tiny_world()
    a = train(world.segments, tiny_cfg())
    b = train(world.segments, tiny_cfg())
    for wa, wb in zip(flatten_params(a.params), flatten_params(b.params)):
        np.testing.assert_array_equal(wa, wb)
    assert [s.loss.l_tot for s in a.log] == [s.loss.l_tot for s in b.log]
    assert a.state.rng_state == b.state.rng_state


def test_train_log_covers_every_step_and_loss_drops():
    world = tiny_world(identities=8)
    cfg = tiny_cfg(batches_per_epoch=150, learning_rate=3e-3)
    result = train(world.segments, cfg)
    assert [s.step for s in result.log] == list(range(1, 151))
    first = np.mean([s.loss.l_tot for s in result.log[:20]])
    last = np.mean([s.loss.l_tot for s in result.log[-20:]])
    assert last < first


def test_resume_reproduces_uninterrupted_run():
    world = tiny_world()
    full = train(world.segments, tiny_cfg(batches_per_epoch=12))
    half = train(world.segments, tiny_cfg(batches_per_epoch=6))
    resumed = train(world.segments, tiny_cfg(batches_per_epoch=12), resume=half.state)
    for wa, wb in zip(flatten_params(full.params), flatten_params(resumed.params)):
        np.testing.assert_array_equal(wa, wb)
    assert full.state.rng_state == resumed.state.rng_state
    assert resumed.state.steps_done == 12
    # the resumed log holds only the continued steps
    assert [s.step for s in resumed.log] == list(range(7, 13))
    assert [s.loss.l_tot for s in resumed.log] == [s.loss.l_tot for s in full.log[6:]]


def test_resume_beyond_budget_is_rejected():
    world = tiny_world()
    done = train(world.segments, tiny_cfg(batches_per_epoch=6))
    with pytest.raises(ConfigError):
        train(world.segments, tiny_cfg(batches_per_epoch=4), resume=done.state)


def test_zero_epochs_returns_initialization():
    world = tiny_world()
    cfg = tiny_cfg(epochs=0)
    result = train(world.segments, cfg)
    assert result.log == []
    assert result.state.steps_done == 0
    init = init_encoder(5, 4, cfg.encoder, np.random.default_rng(cfg.seed))
    for wa, wb in zip(flatten_params(result.params), flatten_params(init)):
        np.testing.assert_array_equal(wa, wb)


def test_train_refuses_manipulated_segments():
    world = tiny_world()
    segments = list(world.segments)
    bad = segments[3]
    segments[3] = type(bad)(
        identity_id=bad.identity_id, video_id=bad.video_id,
        segment_index=bad.segment_index, audio=bad.audio, video=bad.video,
        flags=ManipFlags(is_fake=True, v=True), blend=1.0,
    )
    with pytest.raises(DataError):
        train(segments, tiny_cfg())


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(tau=-0.5)
    with pytest.raises(ConfigError):
        TrainConfig(joint_weight=-1.0)
    with pytest.raises(ConfigError):
        TrainConfig(identities_per_batch=1)
    with pytest.raises(ConfigError):
        TrainConfig(beta2=1.0)
