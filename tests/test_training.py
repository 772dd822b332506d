import math
import re
from dataclasses import replace

import numpy as np
import pytest

from oracles import naive_sample_batch
from poif.encoder import EncoderConfig, init_encoder
from poif.exceptions import ConfigError, DataError
from poif.fileio import write_checkpoint
from poif.losses import LOSS_COLUMNS
from poif.optim import flatten_params
from poif.records import ManipFlags, SegmentTable
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
    for seg in world.segments.to_records():
        by_identity.setdefault(seg.identity_id, {}).setdefault(seg.video_id, []).append(seg)
    keep = []
    for videos in by_identity.values():
        for video_id in sorted(videos)[:int(rng.integers(1, 6))]:
            segs = videos[video_id]
            chosen = rng.choice(len(segs), size=int(rng.integers(1, len(segs) + 1)),
                                replace=False)
            keep.extend(segs[i] for i in sorted(chosen))
    return SegmentTable.from_records(keep)


def shuffled(table, seed=0):
    return table.take(np.random.default_rng(seed).permutation(len(table)))


def with_rows(table, changes):
    """A copy of the table with some rows replaced: {row: record field changes}.

    Edits go through records, because assigning a longer id into a
    fixed-width numpy string column would silently truncate it.
    """
    records = table.to_records()
    for row, change in changes.items():
        records[row] = replace(records[row], **change)
    return SegmentTable.from_records(records)


def test_sample_batch_one_segment_per_video():
    world = tiny_world()
    table = world.segments
    index = index_training_set(table, 3, 2)
    rng = np.random.default_rng(0)
    for _ in range(20):
        rows = sample_batch(index, rng)
        assert len(rows) == 6
        assert len(set(table.identity_ids[rows].tolist())) == 3
        video_ids = table.video_ids[rows].tolist()
        assert len(set(video_ids)) == len(video_ids)
        for identity, video_id in zip(table.identity_ids[rows].tolist(), video_ids):
            assert video_id.startswith(identity)


def test_sample_batch_needs_enough_identities_with_enough_videos(monkeypatch):
    world = tiny_world(identities=2, videos=2)
    with pytest.raises(DataError, match="need at least 3 identities with 2 distinct videos"):
        index_training_set(world.segments, 3, 2)  # only 2 identities exist
    with pytest.raises(DataError, match="found 0 of 2"):
        index_training_set(world.segments, 2, 3)  # only 2 videos per identity

    def never(*args, **kwargs):
        raise AssertionError("a batch was drawn")

    # train refuses before its first step, even a run of no steps
    monkeypatch.setattr(training, "sample_batch", never)
    for epochs in (0, 1):
        with pytest.raises(DataError):
            train(world.segments, tiny_cfg(epochs=epochs))


def test_sample_batch_matches_regrouping_oracle():
    """Same segments and the same rng stream as regrouping the dataset per call."""
    table = shuffled(uneven_world())
    records = table.to_records()
    index = index_training_set(table, 3, 3)
    # the world really is uneven: 1 to 6 segments per video, and some
    # identities have too few videos to be drawn
    assert set(index.n_segments.tolist()) == set(range(1, 7))
    assert 3 <= len(index.first_video) < len(set(table.identity_ids.tolist()))
    ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(200):
        got = [table.key(r) for r in sample_batch(index, ours)]
        want = [s.key for s in naive_sample_batch(records, 3, 3, theirs)]
        assert got == want
    assert ours.bit_generator.state == theirs.bit_generator.state


def binomial_interval(n, q, alpha):
    """Counts lo, hi with P(X < lo) <= alpha/2 and P(X > hi) <= alpha/2, X ~ Binomial(n, q).

    Exact tails, summed from the log pmf.
    """
    i = np.arange(n + 1)
    log_choose = np.concatenate([[0.0], np.cumsum(np.log(n - i[1:] + 1) - np.log(i[1:]))])
    pmf = np.exp(log_choose + i * math.log(q) + (n - i) * math.log1p(-q))
    at_most = np.cumsum(pmf)              # P(X <= i)
    at_least = np.cumsum(pmf[::-1])[::-1]  # P(X >= i)
    lo = int(np.argmax(at_most > alpha / 2))
    hi = int(n - np.argmax(at_least[::-1] > alpha / 2))
    return lo, hi


def test_sample_batch_draws_identities_videos_and_segments_uniformly():
    """Counts over 20,000 batches against uniform draws.

    An eligible identity is in a batch with probability p/e, one of its
    nv videos with (p/e)(k/nv), and one of that video's ns segments with
    (p/e)(k/nv)/ns.  Batches are independent and hit a cell at most once,
    so each count is binomial.  Every count must lie in its exact
    interval at level 0.001/cells (Bonferroni), so all of them hold
    together with probability at least 99.9% when the draw is uniform.
    """
    table = uneven_world()
    p, k, draws = 3, 3, 20_000
    index = index_training_set(table, p, k)
    rng = np.random.default_rng(2026)
    rows = np.concatenate([sample_batch(index, rng) for _ in range(draws)])

    identities, identity_of = np.unique(table.identity_ids, return_inverse=True)
    videos, video_of = np.unique(table.video_ids, return_inverse=True)
    owner = np.empty(len(videos), dtype=int)
    owner[video_of] = identity_of
    n_videos, n_segments = np.bincount(owner), np.bincount(video_of)
    eligible = n_videos >= k
    q_identity = p / eligible.sum()
    identity_hits = np.bincount(identity_of[rows], minlength=len(identities)) // k
    video_hits = np.bincount(video_of[rows], minlength=len(videos))
    row_hits = np.bincount(rows, minlength=len(table))
    assert not identity_hits[~eligible].any()
    cells = [(identity_hits[c], q_identity) for c in np.flatnonzero(eligible)]
    cells += [(video_hits[j], q_identity * k / n_videos[owner[j]])
              for j in np.flatnonzero(eligible[owner])]
    cells += [(row_hits[r], q_identity * k / n_videos[identity_of[r]] / n_segments[video_of[r]])
              for r in np.flatnonzero(eligible[identity_of])]
    alpha = 0.001 / len(cells)
    for count, q in cells:
        lo, hi = binomial_interval(draws, q, alpha)
        assert lo <= count <= hi, (count, q, lo, hi)


def test_train_ignores_dataset_order():
    table = uneven_world()
    cfg = tiny_cfg(batches_per_epoch=20)
    a = train(table, cfg)
    b = train(shuffled(table, seed=1), cfg)
    for wa, wb in zip(flatten_params(a.state.params), flatten_params(b.state.params)):
        np.testing.assert_array_equal(wa, wb)
    assert np.array_equal(a.log, b.log)
    assert a.state.rng_state == b.state.rng_state


def test_video_id_shared_across_identities_fails_before_first_step(monkeypatch):
    table = tiny_world().segments
    assert table.identity_ids[-1] != table.identity_ids[0]
    shared = str(table.video_ids[0])
    table = with_rows(table, {len(table) - 1: {"video_id": shared}})

    def never(*args, **kwargs):
        raise AssertionError("a batch was drawn from an invalid dataset")

    monkeypatch.setattr(training, "sample_batch", never)
    with pytest.raises(DataError, match=re.escape(
            f"dataset reuses video id {shared!r} across identities 'id0000' and 'id0005'")):
        train(table, tiny_cfg())


FAKE = {"flags": ManipFlags(is_fake=True, v=True), "blend": 1.0}


@pytest.mark.parametrize("fake_row, shared_row, message", [
    (20, 40, r"manipulated segment \('id0001', 'id0001_v002', 2\)"),
    (50, 40, r"reuses video id 'id0000_v000' across identities 'id0000' and 'id0003'"),
    # a row that is both: the pristine check comes first
    (40, 40, r"manipulated segment \('id0003', 'id0000_v000', 1\)"),
])
def test_first_bad_row_in_dataset_order_is_named(fake_row, shared_row, message):
    table = tiny_world().segments
    table = with_rows(table, {shared_row: {"video_id": "id0000_v000"}})
    table = with_rows(table, {fake_row: FAKE})
    with pytest.raises(DataError, match=message):
        index_training_set(table, 3, 2)


def test_mixed_feature_dims_fail_before_first_step():
    records = tiny_world().segments.to_records()
    records[4] = replace(records[4], audio=records[4].audio[:-1])
    with pytest.raises(DataError, match=re.escape("inconsistent feature dims: audio [4, 5], "
                                                  "video [4]")):
        SegmentTable.from_records(records)


def test_train_same_config_is_bit_reproducible():
    world = tiny_world()
    a = train(world.segments, tiny_cfg())
    b = train(world.segments, tiny_cfg())
    for wa, wb in zip(flatten_params(a.state.params), flatten_params(b.state.params)):
        np.testing.assert_array_equal(wa, wb)
    assert np.array_equal(a.log[:, -1], b.log[:, -1])
    assert a.state.rng_state == b.state.rng_state


def test_train_log_covers_every_step_and_loss_drops():
    world = tiny_world(identities=8)
    cfg = tiny_cfg(batches_per_epoch=150, learning_rate=3e-3)
    result = train(world.segments, cfg)
    assert result.log.shape == (150, len(LOSS_COLUMNS))
    assert result.state.steps_done == 150
    first = np.mean(result.log[:20, -1])
    last = np.mean(result.log[-20:, -1])
    assert last < first


def test_resume_reproduces_uninterrupted_run():
    world = tiny_world()
    full = train(world.segments, tiny_cfg(batches_per_epoch=12))
    half = train(world.segments, tiny_cfg(batches_per_epoch=6))
    resumed = train(world.segments, tiny_cfg(batches_per_epoch=12), resume=half.state)
    for wa, wb in zip(flatten_params(full.state.params), flatten_params(resumed.state.params)):
        np.testing.assert_array_equal(wa, wb)
    assert full.state.rng_state == resumed.state.rng_state
    assert resumed.state.steps_done == 12
    # the resumed log holds only the continued steps, 7 to 12
    assert len(resumed.log) == 6
    assert np.array_equal(resumed.log[:, -1], full.log[6:, -1])


def checkpoint_bytes(path, result):
    write_checkpoint(str(path), result.state, {"tau": "0.5"})
    return path.read_bytes()


def test_resume_within_an_epoch_gives_the_uninterrupted_bytes(tmp_path):
    """5 steps, then resumed to 3 epochs of 4: the bytes of 12 steps straight."""
    table = uneven_world()
    full = train(table, tiny_cfg(epochs=3, batches_per_epoch=4))
    part = train(table, tiny_cfg(epochs=1, batches_per_epoch=5))
    resumed = train(table, tiny_cfg(epochs=3, batches_per_epoch=4), resume=part.state)
    assert part.state.steps_done == 5
    assert checkpoint_bytes(tmp_path / "resumed.ckpt", resumed) == \
        checkpoint_bytes(tmp_path / "full.ckpt", full)
    assert np.array_equal(resumed.log, full.log[5:])


def test_train_leaves_its_resume_arrays_untouched():
    world = tiny_world()
    half = train(world.segments, tiny_cfg(batches_per_epoch=6))
    state = half.state
    arrays = flatten_params(state.params) + state.m + state.v
    before = [a.copy() for a in arrays]
    rng_state = {**state.rng_state, "state": dict(state.rng_state["state"])}
    resumed = train(world.segments, tiny_cfg(batches_per_epoch=12), resume=state)
    assert all(np.array_equal(a, b) for a, b in zip(arrays, before))
    assert state.steps_done == 6
    assert state.rng_state == rng_state
    assert not any(np.shares_memory(a, b) for a in flatten_params(resumed.state.params)
                   for b in arrays)


def test_resume_beyond_budget_is_rejected():
    world = tiny_world()
    done = train(world.segments, tiny_cfg(batches_per_epoch=6))
    with pytest.raises(ConfigError):
        train(world.segments, tiny_cfg(batches_per_epoch=4), resume=done.state)


def test_zero_epochs_returns_initialization():
    world = tiny_world()
    cfg = tiny_cfg(epochs=0)
    result = train(world.segments, cfg)
    assert result.log.shape == (0, len(LOSS_COLUMNS))
    assert result.state.steps_done == 0
    init = init_encoder(5, 4, cfg.encoder, np.random.default_rng(cfg.seed))
    for wa, wb in zip(flatten_params(result.state.params), flatten_params(init)):
        np.testing.assert_array_equal(wa, wb)


def test_train_refuses_manipulated_segments():
    table = with_rows(tiny_world().segments, {3: FAKE})
    with pytest.raises(DataError):
        train(table, tiny_cfg())


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    for tau in (-0.5, float("nan")):
        with pytest.raises(ConfigError, match="temperature must be positive"):
            TrainConfig(tau=tau)
    for joint_weight in (-1.0, float("nan")):
        with pytest.raises(ConfigError, match="joint loss weight must be non-negative"):
            TrainConfig(joint_weight=joint_weight)
    with pytest.raises(ConfigError):
        TrainConfig(identities_per_batch=1)
    with pytest.raises(ConfigError):
        TrainConfig(beta2=1.0)
