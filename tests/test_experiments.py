"""The table scoring path against the record-based oracles, bit for bit."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    record_reference_by_variety,
    record_reference_by_videos,
    record_score_rows,
    record_sweep_rows,
    record_sweep_scores,
    record_truncate_videos,
)
from poif.encoder import EncoderConfig, init_encoder
from poif.exceptions import DataError
from poif.experiments import (
    build_references,
    group_by_video,
    reference_by_variety,
    reference_by_videos,
    score_segments,
    sweep_rows,
    sweep_scores,
    truncate_videos,
)
from poif.records import GROUPS, PRISTINE, SegmentRecord, SegmentTable, flags_for_group
from poif.scoring import DecisionPolicy, SmallReferenceWarning

pytestmark = pytest.mark.filterwarnings("ignore::poif.scoring.SmallReferenceWarning")

TAU = 0.5
AUDIO_DIM, VIDEO_DIM = 16, 16


def ragged_world(seed=0, people=3):
    """Reference and test records with ragged, shuffled, interleaved videos.

    Videos hold 1-40 segments, so embedding batches fall on both sides of
    the 37/38-row switch between BLAS paths.  Segment indices repeat
    inside a video, and the rows of all videos are shuffled together.
    Every person's first reference video (by id) holds 40 segments, so a
    budget of up to 40 can be drawn from one video.
    """
    rng = np.random.default_rng(seed)
    reference, test = [], []

    def video(out, poi, vid, length, latent, flags=PRISTINE, blend=0.0):
        bias_a, bias_v = rng.normal(size=AUDIO_DIM) * 0.3, rng.normal(size=VIDEO_DIM) * 0.3
        for _ in range(length):
            out.append(SegmentRecord(
                identity_id=poi, video_id=vid,
                segment_index=int(rng.integers(0, max(1, length // 2))),
                audio=latent[0] + bias_a + rng.normal(size=AUDIO_DIM) * 0.2,
                video=latent[1] + bias_v + rng.normal(size=VIDEO_DIM) * 0.2,
                flags=flags, blend=blend,
            ))

    for p in range(people):
        poi = f"p{p}"
        latent = (rng.normal(size=AUDIO_DIM), rng.normal(size=VIDEO_DIM))
        video(reference, poi, f"{poi}_r0", 40, latent)
        for v in range(1, 5):
            video(reference, poi, f"{poi}_r{v}", int(rng.integers(1, 41)), latent)
        for v in range(3):
            video(test, poi, f"{poi}_t{v}", int(rng.integers(1, 41)), latent)
        for g, group in enumerate(GROUPS):
            flags = flags_for_group(group)
            blend = (1.0, 0.4)[g % 2] if flags.v else 0.0
            donor = (rng.normal(size=AUDIO_DIM), rng.normal(size=VIDEO_DIM))
            video(test, poi, f"{poi}_f{g}", int(rng.integers(1, 41)), donor, flags, blend)
    order_ref = rng.permutation(len(reference))
    order_test = rng.permutation(len(test))
    return [reference[i] for i in order_ref], [test[i] for i in order_test]


@pytest.fixture(scope="module")
def world():
    reference, test = ragged_world()
    params = init_encoder(AUDIO_DIM, VIDEO_DIM, EncoderConfig(2, 64, 32), 5)
    return reference, test, params


def test_world_covers_both_embedding_batch_paths(world):
    reference, test, _ = world
    lengths = {}
    for seg in test:
        lengths[seg.video_id] = lengths.get(seg.video_id, 0) + 1
    assert min(lengths.values()) <= 37 and max(lengths.values()) >= 38
    indices = [(s.video_id, s.segment_index) for s in test]
    assert len(set(indices)) < len(indices)  # repeated segment_index values


@pytest.mark.parametrize("statistic", ["fused", "video"])
def test_score_segments_matches_record_oracle(world, statistic):
    reference, test, params = world
    policy = DecisionPolicy(p_fa=0.2)
    got = score_segments(SegmentTable.from_records(reference), SegmentTable.from_records(test),
                         params, TAU, policy, statistic=statistic)
    want = record_score_rows(reference, test, params, TAU, policy, statistic)
    assert [r.video_id for r in got] == [r.video_id for r in want]
    assert got == want


@pytest.mark.parametrize("axis, values", [
    ("test_length", [40, 1, 3, 37, 38]),
    ("ref_size", [2, 5, 3]),
    ("ref_variety", [1, 2, 5]),
])
def test_sweeps_match_record_oracle(world, axis, values):
    reference, test, params = world
    ref_table, test_table = SegmentTable.from_records(reference), SegmentTable.from_records(test)
    got = sweep_scores(axis, values, ref_table, test_table, params, TAU, ref_total=7)
    want = record_sweep_scores(axis, values, reference, test, params, TAU, ref_total=7)
    assert [x for x, _ in got] == sorted(values)
    assert got == want
    assert sweep_rows(axis, values, ref_table, test_table, params, TAU, ref_total=7) \
        == record_sweep_rows(axis, values, reference, test, params, TAU, ref_total=7)


def test_selections_match_record_oracle(world):
    reference, test, _ = world
    ref_table, test_table = SegmentTable.from_records(reference), SegmentTable.from_records(test)
    videos = group_by_video(test_table)
    for x in (1, 2, 38, 40):
        rows = truncate_videos(videos, x).rows
        assert [test[r] for r in rows] == record_truncate_videos(test, x)
    for x in (1, 3, 5):
        assert [reference[r] for r in reference_by_videos(ref_table, x)] \
            == record_reference_by_videos(reference, x)
        for total in (1, 7, 40):
            assert [reference[r] for r in reference_by_variety(ref_table, x, total)] \
                == record_reference_by_variety(reference, x, total)
    with pytest.raises(DataError, match="has 5 videos, need 6"):
        reference_by_videos(ref_table, 6)
    with pytest.raises(DataError, match="cannot fill a budget of 41 segments from 1 videos"):
        reference_by_variety(ref_table, 1, 41)


def test_group_by_video_rejects_mixed_videos(world):
    _, test, _ = world
    table = SegmentTable.from_records(test)
    first = test[0].video_id
    last_row = np.flatnonzero(table.video_ids == first)[-1]
    other = next(s.identity_id for s in test if s.identity_id != test[0].identity_id)
    owners = table.identity_ids.copy()
    owners[last_row] = other
    with pytest.raises(DataError, match=rf"video '{first}' claims multiple identities"):
        group_by_video(replace(table, identity_ids=owners))
    flags = table.flags.copy()
    flags[last_row] = False if test[0].flags.is_fake else [True, True, False, False]
    with pytest.raises(DataError, match=rf"video '{first}' mixes manipulation labels"):
        group_by_video(replace(table, flags=flags))


def test_scoring_holds_no_person_sized_similarity_matrix():
    """400 test rows against a 1,000-segment reference stay in row blocks."""
    rng = np.random.default_rng(11)
    n_ref, n_test = 1000, 400

    def segments(prefix, n, per_video):
        return [SegmentRecord(identity_id="p0", video_id=f"{prefix}{i // per_video}",
                              segment_index=i % per_video,
                              audio=rng.normal(size=AUDIO_DIM), video=rng.normal(size=VIDEO_DIM))
                for i in range(n)]

    reference = SegmentTable.from_records(segments("r", n_ref, 20))
    test = SegmentTable.from_records(segments("t", n_test, 10))
    params = init_encoder(AUDIO_DIM, VIDEO_DIM, EncoderConfig(1, 16, 32), 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SmallReferenceWarning)
        refs = build_references(reference, params, TAU)
    tracemalloc.start()
    try:
        rows = score_segments(reference, test, params, TAU, DecisionPolicy(p_fa=0.1),
                              references=refs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == n_test // 10
    assert peak < n_test * n_ref * 8, f"peak {peak / 1e6:.2f} MB"
