"""The table scoring path against the record-based oracles.

Ids, counts, labels and the references' calibration match exactly; the
normalized fields match within the distance kernel's error bound
(``conftest.gram_bound``), and so do decisions and AUCs wherever that
bound cannot reach a threshold or a real/fake tie.
"""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import assert_within, index_bound
from oracles import (
    per_video_score_rows,
    record_reference_by_variety,
    record_reference_by_videos,
    record_score_rows,
    record_sweep_rows,
    record_sweep_scores,
    record_truncate_videos,
    row_statistic,
    score_table_rows,
)
from poif import experiments, similarity
from poif.encoder import EncoderConfig, encode_batch, init_encoder
from poif.exceptions import ConfigError, DataError
from poif.experiments import (
    build_references,
    check_references,
    group_by_video,
    reference_by_variety,
    reference_by_videos,
    score_segments,
    sweep_rows,
    sweep_scores,
    truncate_videos,
)
from poif.records import GROUP_FLAGS, PRISTINE, ManipFlags, SegmentRecord, SegmentTable
from poif.scoring import SmallReferenceWarning, best_matches, quantile_threshold

pytestmark = pytest.mark.filterwarnings("ignore::poif.scoring.SmallReferenceWarning")

TAU = 0.5
AUDIO_DIM, VIDEO_DIM = 16, 16


def embedded_references(table, params, rows=None, **kwargs):
    """build_references of the table's checked rows (default: all), on its own embedding."""
    return build_references(table, encode_batch(params, table.audio, table.video), TAU,
                            check_references(table, rows, **kwargs))


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
        for g, bits in enumerate(GROUP_FLAGS.tolist()):
            flags = ManipFlags(*bits)
            blend = (1.0, 0.4)[g % 2] if flags.v else 0.0
            donor = (rng.normal(size=AUDIO_DIM), rng.normal(size=VIDEO_DIM))
            video(test, poi, f"{poi}_f{g}", int(rng.integers(1, 41)), donor, flags, blend)
    order_ref = rng.permutation(len(reference))
    order_test = rng.permutation(len(test))
    return [reference[i] for i in order_ref], [test[i] for i in order_test]


@pytest.fixture(scope="module")
def world():
    reference, test = ragged_world()
    params = init_encoder(AUDIO_DIM, VIDEO_DIM, EncoderConfig(2, 64, 32),
                          np.random.default_rng(5))
    return reference, test, params


def test_unknown_statistic_is_refused_before_any_embedding(world, monkeypatch):
    reference, test, params = world
    ref_table, test_table = SegmentTable.from_records(reference), SegmentTable.from_records(test)

    def embed(*args):
        raise AssertionError("embedded before the statistic was checked")

    monkeypatch.setattr(experiments, "encode_batch", embed)
    for run in (score_segments, sweep_scores, sweep_rows):
        args = (ref_table, test_table, params, TAU)
        args = (*args, 0.1) if run is score_segments else ("test_length", [1], *args)
        with pytest.raises(ConfigError, match="^unknown statistic 'fused'$"):
            run(*args, statistic="fused")


def refuse_embedding(monkeypatch):
    def embed(*args):
        raise AssertionError("embedded before the data was checked")

    monkeypatch.setattr(experiments, "encode_batch", embed)


def runs_of(ref_table, test_table, params):
    """score_segments and each sweep axis, on the two tables."""
    return {"score": lambda: score_segments(ref_table, test_table, params, TAU, 0.1),
            **{axis: lambda axis=axis: sweep_scores(axis, [1, 2], ref_table, test_table, params,
                                                    TAU, ref_total=40)
               for axis in ("test_length", "ref_size", "ref_variety")}}


@pytest.mark.parametrize("axis, ref_total", [("ref_size", 100), ("ref_variety", 40)])
def test_a_sweep_point_without_enough_videos_is_refused_before_any_embedding_or_warning(
        world, monkeypatch, axis, ref_total):
    """Every point's reference rows are selected before the embedding, so a
    point past a person's videos is refused before any point is calibrated."""
    reference, test, params = world
    ref_table, test_table = SegmentTable.from_records(reference), SegmentTable.from_records(test)
    refuse_embedding(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DataError, match="^reference for 'p0' has 5 videos, need 6$"):
            sweep_scores(axis, [6, 1, 2, 3, 4, 5], ref_table, test_table, params, TAU,
                         ref_total=ref_total)
    assert caught == []


def test_a_bad_test_video_is_refused_before_any_embedding(world, monkeypatch):
    reference, test, params = world
    ref_table, test_table = SegmentTable.from_records(reference), SegmentTable.from_records(test)
    first = test_table.video_ids[0]
    owners = test_table.identity_ids.copy()
    owners[np.flatnonzero(test_table.video_ids == first)[-1]] = "p2" if owners[0] != "p2" else "p1"
    bad = replace(test_table, identity_ids=owners)
    refuse_embedding(monkeypatch)
    for run in runs_of(ref_table, bad, params).values():
        with pytest.raises(DataError, match=rf"^video '{first}' claims multiple identities"):
            run()


def test_a_one_video_reference_is_refused_before_any_embedding(world, monkeypatch):
    reference, test, params = world
    ref_table, test_table = SegmentTable.from_records(reference), SegmentTable.from_records(test)
    # p1 keeps its first video only; every sweep point still selects p1's
    # rows, so each run meets the one-video refusal before anything else
    one = ref_table.take((ref_table.identity_ids != "p1") | (ref_table.video_ids == "p1_r0"))
    refuse_embedding(monkeypatch)
    runs = runs_of(one, test_table, params)
    for name in ("score", "test_length"):
        with pytest.raises(DataError, match="^reference for 'p1' needs at least 2 distinct "
                                            "videos for leave-own-video-out calibration; got 1$"):
            runs[name]()
    for name in ("ref_size", "ref_variety"):
        with pytest.raises(DataError, match="^reference for 'p1' has 1 videos, need 2$"):
            runs[name]()


def test_world_covers_both_embedding_batch_paths(world):
    reference, test, _ = world
    lengths = {}
    for seg in test:
        lengths[seg.video_id] = lengths.get(seg.video_id, 0) + 1
    assert min(lengths.values()) <= 37 and max(lengths.values()) >= 38
    indices = [(s.video_id, s.segment_index) for s in test]
    assert len(set(indices)) < len(indices)  # repeated segment_index values


NORMALIZED = ("norm_video", "norm_audio", "norm_av", "fused")


def score_tolerance(test, references, params):
    """Largest error the kernel's bound allows in a normalized score field.

    A normalized index is (raw - mu) / sigma with mu and sigma shared by
    both sides, and a per-video mean or the fused minimum moves by at most
    the largest per-segment error.
    """
    x_audio, x_video = encode_batch(params, test.audio, test.video)
    worst = 0.0
    for poi, ref in references.items():
        mine = test.identity_ids == poi
        bound = index_bound(x_audio[mine], x_video[mine], ref.audio, ref.video, TAU)
        worst = max([worst] + (bound.max(axis=1, initial=0.0) / ref.sigma).tolist())
    return worst


def assert_rows_within(got, want, tol, p_fa, statistic):
    """Exact ids, counts and labels; normalized fields within tol; equal
    decisions unless the oracle's statistic lies within tol of the threshold."""
    blank = dict.fromkeys(NORMALIZED, 0.0)
    assert [replace(r, **blank, decision="") for r in got] \
        == [replace(r, **blank, decision="") for r in want]
    for g, w in zip(got, want):
        assert_within([getattr(g, f) for f in NORMALIZED], [getattr(w, f) for f in NORMALIZED],
                      tol)
        if abs(row_statistic(w, statistic) - quantile_threshold(p_fa)) > tol:
            assert g.decision == w.decision, w.video_id


def assert_no_near_ties(rows, statistic, tol):
    """No real and fake statistic closer than 2 tol, so every AUC is fixed."""
    reals = np.array([row_statistic(r, statistic) for r in rows if not r.flags.is_fake])
    fakes = np.array([row_statistic(r, statistic) for r in rows if r.flags.is_fake])
    assert np.abs(reals[:, None] - fakes[None, :]).min() > 2 * tol


@pytest.mark.parametrize("statistic", ["fusion", "video"])
def test_score_segments_matches_record_oracle(world, statistic):
    reference, test, params = world
    ref_table, test_table = SegmentTable.from_records(reference), SegmentTable.from_records(test)
    refs = embedded_references(ref_table, params)
    got = score_table_rows(score_segments(ref_table, test_table, params, TAU, 0.2,
                                          statistic=statistic, references=refs))
    want = record_score_rows(reference, test, params, TAU, 0.2, statistic)
    assert_rows_within(got, want, score_tolerance(test_table, refs, params), 0.2, statistic)


def test_video_scored_alone_matches_its_row_in_the_full_file(world):
    # A row's embedding and matches do not depend on its neighbours, so a
    # video alone gets the bits of its row in the full file.
    reference, test, params = world
    ref_table, test_table = SegmentTable.from_records(reference), SegmentTable.from_records(test)
    refs = embedded_references(ref_table, params)
    full = score_table_rows(score_segments(ref_table, test_table, params, TAU, 0.2,
                                           references=refs))
    for row in full:
        alone = test_table.take(np.flatnonzero(test_table.video_ids == row.video_id))
        assert score_table_rows(score_segments(ref_table, alone, params, TAU, 0.2,
                                               references=refs)) == [row]


def point_references(axis, x, ref_table, params, ref_total):
    """The references one sweep point scores against."""
    if axis == "test_length":
        return embedded_references(ref_table, params)
    rows = (reference_by_videos(ref_table, x) if axis == "ref_size"
            else reference_by_variety(ref_table, x, ref_total))
    return embedded_references(ref_table, params, rows, exclude_same_video=x > 1)


@pytest.mark.parametrize("axis, values", [
    ("test_length", [40, 1, 3, 37, 38]),
    ("ref_size", [2, 5, 1, 3]),
    ("ref_variety", [1, 2, 5]),
])
def test_sweeps_match_record_oracle(world, axis, values):
    reference, test, params = world
    ref_table, test_table = SegmentTable.from_records(reference), SegmentTable.from_records(test)
    got = sweep_scores(axis, values, ref_table, test_table, params, TAU, ref_total=7)
    want = record_sweep_scores(axis, values, reference, test, params, TAU, ref_total=7)
    assert [x for x, _ in got] == sorted(values)
    assert [x for x, _ in want] == sorted(values)
    for (x, got_table), (_, want_rows) in zip(got, want):
        got_rows = score_table_rows(got_table)
        # truncating test videos only drops rows, so the full table's bound holds
        tol = score_tolerance(test_table, point_references(axis, x, ref_table, params, 7),
                              params)
        assert_rows_within(got_rows, want_rows, tol, 0.5, "fusion")
        assert_no_near_ties(want_rows, "fusion", tol)
    assert sweep_rows(axis, values, ref_table, test_table, params, TAU, ref_total=7) \
        == record_sweep_rows(axis, values, reference, test, params, TAU, ref_total=7)


def test_test_length_sweep_matches_scoring_the_truncated_table(world):
    """Each test_length point equals score_segments on the truncated table,
    its videos in reverse order, bit for bit."""
    reference, test, params = world
    ref_table, test_table = SegmentTable.from_records(reference), SegmentTable.from_records(test)
    refs = embedded_references(ref_table, params)
    videos = group_by_video(test_table)
    values = [1, 3, 37, 38, 40]
    for x, rows in sweep_scores("test_length", values, ref_table, test_table, params, TAU):
        scored = truncate_videos(videos, x)
        truncated = test_table.take(np.concatenate(
            [scored.video_rows(k) for k in reversed(range(len(scored)))]))
        want = score_table_rows(score_segments(ref_table, truncated, params, TAU, 0.5,
                                               references=refs))
        assert sorted(score_table_rows(rows), key=lambda r: r.video_id) \
            == sorted(want, key=lambda r: r.video_id)


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
    params = init_encoder(AUDIO_DIM, VIDEO_DIM, EncoderConfig(1, 16, 32),
                          np.random.default_rng(2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SmallReferenceWarning)
        refs = embedded_references(reference, params)
    tracemalloc.start()
    try:
        rows = score_segments(reference, test, params, TAU, 0.1, references=refs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == n_test // 10
    assert peak < n_test * n_ref * 8, f"peak {peak / 1e6:.2f} MB"


# -- stacks of equal-length videos --------------------------------------

STACK_LENGTHS = (1, 2, 7, 10, 20)


@pytest.fixture(scope="module")
def stack_world():
    """Three people, each with three test videos of every STACK_LENGTHS
    length across all labels, rows shuffled together; 4 x 10 reference
    segments per person.  A swapped face's blend grows along its video."""
    rng = np.random.default_rng(21)
    reference, test = [], []
    labels = [(PRISTINE, 0.0)] + [(ManipFlags(*flags.tolist()), 0.4 if flags[1] else 0.0)
                                  for flags in GROUP_FLAGS]
    for p in range(3):
        poi = f"p{p}"
        latent = (rng.normal(size=AUDIO_DIM), rng.normal(size=VIDEO_DIM))

        def video(out, vid, length, flags=PRISTINE, blend=0.0):
            for i in range(length):  # blends vary inside a video; a row keeps their max
                out.append(SegmentRecord(
                    identity_id=poi, video_id=vid, segment_index=i,
                    audio=latent[0] + rng.normal(size=AUDIO_DIM) * 0.3,
                    video=latent[1] + rng.normal(size=VIDEO_DIM) * 0.3,
                    flags=flags, blend=blend * (0.9 + 0.05 * (i % 3))))

        for v in range(4):
            video(reference, f"{poi}_r{v}", 10)
        for j, length in enumerate(STACK_LENGTHS * 3):
            flags, blend = labels[j % len(labels)]
            video(test, f"{poi}_t{j}", length, flags, blend)
    test = [test[i] for i in rng.permutation(len(test))]
    params = init_encoder(AUDIO_DIM, VIDEO_DIM, EncoderConfig(2, 64, 32),
                          np.random.default_rng(8))
    ref_table = SegmentTable.from_records(reference)
    return ref_table, SegmentTable.from_records(test), params, embedded_references(
        ref_table, params)


WIDEST = 64  # the stack world's widest encoder layer


@pytest.fixture(params=["default budget", "7-row budget at width 64"])
def budget(request, monkeypatch):
    """The row-block byte budget; the small one splits every table and every
    person's test rows into several blocks, the last one padded."""
    if request.param != "default budget":
        monkeypatch.setattr(similarity, "_SLICE_BYTES", 8 * WIDEST * 7 * 2)
    return similarity._SLICE_BYTES


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_rows_get_the_same_bits_alone_shifted_and_among_any_neighbours(stack_world, budget):
    """encode_batch and best_matches run on fixed-shape padded blocks, so a
    row's embedding and best matches do not depend on its neighbours.  A
    BLAS whose results depend on a row's place in a block fails here."""
    _, test, params, refs = stack_world
    ref = refs["p0"]
    n = len(test)
    x_audio, x_video = encode_batch(params, test.audio, test.video)
    full = best_matches(x_audio, x_video, ref.audio, ref.video, TAU)
    rng = np.random.default_rng(5)
    # lone rows and the two shifted ranges end in a padded block at both budgets
    selections = [np.array([i]) for i in (0, 1, n // 2, n - 1)]
    selections += [np.arange(7, n), np.arange(n - 7)]
    selections += [rng.permutation(n)[:k] for k in (2, 17, 60, n)]
    for rows in selections:
        part = encode_batch(params, test.audio[rows], test.video[rows])
        for got, want in zip(part, (x_audio, x_video)):
            assert_same_bits(got, want[rows])
        matched = best_matches(x_audio[rows], x_video[rows], ref.audio, ref.video, TAU)
        assert_same_bits(matched, full[:, rows])


@pytest.mark.parametrize("statistic", ["video", "audio", "av", "fusion"])
def test_stacked_score_rows_match_per_video_verdicts(stack_world, budget, statistic):
    ref_table, test, params, refs = stack_world
    got = score_segments(ref_table, test, params, TAU, 0.3, statistic=statistic,
                         references=refs)
    videos = group_by_video(test)
    embedded = tuple(x[videos.rows] for x in encode_batch(params, test.audio, test.video))
    want = per_video_score_rows(test, videos, embedded, refs, TAU, 0.3, statistic)
    assert score_table_rows(got) == want
    assert set(got.n_segments.tolist()) == set(STACK_LENGTHS)
    assert set(got.fake.tolist()) == {True, False}


def test_truncated_sweeps_match_per_video_verdicts(stack_world, budget):
    ref_table, test, params, _ = stack_world
    # calibration's row slices follow the budget, and so do its last bits
    refs = embedded_references(ref_table, params)
    values = [1, 2, 5, 7, 10, 15, 20, 30]
    got = sweep_scores("test_length", values, ref_table, test, params, TAU)
    videos = group_by_video(test)
    x_audio, x_video = encode_batch(params, test.audio, test.video)
    assert [x for x, _ in got] == values
    for x, scores in got:
        scored = truncate_videos(videos, x)
        assert score_table_rows(scores) == per_video_score_rows(
            test, scored, (x_audio[scored.rows], x_video[scored.rows]), refs, TAU, 0.5,
            "fusion")


def test_embedding_holds_only_its_output_and_a_few_stacks():
    """4,000 rows: the output matrices plus at most two block budgets."""
    rng = np.random.default_rng(12)
    n_videos, length = 400, 10
    test = SegmentTable.from_records([
        SegmentRecord(identity_id="p0", video_id=f"t{i // length}", segment_index=i % length,
                      audio=rng.normal(size=AUDIO_DIM), video=rng.normal(size=VIDEO_DIM))
        for i in range(n_videos * length)])
    params = init_encoder(AUDIO_DIM, VIDEO_DIM, EncoderConfig(2, WIDEST, 32),
                          np.random.default_rng(3))
    tracemalloc.start()
    try:
        x_audio, x_video = encode_batch(params, test.audio, test.video)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = x_audio.nbytes + x_video.nbytes
    assert output == 2 * n_videos * length * 32 * 8
    assert peak < output + 2 * similarity._SLICE_BYTES, \
        f"peak {peak / 1e6:.2f} MB over {output / 1e6:.2f} MB of output"
