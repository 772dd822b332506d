import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import assert_within, embedded_reference, index_bound, score_clip
from oracles import (
    dense_self_scores,
    embed_one,
    phi,
    phi_inv,
    reference_stats_bruteforce,
    squared_distance,
)
from poif import similarity
from poif.encoder import EncoderConfig, init_encoder
from poif.exceptions import ConfigError, DataError, DegenerateReferenceError
from poif.records import CHANNELS, SegmentTable
from poif.experiments import score_segments
from poif.scoring import (
    SmallReferenceWarning,
    build_reference,
    quantile_threshold,
    score_video,
)
from poif.synthgen import WorldConfig, generate_world, sample_identity_videos


def one_person_segments(seed=0, videos=4, segments=5):
    cfg = WorldConfig(
        n_identities=1, n_videos_per_identity=videos, n_segments_per_video=segments,
        audio_dim=6, video_dim=5, seed=seed,
        segment_noise_scale=0.3, video_bias_scale=0.2,
    )
    return generate_world(cfg).segments.to_records()


def quiet_reference(segments, params, tau, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SmallReferenceWarning)
        return embedded_reference(SegmentTable.from_records(segments), params, tau, **kwargs)


@pytest.fixture
def params():
    return init_encoder(6, 5, EncoderConfig(1, 8, 4), np.random.default_rng(7))


def test_reference_stats_match_bruteforce(params):
    segments = one_person_segments()
    ref = quiet_reference(segments, params, tau=0.7)
    oracle = reference_stats_bruteforce(segments, params, 0.7)
    for c, m in enumerate(CHANNELS):
        mu, sigma = oracle[m]
        assert ref.mu[c] == pytest.approx(mu, abs=1e-12)
        assert ref.sigma[c] == pytest.approx(sigma, abs=1e-12)


# Slice budgets: 1 byte forces one-row slices; 6720 bytes are 28 rows of
# 8*30 bytes, splitting the 30 reference segments into a slice of 28 and
# a last one of 2 padded to 28; 1 MB takes them in one.  The budget sets
# the encoder's row blocks too.
@pytest.mark.parametrize("budget", [1, 28 * 8 * 30, 1 << 20])
@pytest.mark.parametrize("exclude_same_video", [True, False])
def test_streamed_calibration_matches_dense_oracle(params, monkeypatch, budget,
                                                   exclude_same_video):
    monkeypatch.setattr(similarity, "_SLICE_BYTES", budget)
    segments = one_person_segments(seed=2, videos=6, segments=5)
    ref = quiet_reference(segments, params, tau=0.6,
                          exclude_same_video=exclude_same_video)
    oracle = dense_self_scores(ref.audio, ref.video, ref.video_ids, 0.6,
                               exclude_same_video)
    bound = index_bound(ref.audio, ref.video, ref.audio, ref.video, 0.6)
    for c, m in enumerate(CHANNELS):
        scores, mu, sigma = oracle[m]
        assert_within(ref.self_scores[c], scores, bound[c])
        # a mean, and a population spread, move by at most the largest error
        assert_within(ref.mu[c], mu, bound[c].max())
        assert_within(ref.sigma[c], sigma, bound[c].max())


def test_reference_calibration_never_holds_an_n_by_n_matrix():
    n = 1000
    segments = one_person_segments(seed=4, videos=50, segments=20)
    assert len(segments) == n
    params = init_encoder(6, 5, EncoderConfig(1, 8, 32), np.random.default_rng(3))
    table = SegmentTable.from_records(segments)
    tracemalloc.start()
    try:
        embedded_reference(table, params, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n * n * 8, f"peak {peak / 1e6:.1f} MB"


def test_normalized_self_scores_are_standardized(params):
    segments = one_person_segments(seed=3)
    ref = quiet_reference(segments, params, tau=0.5)
    for scores, mu, sigma in zip(ref.self_scores, ref.mu, ref.sigma):
        z = (scores - mu) / sigma
        assert abs(z.mean()) < 1e-12
        assert abs(z.std() - 1.0) < 1e-12


def test_single_video_reference_needs_explicit_opt_out(params):
    segments = one_person_segments(videos=1, segments=8)
    with pytest.raises(DataError):
        quiet_reference(segments, params, tau=0.5)
    ref = quiet_reference(segments, params, tau=0.5, exclude_same_video=False)
    assert ref.n_videos == 1
    assert len(ref) == 8


def test_reference_count_errors_name_the_person(params):
    one_video = one_person_segments(videos=1, segments=8)
    poi = one_video[0].identity_id
    with pytest.raises(DataError, match=f"reference for '{poi}' needs at least 2 distinct "
                                        f"videos for leave-own-video-out calibration; got 1"):
        quiet_reference(one_video, params, tau=0.5)
    with pytest.raises(DataError, match=f"reference for '{poi}' needs at least 2 segments"):
        quiet_reference(one_video[:1], params, tau=0.5, exclude_same_video=False)


def test_small_reference_warns():
    segments = one_person_segments(videos=2, segments=3)
    with pytest.warns(SmallReferenceWarning):
        embedded_reference(SegmentTable.from_records(segments),
                           init_encoder(6, 5, EncoderConfig(1, 8, 4), np.random.default_rng(0)),
                           0.5)


def test_degenerate_reference_is_reported(params):
    # two videos whose segments are all feature-identical: every
    # self-score ties and the spread collapses
    base = one_person_segments(videos=2, segments=3)
    flat = [type(s)(identity_id=s.identity_id, video_id=s.video_id,
                    segment_index=s.segment_index,
                    audio=np.ones(6), video=np.ones(5)) for s in base]
    with pytest.raises(DegenerateReferenceError):
        quiet_reference(flat, params, tau=0.5)


def test_reference_rejects_mixed_and_fake_material(params):
    cfg = WorldConfig(n_identities=2, n_videos_per_identity=2,
                      n_segments_per_video=2, audio_dim=6, video_dim=5, seed=0)
    world = generate_world(cfg)
    with pytest.raises(DataError):
        quiet_reference(world.segments.to_records(), params, tau=0.5)
    with pytest.raises(DataError, match="empty reference"):
        build_reference(SegmentTable.from_records([]), (np.empty((0, 4)),) * 2, tau=0.5)


def best_similarities(probe, ref_segments, params, tau):
    """Best similarity of one probe to any reference segment, by scalar loops."""
    audio, video = embed_one(params, probe)
    best = [-np.inf] * len(CHANNELS)
    for seg in ref_segments:
        ref_audio, ref_video = embed_one(params, seg)
        s_a = -(squared_distance(audio, ref_audio) / tau)
        s_v = -(squared_distance(video, ref_video) / tau)
        best = [max(b, s) for b, s in zip(best, (s_v, s_a, s_v + s_a))]
    return best


def test_poi_index_is_max_over_reference(params):
    segments = one_person_segments(seed=5)
    ref = quiet_reference(segments, params, tau=0.9)
    world = generate_world(WorldConfig(
        n_identities=1, n_videos_per_identity=1, n_segments_per_video=1,
        audio_dim=6, video_dim=5, seed=99))
    probe = world.segments.to_records()[0]
    normalized, _ = score_clip([probe], ref, params, 0.9)
    for c, best in enumerate(best_similarities(probe, segments, params, 0.9)):
        want = (best - ref.mu[c]) / ref.sigma[c]
        assert normalized[c][0] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_normalize_and_fuse():
    segments = one_person_segments(seed=6)
    params = init_encoder(6, 5, EncoderConfig(1, 8, 4), np.random.default_rng(1))
    ref = quiet_reference(segments, params, tau=0.5)
    # a probe equal to a reference segment has raw index 0 (its own
    # distance) up to the kernel's bound, so normalization leaves -mu / sigma
    normalized, fused = score_clip(segments[:1], ref, params, 0.5)
    bound = index_bound(ref.audio[:1], ref.video[:1], ref.audio, ref.video, 0.5)
    for c in range(len(CHANNELS)):
        assert_within(normalized[c][0], (0.0 - ref.mu[c]) / ref.sigma[c],
                      bound[c][0] / ref.sigma[c])
    # for one segment the fused value is exactly the worst channel
    assert fused[0] == min(normalized[:, 0])


def test_quantile_threshold_matches_erf_inverse():
    assert quantile_threshold(0.5) == pytest.approx(0.0, abs=1e-12)
    for p in (0.01, 0.05, 0.1, 0.25, 0.9):
        t = quantile_threshold(p)
        assert t == pytest.approx(phi_inv(p), abs=1e-9)
        assert phi(t) == pytest.approx(p, abs=1e-9)
    with pytest.raises(ConfigError):
        quantile_threshold(0.0)
    with pytest.raises(ConfigError):
        quantile_threshold(1.0)


def test_score_video_averages_per_segment_indices(params):
    ref_segments = one_person_segments(seed=8)
    ref = quiet_reference(ref_segments, params, tau=0.5)
    world = generate_world(WorldConfig(
        n_identities=1, n_videos_per_identity=1, n_segments_per_video=1,
        audio_dim=6, video_dim=5, seed=8))
    test_segments = sample_identity_videos(world, "id0000", 1, 4,
                                           np.random.default_rng(3)).to_records()
    normalized, fused = score_clip(test_segments, ref, params, 0.5)

    per_segment = [score_clip([seg], ref, params, 0.5)[0] for seg in test_segments]
    for c in range(len(CHANNELS)):
        mean = sum(v[c][0] for v in per_segment) / len(per_segment)
        assert normalized[c][0] == pytest.approx(mean, rel=1e-10)
    want = sum(min(v[:, 0]) for v in per_segment) / len(per_segment)
    assert fused[0] == pytest.approx(want, rel=1e-10)


def test_score_video_gives_a_strided_stack_the_bits_of_its_contiguous_copy(params):
    """A fancy index after a slice, raw[:, at], returns a channel-innermost
    stack that is not C-contiguous; means along L over it would sum in
    another order.  score_video makes its input contiguous itself."""
    ref = quiet_reference(one_person_segments(seed=10), params, tau=0.5)
    rng = np.random.default_rng(10)
    raw = ref.mu[:, None] + ref.sigma[:, None] * rng.standard_normal((len(CHANNELS), 400))
    strided = raw[:, rng.permutation(400).reshape(40, 10)]
    assert not strided.flags.c_contiguous
    got = score_video(strided, ref)
    want = score_video(np.ascontiguousarray(strided), ref)
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


def test_score_video_decision_follows_threshold(params):
    ref_segments = one_person_segments(seed=9)
    ref = quiet_reference(ref_segments, params, tau=0.5)
    world = generate_world(WorldConfig(
        n_identities=1, n_videos_per_identity=1, n_segments_per_video=1,
        audio_dim=6, video_dim=5, seed=9))
    own = sample_identity_videos(world, "id0000", 1, 6, np.random.default_rng(1))
    reference = SegmentTable.from_records(ref_segments)

    def judged(p_fa, **kwargs):
        return score_segments(reference, own, params, 0.5, p_fa, references={"id0000": ref},
                              **kwargs)

    # the one-video table carries score_video's statistics of the clip
    lenient = judged(0.1)
    assert lenient.statistics[-1].tolist() == score_clip(own.to_records(), ref, params, 0.5)[1].tolist()
    assert lenient.fake.dtype == bool
    # the default statistic against the threshold at p_fa
    assert lenient.fake.tolist() == [bool(lenient.statistics[-1, 0] < quantile_threshold(0.1))]
    # an absurdly strict rate must flag even genuine material
    assert judged(0.999999).fake.tolist() == [True]
    with pytest.raises(ConfigError):
        judged(0.1, statistic="fused")
    with pytest.raises(DataError):
        score_video(np.empty((3, 0, 3)), ref)
