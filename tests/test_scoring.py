import tracemalloc
import warnings

import numpy as np
import pytest

import poif.scoring as scoring_module
from conftest import assert_within, index_bound, score_clip
from oracles import (
    dense_self_scores,
    embed_one,
    phi,
    phi_inv,
    reference_stats_bruteforce,
    squared_distance,
)
from poif.encoder import EncoderConfig, init_encoder
from poif.exceptions import ConfigError, DataError, DegenerateReferenceError
from poif.records import Modality, SegmentTable
from poif.scoring import (
    FUSED,
    DecisionPolicy,
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
        return build_reference(SegmentTable.from_records(segments), params, tau, **kwargs)


@pytest.fixture
def params():
    return init_encoder(6, 5, EncoderConfig(1, 8, 4), 7)


def test_reference_stats_match_bruteforce(params):
    segments = one_person_segments()
    ref = quiet_reference(segments, params, tau=0.7)
    oracle = reference_stats_bruteforce(segments, params, 0.7)
    for m in Modality:
        mu, sigma = oracle[m.value]
        assert ref.mu[m] == pytest.approx(mu, abs=1e-12)
        assert ref.sigma[m] == pytest.approx(sigma, abs=1e-12)


# Slice budgets: 1 byte forces one-row slices; 6720 bytes are 28 rows of
# 8*30 bytes, splitting the 30 reference segments into slices of 28 and 2;
# 1 MB takes them in one.
@pytest.mark.parametrize("budget", [1, 28 * 8 * 30, 1 << 20])
@pytest.mark.parametrize("exclude_same_video", [True, False])
def test_streamed_calibration_matches_dense_oracle(params, monkeypatch, budget,
                                                   exclude_same_video):
    monkeypatch.setattr(scoring_module, "_SLICE_BYTES", budget)
    segments = one_person_segments(seed=2, videos=6, segments=5)
    ref = quiet_reference(segments, params, tau=0.6,
                          exclude_same_video=exclude_same_video)
    oracle = dense_self_scores(ref.audio, ref.video, ref.video_ids, 0.6,
                               exclude_same_video)
    bound = index_bound(ref.audio, ref.video, ref.audio, ref.video, 0.6)
    for m in Modality:
        scores, mu, sigma = oracle[m.value]
        assert_within(ref.self_scores[m], scores, bound[m])
        # a mean, and a population spread, move by at most the largest error
        assert_within(ref.mu[m], mu, bound[m].max())
        assert_within(ref.sigma[m], sigma, bound[m].max())


def test_reference_calibration_never_holds_an_n_by_n_matrix():
    n = 1000
    segments = one_person_segments(seed=4, videos=50, segments=20)
    assert len(segments) == n
    params = init_encoder(6, 5, EncoderConfig(1, 8, 32), 3)
    table = SegmentTable.from_records(segments)
    tracemalloc.start()
    try:
        build_reference(table, params, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n * n * 8, f"peak {peak / 1e6:.1f} MB"


def test_normalized_self_scores_are_standardized(params):
    segments = one_person_segments(seed=3)
    ref = quiet_reference(segments, params, tau=0.5)
    for m in Modality:
        z = (ref.self_scores[m] - ref.mu[m]) / ref.sigma[m]
        assert abs(z.mean()) < 1e-12
        assert abs(z.std() - 1.0) < 1e-12


def test_single_video_reference_needs_explicit_opt_out(params):
    segments = one_person_segments(videos=1, segments=8)
    with pytest.raises(DataError):
        quiet_reference(segments, params, tau=0.5)
    ref = quiet_reference(segments, params, tau=0.5, exclude_same_video=False)
    assert ref.n_videos == 1
    assert len(ref) == 8


def test_small_reference_warns():
    segments = one_person_segments(videos=2, segments=3)
    with pytest.warns(SmallReferenceWarning):
        build_reference(SegmentTable.from_records(segments),
                        init_encoder(6, 5, EncoderConfig(1, 8, 4), 0), 0.5)


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
    with pytest.raises(DataError):
        quiet_reference([], params, tau=0.5)


def best_similarities(probe, ref_segments, params, tau):
    """Best similarity of one probe to any reference segment, by scalar loops."""
    audio, video = embed_one(params, probe)
    best = {m: -np.inf for m in Modality}
    for seg in ref_segments:
        ref_audio, ref_video = embed_one(params, seg)
        s_a = -(squared_distance(audio, ref_audio) / tau)
        s_v = -(squared_distance(video, ref_video) / tau)
        for m, s in ((Modality.AUDIO, s_a), (Modality.VIDEO, s_v), (Modality.AV, s_a + s_v)):
            best[m] = max(best[m], s)
    return best


def test_poi_index_is_max_over_reference(params):
    segments = one_person_segments(seed=5)
    ref = quiet_reference(segments, params, tau=0.9)
    world = generate_world(WorldConfig(
        n_identities=1, n_videos_per_identity=1, n_segments_per_video=1,
        audio_dim=6, video_dim=5, seed=99))
    probe = world.segments.to_records()[0]
    verdict = score_clip([probe], ref, params, 0.9, DecisionPolicy(p_fa=0.1))
    for m, best in best_similarities(probe, segments, params, 0.9).items():
        want = (best - ref.mu[m]) / ref.sigma[m]
        assert verdict.normalized[m][0] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_normalize_and_fuse():
    segments = one_person_segments(seed=6)
    params = init_encoder(6, 5, EncoderConfig(1, 8, 4), 1)
    ref = quiet_reference(segments, params, tau=0.5)
    # a probe equal to a reference segment has raw index 0 (its own
    # distance) up to the kernel's bound, so normalization leaves -mu / sigma
    verdict = score_clip(segments[:1], ref, params, 0.5, DecisionPolicy(p_fa=0.1))
    bound = index_bound(ref.audio[:1], ref.video[:1], ref.audio, ref.video, 0.5)
    for m in Modality:
        assert_within(verdict.normalized[m][0], (0.0 - ref.mu[m]) / ref.sigma[m],
                      bound[m][0] / ref.sigma[m])
    # for one segment the fused value is exactly the worst channel
    assert verdict.fused[0] == min(v[0] for v in verdict.normalized.values())


def test_quantile_threshold_matches_erf_inverse():
    assert quantile_threshold(0.5) == pytest.approx(0.0, abs=1e-12)
    for p in (0.01, 0.05, 0.1, 0.25, 0.9):
        t = quantile_threshold(p)
        assert t == pytest.approx(phi_inv(p), abs=1e-9)
        assert phi(t) == pytest.approx(p, abs=1e-9)
    with pytest.raises(ConfigError):
        DecisionPolicy(p_fa=0.0)
    with pytest.raises(ConfigError):
        DecisionPolicy(p_fa=1.0)


def test_score_video_averages_per_segment_indices(params):
    ref_segments = one_person_segments(seed=8)
    ref = quiet_reference(ref_segments, params, tau=0.5)
    world = generate_world(WorldConfig(
        n_identities=1, n_videos_per_identity=1, n_segments_per_video=1,
        audio_dim=6, video_dim=5, seed=8))
    test_segments = sample_identity_videos(world, "id0000", 1, 4,
                                           np.random.default_rng(3)).to_records()
    verdict = score_clip(test_segments, ref, params, 0.5, DecisionPolicy(p_fa=0.1))
    assert verdict.n_segments == 4
    assert verdict.statistic_used == FUSED

    per_segment = [
        score_clip([seg], ref, params, 0.5, DecisionPolicy(p_fa=0.1))
        for seg in test_segments
    ]
    for m in Modality:
        mean = sum(v.normalized[m][0] for v in per_segment) / len(per_segment)
        assert verdict.normalized[m][0] == pytest.approx(mean, rel=1e-10)
    fused = sum(min(x[0] for x in v.normalized.values()) for v in per_segment) \
        / len(per_segment)
    assert verdict.fused[0] == pytest.approx(fused, rel=1e-10)


def test_score_video_decision_follows_threshold(params):
    ref_segments = one_person_segments(seed=9)
    ref = quiet_reference(ref_segments, params, tau=0.5)
    world = generate_world(WorldConfig(
        n_identities=1, n_videos_per_identity=1, n_segments_per_video=1,
        audio_dim=6, video_dim=5, seed=9))
    own = sample_identity_videos(world, "id0000", 1, 6, np.random.default_rng(1)).to_records()
    verdict = score_clip(own, ref, params, 0.5, DecisionPolicy(p_fa=0.1))
    lenient = verdict.statistic_value[0] >= DecisionPolicy(p_fa=0.1).threshold
    assert (verdict.decisions == ["real"]) == lenient
    # an absurdly strict policy must flag even genuine material
    strict = score_clip(own, ref, params, 0.5, DecisionPolicy(p_fa=0.999999))
    assert strict.decisions == ["fake"]
    with pytest.raises(ConfigError):
        score_clip(own, ref, params, 0.5, DecisionPolicy(0.1), statistic="fusion")
    with pytest.raises(DataError):
        score_video({m: np.empty((0, 3)) for m in Modality}, ref, DecisionPolicy(0.1))
