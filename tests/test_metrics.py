import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import calibration_check, knn_person_id, midrank_auc, pairwise_auc
from poif.exceptions import UndefinedMetricError
from poif.experiments import EVEN_ODDS
from poif.metrics import accuracy, auc, pd_at_fa
from poif.records import CHANNELS
from poif.scoring import quantile_threshold


def labeled(real_scores, fake_scores):
    """(scores, is_real): the reals, then the fakes."""
    scores = np.concatenate([np.asarray(real_scores, dtype=np.float64),
                             np.asarray(fake_scores, dtype=np.float64)])
    return scores, np.arange(len(scores)) < len(real_scores)


def test_auc_frozen_cases():
    assert auc(*labeled([2.0, 3.0], [0.0, 1.0])) == 1.0
    assert auc(*labeled([0.0, 1.0], [2.0, 3.0])) == 0.0
    assert auc(*labeled([1.0, 1.0], [1.0, 1.0])) == 0.5
    # one tie across classes: 3 wins + 0.5 out of 4 pairs
    assert auc(*labeled([1.0, 2.0], [0.0, 1.0])) == pytest.approx(0.875)
    # the mask, not the position, says which entries are real
    assert auc([0.0, 2.0, 1.0, 3.0], [False, True, False, True]) == 1.0


@given(st.integers(0, 10**6), st.integers(1, 25), st.integers(1, 25), st.integers(1, 6))
def test_auc_matches_pairwise_oracle(seed, n_real, n_fake, levels):
    # coarse quantization forces plenty of ties through the midrank path
    rng = np.random.default_rng(seed)
    real = np.round(rng.standard_normal(n_real) * levels) / levels
    fake = np.round(rng.standard_normal(n_fake) * levels) / levels
    got = auc(*labeled(real, fake))
    assert got == pytest.approx(pairwise_auc(real, fake), abs=1e-12)


def test_auc_gives_the_bits_of_the_tie_walking_loop():
    """Midranks from unique counts equal the sorted-run walk exactly: both
    are sums of halves.  Ties, signed zeros and every class size mix in."""
    rng = np.random.default_rng(31)
    for _ in range(2000):
        n = int(rng.integers(2, 60))
        levels = int(rng.choice([1, 3, 16, 10**6]))
        scores = np.round(rng.standard_normal(n) * levels) / levels
        scores[rng.random(n) < 0.2] = rng.choice([0.0, -0.0])
        is_real = rng.random(n) < rng.uniform(0.1, 0.9)
        is_real[0], is_real[-1] = True, False
        assert auc(scores, is_real).hex() == midrank_auc(scores, is_real).hex()
    n = 420
    scores = np.round(rng.standard_normal(n) * 4) / 4
    is_real = np.arange(n) % 3 == 0
    assert auc(scores, is_real).hex() == midrank_auc(scores, is_real).hex()


def test_auc_undefined_for_single_class():
    with pytest.raises(UndefinedMetricError):
        auc(*labeled([1.0, 2.0], []))
    with pytest.raises(UndefinedMetricError):
        auc(*labeled([], [1.0]))


def test_pd_at_fa_threshold_is_real_quantile():
    reals = list(range(100))  # 0 .. 99
    fakes = [-1.0] * 30 + [50.0] * 30
    samples = labeled(reals, fakes)
    # fa=0.1 -> threshold is the 10th smallest real (value 9); only the
    # low block of fakes sits strictly below it
    assert pd_at_fa(*samples, fa=0.1) == pytest.approx(0.5)
    assert pd_at_fa(*samples, fa=0.99) == pytest.approx(1.0)
    # realized false-alarm rate never exceeds fa
    for fa in (0.01, 0.1, 0.5, 0.9):
        k = int(np.ceil(fa * len(reals) - 1e-9))
        threshold = sorted(reals)[max(1, k) - 1]
        assert np.mean(np.array(reals) < threshold) <= fa


def test_pd_at_fa_small_real_set_keeps_one_anchor():
    samples = labeled([5.0, 6.0, 7.0], [4.0, 5.5])
    # ceil(0.1 * 3) -> k=1, threshold 5.0, only the 4.0 fake is below
    assert pd_at_fa(*samples, fa=0.1) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        pd_at_fa(*samples, fa=0.0)
    with pytest.raises(UndefinedMetricError):
        pd_at_fa(*labeled([1.0], []), fa=0.1)


def test_accuracy_against_policy_threshold():
    even = quantile_threshold(0.5)
    assert even == EVEN_ODDS == 0.0  # the sweeps' and table_metrics' threshold, exactly
    samples = labeled([0.0, 1.0, -1.0], [-2.0, 0.5])
    # reals at 0.0 and 1.0 pass, -1.0 fails; fake at -2.0 caught, 0.5 missed
    assert accuracy(*samples, even) == pytest.approx(3.0 / 5.0)
    with pytest.raises(ValueError):
        accuracy([], [], even)


def test_knn_identifies_by_distance_and_breaks_ties_low():
    gallery = (["a", "b"], np.array([[0.0, 0.0], [4.0, 4.0]]))
    probes = (["a", "b"], np.array([[0.1, 0.1], [3.9, 3.9]]))

    def knn(g, p, m):
        # the same matrix stands in for both channels
        return knn_person_id(g[0], g[1], g[1], p[0], p[1], p[1], m)

    for m in CHANNELS:
        assert knn(gallery, probes, m) == 1.0
    # equidistant probe resolves to the first gallery row
    middle = (["a"], np.array([[2.0, 2.0]]))
    assert knn(gallery, middle, "av") == 1.0
    flipped = (gallery[0][::-1], gallery[1][::-1])
    assert knn(flipped, middle, "av") == 0.0


def test_knn_joint_uses_both_channels():
    # audio separates the classes, video is pure noise: the joint ranking
    # must still get it right because distances add
    rng = np.random.default_rng(1)
    g_labels, g_audio, g_video = [], [], []
    p_labels, p_audio, p_video = [], [], []
    for label, offset in (("a", 0.0), ("b", 6.0)):
        for _ in range(10):
            g_labels.append(label)
            g_audio.append(rng.standard_normal(3) + offset)
            g_video.append(rng.standard_normal(3))
        p_labels.append(label)
        p_audio.append(rng.standard_normal(3) + offset)
        p_video.append(rng.standard_normal(3))
    gallery = (g_labels, np.array(g_audio), np.array(g_video))
    probes = (p_labels, np.array(p_audio), np.array(p_video))
    assert knn_person_id(*gallery, *probes, "audio") == 1.0
    assert knn_person_id(*gallery, *probes, "av") == 1.0
    with pytest.raises(ValueError):
        knn_person_id([], np.empty((0, 3)), np.empty((0, 3)), *probes, "audio")


def test_calibration_check_tracks_p_fa():
    rate = calibration_check(20000, 0.1, rng=0)
    assert abs(rate - 0.1) < 0.01
    with pytest.raises(ValueError):
        calibration_check(10, 0.1)
