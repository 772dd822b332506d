import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import embedding_matrices, identity_labels, make_batch
from oracles import loss_entry, naive_contrastive_losses, per_channel_loss_and_embedding_grads
from poif.exceptions import ConfigError, DataError
from poif.losses import LOSS_COLUMNS, loss_and_embedding_grads, loss_plan, positive_sets


def test_positive_sets_pair_structure():
    batch = make_batch(np.random.default_rng(0), counts=(2, 2))
    mask = positive_sets(identity_labels(batch))
    assert mask.dtype == bool
    assert np.array_equal(mask, [[False, True, False, False],
                                 [True, False, False, False],
                                 [False, False, False, True],
                                 [False, False, True, False]])
    # interleaved identities against the pairwise definition
    shuffled = [batch[i] for i in (2, 0, 3, 1)] + make_batch(np.random.default_rng(1), (3,))
    mask = positive_sets(identity_labels(shuffled))
    for c, a in enumerate(shuffled):
        for k, b in enumerate(shuffled):
            assert mask[c, k] == (c != k and a.identity_id == b.identity_id)


def test_positive_sets_rejects_singleton_identity():
    batch = make_batch(np.random.default_rng(0), counts=(2, 1))
    with pytest.raises(DataError, match="batch: 'p1'$"):
        positive_sets(identity_labels(batch))
    # a contrastive batch needs at least one pair
    with pytest.raises(ValueError):
        positive_sets(identity_labels(batch[:1]))


def test_equal_embeddings_give_log3_per_anchor():
    """Four identical embeddings, two identities: every channel is 4*log(3).

    All similarities coincide, so each anchor sees a denominator of three
    equal terms over a numerator of one.
    """
    batch = make_batch(np.random.default_rng(0), counts=(2, 2))
    x_audio, x_video = np.ones((4, 4)), np.full((4, 3), 0.5)
    plan = loss_plan(positive_sets(identity_labels(batch)))
    losses, d_audio, d_video = loss_and_embedding_grads(
        x_audio, x_video, plan, 0.8, joint_weight=0.5)
    assert LOSS_COLUMNS == ("l_v", "l_a", "l_av", "l_tot")
    assert losses.shape == (4,) and losses.dtype == np.float64
    expected = 4.0 * math.log(3.0)
    l_v, l_a, l_av, l_tot = losses
    assert l_v == pytest.approx(expected, rel=1e-12)
    assert l_a == pytest.approx(expected, rel=1e-12)
    assert l_av == pytest.approx(expected, rel=1e-12)
    assert l_tot == pytest.approx(2.5 * expected, rel=1e-12)
    # every pair difference is zero, so nothing moves the embeddings
    assert np.all(d_audio == 0.0) and np.all(d_video == 0.0)


def test_loss_exactly_zero_when_batch_is_one_identity():
    rng = np.random.default_rng(5)
    batch = make_batch(rng, counts=(6,))
    x_audio, x_video = embedding_matrices(rng, 6)
    plan = loss_plan(positive_sets(identity_labels(batch)))
    losses, d_audio, d_video = loss_and_embedding_grads(x_audio, x_video, plan, 0.5, 1.0)
    # Numerator and denominator coincide term by term, so this is not an
    # approximation: the losses and the gradients are exact zeros.
    assert np.all(losses == 0.0)
    assert np.all(d_audio == 0.0)
    assert np.all(d_video == 0.0)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**6), st.integers(2, 4), st.integers(2, 3),
       st.floats(0.2, 5.0), st.floats(0.0, 3.0))
def test_loss_non_negative_and_matches_naive_summation(seed, n_ids, per_id, tau, lam):
    rng = np.random.default_rng(seed)
    batch = make_batch(rng, counts=(per_id,) * n_ids)
    n = n_ids * per_id
    x_audio, x_video = embedding_matrices(rng, n)
    plan = loss_plan(positive_sets(identity_labels(batch)))
    losses, _, _ = loss_and_embedding_grads(x_audio, x_video, plan, tau, lam)

    assert np.all(losses[:3] >= 0.0)
    ids = [s.identity_id for s in batch]
    l_v, l_a, l_av = naive_contrastive_losses(x_audio, x_video, ids, tau)
    assert loss_entry(losses, "l_v") == pytest.approx(l_v, rel=1e-9, abs=1e-9)
    assert loss_entry(losses, "l_a") == pytest.approx(l_a, rel=1e-9, abs=1e-9)
    assert loss_entry(losses, "l_av") == pytest.approx(l_av, rel=1e-9, abs=1e-9)
    assert loss_entry(losses, "l_tot") == pytest.approx(l_v + l_a + lam * l_av, rel=1e-9,
                                                        abs=1e-9)


def test_loss_stays_finite_where_naive_summation_underflows():
    # Magnitudes where exp(-d^2/tau) is flushed to zero: the naive form
    # would take log(0), the shifted form must survive.
    rng = np.random.default_rng(11)
    batch = make_batch(rng, counts=(2, 2))
    x_audio, x_video = embedding_matrices(rng, 4, scale=40.0)
    plan = loss_plan(positive_sets(identity_labels(batch)))
    losses, d_audio, _ = loss_and_embedding_grads(x_audio, x_video, plan, 0.01, 1.0)
    l_tot = loss_entry(losses, "l_tot")
    assert math.isfinite(l_tot)
    assert l_tot >= 0.0
    assert np.all(np.isfinite(d_audio))


def test_embedding_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    batch = make_batch(rng, counts=(2, 3))
    x_audio, x_video = embedding_matrices(rng, 5)
    plan = loss_plan(positive_sets(identity_labels(batch)))
    tau, lam, step = 0.9, 0.7, 1e-6

    _, d_audio, d_video = loss_and_embedding_grads(x_audio, x_video, plan, tau, lam)

    for x, analytic, which in ((x_audio, d_audio, 0), (x_video, d_video, 1)):
        for r in range(x.shape[0]):
            for c in range(x.shape[1]):
                keep = x[r, c]
                x[r, c] = keep + step
                up = loss_entry(loss_and_embedding_grads(x_audio, x_video, plan, tau, lam)[0],
                                "l_tot")
                x[r, c] = keep - step
                down = loss_entry(loss_and_embedding_grads(x_audio, x_video, plan, tau, lam)[0],
                                  "l_tot")
                x[r, c] = keep
                fd = (up - down) / (2.0 * step)
                denom = max(abs(fd), abs(analytic[r, c]), 1e-3)
                assert abs(analytic[r, c] - fd) / denom < 1e-5, (which, r, c)


def test_joint_weight_enters_gradient_linearly():
    rng = np.random.default_rng(8)
    batch = make_batch(rng, counts=(2, 2))
    x_audio, x_video = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
    plan = loss_plan(positive_sets(identity_labels(batch)))
    g0, g1, g2 = (loss_and_embedding_grads(x_audio, x_video, plan, 0.5, lam)[1:]
                  for lam in (0.0, 1.0, 2.0))
    for k in (0, 1):
        np.testing.assert_allclose(g2[k] - g0[k], 2.0 * (g1[k] - g0[k]), rtol=1e-10)
    assert np.any(g1[0] != g0[0])


def test_loss_rejects_negative_joint_weight():
    rng = np.random.default_rng(9)
    batch = make_batch(rng, counts=(2, 2))
    x_audio, x_video = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
    plan = loss_plan(positive_sets(identity_labels(batch)))
    with pytest.raises(ConfigError):
        loss_and_embedding_grads(x_audio, x_video, plan, 1.0, -0.5)


def interleaved_labels():
    return np.array([0, 1, 2, 0, 1, 2, 3, 0, 3, 1, 2, 3])


def ragged_labels():
    return np.repeat(np.arange(4), (2, 5, 3, 6))


@pytest.mark.parametrize("labels", [interleaved_labels, ragged_labels])
@pytest.mark.parametrize("tau, scale", [(0.5, 1.0), (1e-4, 3.0)])
@pytest.mark.parametrize("joint_weight", [0.0, 1.0, 2.5])
def test_stacked_pass_matches_per_channel_oracle_bit_for_bit(labels, tau, scale, joint_weight):
    """The (3, n, n) pass gives the per-channel path's bits, sharp tau included."""
    ids = labels()
    rng = np.random.default_rng(len(ids) + int(10 * joint_weight))
    x_audio, x_video = embedding_matrices(rng, len(ids), scale=scale)
    pos = positive_sets(ids)
    losses, d_audio, d_video = loss_and_embedding_grads(x_audio, x_video, loss_plan(pos), tau,
                                                        joint_weight)
    want, want_audio, want_video = per_channel_loss_and_embedding_grads(
        x_audio, x_video, pos, tau, joint_weight)
    if tau < 1e-3:
        # similarities reach about -1e6: the max-shifted form is what runs
        s_a = -(np.sum((x_audio[:, None] - x_audio[None]) ** 2, axis=-1) / tau)
        assert s_a.min() < -3e5
    assert np.array_equal(losses, want)
    assert np.array_equal(d_audio, want_audio)
    assert np.array_equal(d_video, want_video)


def test_loss_rejects_an_anchor_without_positives():
    rng = np.random.default_rng(10)
    x_audio, x_video = embedding_matrices(rng, 4)
    pos = positive_sets([0, 0, 1, 1])
    pos[2, 3] = False
    with pytest.raises(ValueError, match="every anchor needs at least one positive"):
        loss_plan(pos)
    # a plan made for another batch size is refused
    plan = loss_plan(positive_sets([0, 0, 1, 1, 2, 2]))
    with pytest.raises(ValueError, match="batch of 4 rows for a loss plan of 6"):
        loss_and_embedding_grads(x_audio, x_video, plan, 0.5, 1.0)


# c01's batch shapes (identities x segments, uneven ones included) and
# c02's (2-4 identities of 2-3 segments), plus c02's one-identity mask.
PLAN_SHAPES = [(4, 4), (2, 2, 2, 2), (2, 2, 4), (2, 3, 3),
               (2, 2), (3, 3), (2, 2, 2), (3, 3, 3, 3), (6,)]


@pytest.mark.parametrize("counts", PLAN_SHAPES)
def test_one_plan_per_shape_matches_the_mask_per_call_oracle_bit_for_bit(counts):
    """A plan built once serves every batch of its shape with the bits of a
    loss that reads the positive mask on every call."""
    rng = np.random.default_rng(sum(counts) * 100 + len(counts))
    pos = positive_sets(np.repeat(np.arange(len(counts)), counts))
    plan = loss_plan(pos)
    for _ in range(20):
        tau = float(rng.uniform(0.2, 3.0))
        lam = float(rng.uniform(0.0, 2.0))
        scale = float(np.exp(rng.uniform(np.log(0.5), np.log(4.0))))
        x_audio, x_video = embedding_matrices(rng, len(pos), scale=scale)
        got = loss_and_embedding_grads(x_audio, x_video, plan, tau, lam)
        want = per_channel_loss_and_embedding_grads(x_audio, x_video, pos, tau, lam)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
