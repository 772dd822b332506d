import numpy as np
import pytest

from conftest import batch_inputs, make_batch
from oracles import embed_one, fd_param_grads, max_rel_err, naive_mlp_forward
from poif.encoder import (
    EncoderConfig,
    EncoderParams,
    Mlp,
    encode_batch,
    glorot_uniform,
    init_encoder,
    init_mlp,
    loss_and_param_grads,
    mlp_backward,
    mlp_forward,
)
from poif.exceptions import ConfigError, DataError
from poif.records import SegmentTable


def test_forward_matches_naive_loops():
    rng = np.random.default_rng(0)
    for layers, width, out_dim in ((0, 4, 3), (1, 5, 2), (3, 4, 6)):
        mlp = init_mlp(4, EncoderConfig(layers, width, out_dim), rng)
        x = rng.standard_normal((6, 4))
        got, cache = mlp_forward(mlp, x)
        np.testing.assert_allclose(got, naive_mlp_forward(mlp, x), rtol=1e-12, atol=1e-14)
        assert len(cache) == layers + 2
        assert cache[0] is not None and cache[-1] is got


def identity_encoder() -> EncoderParams:
    return EncoderParams(audio=Mlp([], []), video=Mlp([], []))


def test_identity_encoder_passes_features_through():
    rng = np.random.default_rng(1)
    batch = make_batch(rng, counts=(2,))
    table = SegmentTable.from_records(batch)
    x_audio, x_video = encode_batch(identity_encoder(), table.audio, table.video)
    np.testing.assert_array_equal(x_audio, np.stack([s.audio for s in batch]))
    np.testing.assert_array_equal(x_video, np.stack([s.video for s in batch]))


def test_glorot_bounds_and_zero_biases():
    rng = np.random.default_rng(2)
    w = glorot_uniform(rng, 64, 16)
    limit = np.sqrt(6.0 / (16 + 64))
    assert np.all(np.abs(w) <= limit)
    assert w.std() > 0.1 * limit  # actually random, not collapsed
    mlp = init_mlp(16, EncoderConfig(2, 8, 4), rng)
    assert all(np.all(b == 0.0) for b in mlp.biases)


def test_init_encoder_is_seed_deterministic_and_audio_first():
    cfg = EncoderConfig(1, 8, 3)
    a = init_encoder(5, 4, cfg, np.random.default_rng(123))
    b = init_encoder(5, 4, cfg, np.random.default_rng(123))
    for wa, wb in zip(a.audio.weights + a.video.weights, b.audio.weights + b.video.weights):
        np.testing.assert_array_equal(wa, wb)
    # the audio stack consumes the stream first
    solo = init_mlp(5, cfg, np.random.default_rng(123))
    np.testing.assert_array_equal(solo.weights[0], a.audio.weights[0])


def test_forward_rejects_wrong_input_dim():
    mlp = init_mlp(4, EncoderConfig(1, 8, 3), np.random.default_rng(0))
    with pytest.raises(ValueError):
        mlp_forward(mlp, np.zeros((2, 5)))
    with pytest.raises(ValueError):
        mlp_forward(mlp, np.zeros(4))


def test_backward_matches_finite_differences_on_plain_objective():
    """Check mlp_backward in isolation with a quadratic readout."""
    rng = np.random.default_rng(3)
    mlp = init_mlp(3, EncoderConfig(2, 6, 2), rng)
    x = rng.standard_normal((5, 3))
    target = rng.standard_normal((5, 2))

    def objective():
        out, _ = mlp_forward(mlp, x)
        return 0.5 * float(((out - target) ** 2).sum())

    out, cache = mlp_forward(mlp, x)
    grads = mlp_backward(mlp, cache, out - target)

    step = 1e-6
    for w, dw in zip(mlp.weights + mlp.biases, grads.weights + grads.biases):
        flat, dflat = w.reshape(-1), dw.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up = objective()
            flat[i] = keep - step
            down = objective()
            flat[i] = keep
            fd = (up - down) / (2.0 * step)
            assert abs(dflat[i] - fd) <= 1e-6 * max(1.0, abs(fd))


def test_contrastive_param_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    batch = make_batch(rng, counts=(2, 2, 2), audio_dim=5, video_dim=4)
    params = init_encoder(5, 4, EncoderConfig(1, 8, 3), rng)
    f_audio, f_video, plan = batch_inputs(batch)
    grads, losses = loss_and_param_grads(params, f_audio, f_video, plan, tau=0.8, joint_weight=1.0)
    assert losses.shape == (4,) and losses[-1] > 0.0
    fd = fd_param_grads(params, f_audio, f_video, plan, 0.8, 1.0, step=1e-5)
    assert max_rel_err(grads, fd) < 1e-4


def test_encode_batch_agrees_with_per_segment_encode():
    # gemm vs gemv accumulation order differs, so allow a couple of ulps
    rng = np.random.default_rng(6)
    batch = make_batch(rng, counts=(3, 2))
    params = init_encoder(6, 5, EncoderConfig(2, 8, 4), rng)
    table = SegmentTable.from_records(batch)
    x_audio, x_video = encode_batch(params, table.audio, table.video)
    for i, seg in enumerate(batch):
        audio, video = embed_one(params, seg)
        np.testing.assert_allclose(x_audio[i], audio, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(x_video[i], video, rtol=1e-14, atol=1e-15)


def test_encode_batch_rejects_mixed_dims():
    rng = np.random.default_rng(7)
    batch = make_batch(rng, counts=(2,), audio_dim=6) + make_batch(rng, counts=(2,), audio_dim=7)
    with pytest.raises(DataError, match="inconsistent feature dims"):
        SegmentTable.from_records(batch)
    table = SegmentTable.from_records(batch[:2])
    with pytest.raises(DataError, match="2 audio rows but 1 video rows"):
        encode_batch(identity_encoder(), table.audio, table.video[:1])


def test_encoder_config_validation():
    with pytest.raises(ConfigError):
        EncoderConfig(hidden_layers=-1)
    with pytest.raises(ConfigError):
        EncoderConfig(hidden_width=0)
    with pytest.raises(ConfigError):
        EncoderConfig(embedding_dim=0)
