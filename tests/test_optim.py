from dataclasses import replace

import numpy as np
import pytest

from conftest import step0
from oracles import clone_params, per_array_adamw_step, scalar_adamw
from poif.encoder import EncoderConfig, init_encoder
from poif.fileio import read_checkpoint, write_checkpoint
from poif.optim import adamw_step, flatten_params, pack, unflatten_params
from poif.training import TrainConfig


def small_params(seed=0):
    return init_encoder(3, 2, EncoderConfig(1, 4, 2), np.random.default_rng(seed))


def cfg(**kw):
    defaults = dict(learning_rate=1e-3, weight_decay=0.01, epochs=1,
                    batches_per_epoch=1, tau=0.5)
    defaults.update(kw)
    return TrainConfig(**defaults)


def one_step(state, grads, c):
    """Pack, step once, and return the new state."""
    flat = pack(state)
    adamw_step(flat, grads, c)
    return flat.state


def test_flatten_order_and_round_trip():
    params = small_params()
    arrays = flatten_params(params)
    # audio layers first, weight before bias, then the video stack
    assert arrays[0] is params.audio.weights[0]
    assert arrays[1] is params.audio.biases[0]
    assert arrays[4] is params.video.weights[0]
    assert len(arrays) == 8
    rebuilt = unflatten_params(params, arrays)
    assert all(a is b for a, b in zip(flatten_params(rebuilt), arrays))


def test_zero_gradient_step_is_pure_weight_decay():
    params = small_params()
    grads = unflatten_params(params, [np.zeros_like(a) for a in flatten_params(params)])
    c = cfg()
    new_state = one_step(step0(params), grads, c)
    for w0, w1 in zip(flatten_params(params), flatten_params(new_state.params)):
        np.testing.assert_allclose(w1, w0 * (1.0 - c.learning_rate * c.weight_decay),
                                   rtol=1e-14, atol=0)
    assert new_state.steps_done == 1
    assert all(np.all(m == 0.0) for m in new_state.m)
    assert all(np.all(v == 0.0) for v in new_state.v)


def test_first_step_has_full_bias_correction():
    params = small_params(1)
    grads = clone_params(params)  # any nonzero arrays will do
    c = cfg()
    new_params = one_step(step0(params), grads, c).params
    for w, g, w1 in zip(flatten_params(params), flatten_params(grads),
                        flatten_params(new_params)):
        expected = w - c.learning_rate * (g / (np.abs(g) + c.epsilon)) \
            - c.learning_rate * c.weight_decay * w
        np.testing.assert_allclose(w1, expected, rtol=1e-12, atol=1e-15)


def test_trajectory_matches_scalar_reference():
    """1000 steps against an elementwise pure-Python reference."""
    params = small_params(2)
    flat = pack(step0(params))
    c = cfg(learning_rate=3e-3, weight_decay=0.02)
    rng = np.random.default_rng(42)

    shadow = {}
    for idx, w in enumerate(flatten_params(params)):
        for pos, val in np.ndenumerate(w):
            shadow[(idx, pos)] = (float(val), 0.0, 0.0)

    for t in range(1, 1001):
        g_arrays = [rng.standard_normal(a.shape) for a in flatten_params(params)]
        adamw_step(flat, unflatten_params(params, g_arrays), c)
        for idx, g in enumerate(g_arrays):
            for pos, gval in np.ndenumerate(g):
                w, m, v = shadow[(idx, pos)]
                shadow[(idx, pos)] = scalar_adamw(
                    w, float(gval), m, v, t,
                    c.learning_rate, c.weight_decay, c.beta1, c.beta2, c.epsilon,
                )

    assert flat.state.steps_done == 1000
    worst = 0.0
    for idx, w in enumerate(flatten_params(flat.state.params)):
        for pos, val in np.ndenumerate(w):
            worst = max(worst, abs(float(val) - shadow[(idx, pos)][0]))
    assert worst <= 1e-12


def test_pack_leaves_its_inputs_untouched():
    params = small_params(3)
    state = step0(params)
    before = [a.copy() for a in flatten_params(params)]
    flat = pack(state)
    adamw_step(flat, clone_params(params), cfg())
    assert flat.state.steps_done == 1 and state.steps_done == 0
    for a, b in zip(flatten_params(params), before):
        np.testing.assert_array_equal(a, b)
    assert all(np.all(m == 0.0) for m in state.m)
    assert not any(np.shares_memory(a, flat.w) for a in flatten_params(params))


def test_shape_mismatch_is_rejected():
    params = small_params(4)
    state = step0(params)
    bad = clone_params(params)
    bad.audio.weights[0] = np.zeros((1, 1))
    with pytest.raises(ValueError, match="gradient shape"):
        adamw_step(pack(state), bad, cfg())
    # moments that do not match the parameters are refused when packed
    state.v[2] = np.zeros(7)
    with pytest.raises(ValueError, match="moment shapes"):
        pack(state)
    with pytest.raises(ValueError, match="tracks 7 arrays"):
        pack(replace(state, m=state.m[:7], v=state.v[:7]))


def random_grads(params, rng):
    return unflatten_params(params, [rng.standard_normal(a.shape) for a in flatten_params(params)])


def assert_same_bits(a_state, b_state):
    assert a_state.steps_done == b_state.steps_done
    for name, xs, ys in (("params", flatten_params(a_state.params), flatten_params(b_state.params)),
                         ("m", a_state.m, b_state.m), ("v", a_state.v, b_state.v)):
        assert len(xs) == len(ys)
        for i, (x, y) in enumerate(zip(xs, ys)):
            assert x.shape == y.shape and np.array_equal(x, y), (name, i)


def test_flat_buffers_match_per_array_oracle_bit_for_bit():
    """250 in-place steps on one set of flat buffers, and array by array: same bits."""
    params = init_encoder(5, 3, EncoderConfig(2, 8, 4), np.random.default_rng(6))
    c = cfg(learning_rate=3e-3, weight_decay=0.02)
    rng = np.random.default_rng(11)
    flat = pack(step0(params))
    views = flatten_params(flat.state.params) + flat.state.m + flat.state.v
    oracle = step0(params)
    for _ in range(250):
        grads = random_grads(params, rng)
        adamw_step(flat, grads, c)
        oracle = per_array_adamw_step(oracle, grads, c)
        assert_same_bits(flat.state, oracle)
    # the buffers were updated in place: the arrays are the views packed at the start
    now = flatten_params(flat.state.params) + flat.state.m + flat.state.v
    assert all(a is b for a, b in zip(now, views))
    assert all(np.shares_memory(a, buf) for arrays, buf in (
        (flatten_params(flat.state.params), flat.w), (flat.state.m, flat.m),
        (flat.state.v, flat.v)) for a in arrays)


def test_edits_through_the_views_reach_the_update():
    """The arrays are the buffers: an edit through a view is what the next step reads."""
    params = small_params(5)
    c = cfg()
    rng = np.random.default_rng(3)
    flat = pack(step0(params))
    adamw_step(flat, random_grads(params, rng), c)
    grads = random_grads(params, rng)

    flat.state.m[1] += 0.5                      # edits through views
    flat.state.params.video.weights[0][0, 0] += 0.25
    copy = replace(flat.state, params=clone_params(flat.state.params),
                   m=[a.copy() for a in flat.state.m], v=[a.copy() for a in flat.state.v])
    want = per_array_adamw_step(copy, grads, c)
    adamw_step(flat, grads, c)
    assert_same_bits(flat.state, want)


def test_checkpoint_mid_run_resumes_to_identical_bytes(tmp_path):
    """200 steps straight, or 100 then a checkpoint round trip then 100 more."""
    params0 = init_encoder(4, 3, EncoderConfig(1, 6, 3), np.random.default_rng(8))
    c = cfg(learning_rate=2e-3)
    grads = [random_grads(params0, np.random.default_rng(1000 + t)) for t in range(200)]

    def run(state, steps):
        flat = pack(state)
        for t in steps:
            adamw_step(flat, grads[t], c)
        return flat.state

    def save(path, state):
        write_checkpoint(str(path), state, {"tau": "0.5"})
        return path.read_bytes()

    full = save(tmp_path / "full.ckpt", run(step0(params0), range(200)))
    save(tmp_path / "half.ckpt", run(step0(params0), range(100)))
    resumed = run(read_checkpoint(str(tmp_path / "half.ckpt")).state, range(100, 200))
    assert save(tmp_path / "resumed.ckpt", resumed) == full
