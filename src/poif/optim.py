"""Adam with decoupled weight decay, in place on flat buffers.

The decay term is applied directly to the weights (w -= lr * wd * w) on
top of the bias-corrected Adam step, never folded into the gradient.
A run's state (``training.TrainState``) holds parameters and moments as
lists of arrays in a fixed traversal order (audio layers then video,
weight before bias), which makes it easy to serialize.  A run packs it
once (``pack``): each quantity becomes one flat buffer in that order, and
its arrays become views of the buffer.  ``adamw_step`` then updates the
three buffers in place with a handful of whole-buffer operations and
counts the step in the state's ``steps_done``.  Each element still goes through the same
operations in the same order as in an array-by-array update, so the bits
do not depend on the layout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .encoder import EncoderParams, Mlp

if TYPE_CHECKING:
    from .training import TrainState


@dataclass(eq=False)
class FlatState:
    """A run's state whose arrays view three flat buffers.

    ``state.params``, ``state.m`` and ``state.v`` view the 1-D float64
    buffers ``w``, ``m`` and ``v`` (``flatten_params`` order), so an update
    of the buffers moves them all.
    """

    state: TrainState
    w: np.ndarray
    m: np.ndarray
    v: np.ndarray


def flatten_params(params: EncoderParams) -> list[np.ndarray]:
    """Fixed traversal order: per modality, per layer, weight then bias."""
    arrays: list[np.ndarray] = []
    for mlp in (params.audio, params.video):
        for w, b in zip(mlp.weights, mlp.biases):
            arrays.append(w)
            arrays.append(b)
    return arrays


def unflatten_params(template: EncoderParams, arrays: list[np.ndarray]) -> EncoderParams:
    """Rebuild an EncoderParams with the template's layer structure."""
    it = iter(arrays)
    mlps = []
    for mlp in (template.audio, template.video):
        weights, biases = [], []
        for _ in range(mlp.n_layers):
            weights.append(next(it))
            biases.append(next(it))
        mlps.append(Mlp(weights, biases))
    return EncoderParams(audio=mlps[0], video=mlps[1])


def init_optim_state(params: EncoderParams) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Zero first and second moments, one array per parameter array."""
    arrays = flatten_params(params)
    return [np.zeros_like(a) for a in arrays], [np.zeros_like(a) for a in arrays]


def _concat(arrays: list[np.ndarray]) -> np.ndarray:
    """A fresh flat float64 copy of the arrays, in order."""
    if not arrays:  # an encoder without layers
        return np.empty(0)
    return np.concatenate([np.asarray(a, dtype=np.float64).reshape(-1) for a in arrays])


def _packed(arrays: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """A flat copy of the arrays, and views of it shaped like them."""
    flat, views, start = _concat(arrays), [], 0
    for a in arrays:
        views.append(flat[start:start + a.size].reshape(a.shape))
        start += a.size
    return flat, views


def pack(state: TrainState) -> FlatState:
    """Copy a run's parameters and moments into flat buffers; the input stays untouched.

    The moments must match the parameters array for array.
    """
    arrays = flatten_params(state.params)
    if len(state.m) != len(arrays) or len(state.v) != len(arrays):
        raise ValueError(
            f"optimizer state tracks {len(state.m)} arrays, params have {len(arrays)}")
    for w, m, v in zip(arrays, state.m, state.v):
        if m.shape != w.shape or v.shape != w.shape:
            raise ValueError(f"moment shapes {m.shape}, {v.shape} do not match parameter "
                             f"shape {w.shape}")
    w, w_views = _packed(arrays)
    m, m_views = _packed(state.m)
    v, v_views = _packed(state.v)
    views = replace(state, params=unflatten_params(state.params, w_views), m=m_views, v=v_views)
    return FlatState(state=views, w=w, m=m, v=v)


def adamw_step(flat: FlatState, grads: EncoderParams, cfg) -> None:
    """One update of flat's buffers in place, counted in its state's steps_done.

    Adam's t is the step being taken, steps_done + 1.  cfg supplies
    learning_rate, weight_decay, beta1, beta2 and epsilon.
    """
    g_arrays = flatten_params(grads)
    p_arrays = flatten_params(flat.state.params)
    if len(p_arrays) != len(g_arrays):
        raise ValueError(f"{len(g_arrays)} gradient arrays for {len(p_arrays)} parameters")
    for w, g in zip(p_arrays, g_arrays):
        if g.shape != w.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter shape {w.shape}")

    lr = cfg.learning_rate
    wd = cfg.weight_decay
    b1, b2, eps = cfg.beta1, cfg.beta2, cfg.epsilon
    t = flat.state.steps_done + 1
    w, m, v = flat.w, flat.m, flat.v
    g = _concat(g_arrays)

    # m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * (g * g);
    # w = w - lr * (m_hat / (sqrt(v_hat) + eps)) - lr * wd * w,
    # operation for operation.  g is this call's own copy, so it doubles
    # as a temporary; the decay term is taken from the weights before the
    # step is subtracted.
    tmp = g * g
    g *= 1.0 - b1
    m *= b1
    m += g
    tmp *= 1.0 - b2
    v *= b2
    v += tmp
    den = np.divide(v, 1.0 - b2 ** t, out=tmp)
    np.sqrt(den, out=den)
    den += eps
    step = np.divide(m, 1.0 - b1 ** t, out=g)
    step /= den
    step *= lr
    decay = np.multiply(w, lr * wd, out=den)
    w -= step
    w -= decay
    flat.state.steps_done = t
