"""Adam with decoupled weight decay, in place on flat buffers.

The decay term is applied directly to the weights (w -= lr * wd * w) on
top of the bias-corrected Adam step, never folded into the gradient.
Parameters and moments are lists of arrays in a fixed traversal order
(audio layers then video, weight before bias), which makes the state easy
to serialize.  A run packs them once (``pack``): each quantity becomes one
flat buffer in that order, and its arrays become views of the buffer.
``adamw_step`` then updates the three buffers in place with a handful of
whole-buffer operations.  Each element still goes through the same
operations in the same order as in an array-by-array update, so the bits
do not depend on the layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import EncoderParams, Mlp


@dataclass(eq=False)
class OptimState:
    """First/second moment estimates plus the shared step counter.

    ``m`` and ``v`` hold one array per parameter array, in
    ``flatten_params`` order.
    """

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0


@dataclass(eq=False)
class FlatState:
    """A run's parameters and optimizer state as views of three flat buffers.

    ``params``, ``optim.m`` and ``optim.v`` view the 1-D float64 buffers
    ``w``, ``m`` and ``v`` (``flatten_params`` order), so an update of the
    buffers moves them all.
    """

    params: EncoderParams
    optim: OptimState
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


def init_optim_state(params: EncoderParams) -> OptimState:
    arrays = flatten_params(params)
    return OptimState(
        m=[np.zeros_like(a) for a in arrays],
        v=[np.zeros_like(a) for a in arrays],
        step=0,
    )


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


def pack(params: EncoderParams, state: OptimState) -> FlatState:
    """Copy parameters and moments into flat buffers; the inputs stay untouched.

    The moments must match the parameters array for array.
    """
    arrays = flatten_params(params)
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
    return FlatState(
        params=unflatten_params(params, w_views),
        optim=OptimState(m=m_views, v=v_views, step=state.step),
        w=w, m=m, v=v,
    )


def adamw_step(flat: FlatState, grads: EncoderParams, cfg) -> None:
    """One update of flat's buffers, in place.

    cfg supplies learning_rate, weight_decay, beta1, beta2 and epsilon.
    """
    g_arrays = flatten_params(grads)
    p_arrays = flatten_params(flat.params)
    if len(p_arrays) != len(g_arrays):
        raise ValueError(f"{len(g_arrays)} gradient arrays for {len(p_arrays)} parameters")
    for w, g in zip(p_arrays, g_arrays):
        if g.shape != w.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter shape {w.shape}")

    lr = cfg.learning_rate
    wd = cfg.weight_decay
    b1, b2, eps = cfg.beta1, cfg.beta2, cfg.epsilon
    t = flat.optim.step + 1
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
    flat.optim.step = t
