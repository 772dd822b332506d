"""Adam with decoupled weight decay.

The decay term is applied directly to the weights (w -= lr * wd * w) on
top of the bias-corrected Adam step, never folded into the gradient.
Parameters and moments are lists of arrays in a fixed traversal order
(audio layers then video, weight before bias), which makes the state easy
to serialize.  The update runs on one flat buffer per quantity, in that
order: a handful of whole-buffer operations instead of the same
operations on every array.  Each element still goes through the same
operations in the same order, so the bits do not depend on the layout.
The parameters and moments ``adamw_step`` returns are views of its flat
buffers, and the next step finds those buffers again instead of packing
the arrays anew.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .encoder import EncoderParams, Mlp


class Packed:
    """One flat float64 buffer and the arrays cut from it, in order."""

    __slots__ = ("buffer", "arrays")

    def __init__(self, buffer: np.ndarray, shapes: list[tuple[int, ...]]):
        self.buffer = buffer
        arrays, start = [], 0
        for shape in shapes:
            size = math.prod(shape)
            arrays.append(buffer[start:start + size].reshape(shape))
            start += size
        self.arrays = tuple(arrays)

    def holds(self, arrays: list[np.ndarray]) -> bool:
        """True when arrays are exactly this buffer's arrays, in order."""
        return len(arrays) == len(self.arrays) and all(
            a is b for a, b in zip(arrays, self.arrays))


@dataclass(eq=False)
class OptimState:
    """First/second moment estimates plus the shared step counter.

    ``m`` and ``v`` hold one array per parameter array, in
    ``flatten_params`` order.  ``packed`` records the flat buffers behind
    the parameters and moments that ``adamw_step`` returned with this
    state; a buffer is used only while it still holds the arrays passed in.
    """

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0
    packed: tuple[Packed, Packed, Packed] | None = field(default=None, repr=False)


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


def _flat(arrays: list[np.ndarray], packed: Packed | None) -> np.ndarray:
    """The arrays as one flat buffer: packed's own if it holds them, else a packed copy."""
    if packed is not None and packed.holds(arrays):
        return packed.buffer
    return _concat(arrays)


def adamw_step(
    params: EncoderParams,
    state: OptimState,
    grads: EncoderParams,
    cfg,
) -> tuple[EncoderParams, OptimState]:
    """One update; cfg supplies learning_rate, weight_decay, beta1, beta2, epsilon.

    Returns fresh parameter and state objects; inputs are left untouched.
    """
    p_arrays = flatten_params(params)
    g_arrays = flatten_params(grads)
    if len(p_arrays) != len(g_arrays):
        raise ValueError(f"{len(g_arrays)} gradient arrays for {len(p_arrays)} parameters")
    if len(state.m) != len(p_arrays) or len(state.v) != len(p_arrays):
        raise ValueError(f"optimizer state tracks {len(state.m)} arrays, params have {len(p_arrays)}")
    shapes = [w.shape for w in p_arrays]
    for shape, g, m, v in zip(shapes, g_arrays, state.m, state.v):
        if g.shape != shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter shape {shape}")
        if m.shape != shape or v.shape != shape:
            raise ValueError(f"moment shapes {m.shape}, {v.shape} do not match parameter "
                             f"shape {shape}")

    lr = cfg.learning_rate
    wd = cfg.weight_decay
    b1, b2, eps = cfg.beta1, cfg.beta2, cfg.epsilon
    t = state.step + 1

    packed = state.packed or (None, None, None)
    w = _flat(p_arrays, packed[0])
    m = _flat(state.m, packed[1])
    v = _flat(state.v, packed[2])
    g = _concat(g_arrays)

    # m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * (g * g);
    # w = w - lr * (m_hat / (sqrt(v_hat) + eps)) - lr * wd * w,
    # operation for operation, into fresh buffers.  g is this call's own
    # copy, so it doubles as a temporary.
    tmp = g * g
    g *= 1.0 - b1
    new_m = b1 * m
    new_m += g
    tmp *= 1.0 - b2
    new_v = b2 * v
    new_v += tmp
    den = np.divide(new_v, 1.0 - b2 ** t, out=tmp)
    np.sqrt(den, out=den)
    den += eps
    new_w = new_m / (1.0 - b1 ** t)
    new_w /= den
    new_w *= lr
    np.subtract(w, new_w, out=new_w)
    new_w -= np.multiply(w, lr * wd, out=g)

    out = tuple(Packed(buf, shapes) for buf in (new_w, new_m, new_v))
    return (
        unflatten_params(params, list(out[0].arrays)),
        OptimState(m=list(out[1].arrays), v=list(out[2].arrays), step=t, packed=out),
    )
