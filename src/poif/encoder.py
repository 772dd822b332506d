"""Per-modality feed-forward encoders with hand-rolled backprop.

Each modality has its own independent stack of affine layers with tanh
between layers and a linear output.  An empty stack is the identity map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, DataError
from .losses import LossPlan, loss_and_embedding_grads
from .similarity import padded_blocks, rows_per_block
from .utils import as_rng


@dataclass
class EncoderConfig:
    """Architecture of one modality encoder (both modalities share it)."""

    hidden_layers: int = 2
    hidden_width: int = 64
    embedding_dim: int = 32

    def __post_init__(self):
        if self.hidden_layers < 0:
            raise ConfigError(f"hidden_layers must be >= 0, got {self.hidden_layers}")
        if self.hidden_width < 1:
            raise ConfigError(f"hidden_width must be >= 1, got {self.hidden_width}")
        if self.embedding_dim < 1:
            raise ConfigError(f"embedding_dim must be >= 1, got {self.embedding_dim}")


@dataclass(eq=False)
class Mlp:
    """Affine layer stack; also reused as the container for its gradients.

    weights[i] has shape (out, in), biases[i] shape (out,).  An empty
    stack passes inputs through unchanged.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ValueError(
                f"{len(self.weights)} weight matrices but {len(self.biases)} bias vectors"
            )

    @property
    def n_layers(self) -> int:
        return len(self.weights)


@dataclass(eq=False)
class EncoderParams:
    """Independent parameter sets for the audio and the video encoder."""

    audio: Mlp
    video: Mlp


def glorot_uniform(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-limit, limit, size=(out_dim, in_dim))


def init_mlp(in_dim: int, cfg: EncoderConfig, rng) -> Mlp:
    """Seeded uniform init in +-sqrt(6/(fan_in+fan_out)); zero biases."""
    rng = as_rng(rng)
    dims = [in_dim] + [cfg.hidden_width] * cfg.hidden_layers + [cfg.embedding_dim]
    weights = [glorot_uniform(rng, dims[i + 1], dims[i]) for i in range(len(dims) - 1)]
    biases = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]
    return Mlp(weights, biases)


def init_encoder(audio_dim: int, video_dim: int, cfg: EncoderConfig, rng) -> EncoderParams:
    """Draw both encoders from one stream, audio first."""
    rng = as_rng(rng)
    return EncoderParams(audio=init_mlp(audio_dim, cfg, rng), video=init_mlp(video_dim, cfg, rng))


def mlp_forward(mlp: Mlp, x: np.ndarray, name: str = "encoder"):
    """Forward pass over an (n, dim) batch, returning output and activations.

    The cache holds the input followed by every layer's post-activation
    output, which is all the backward pass needs.
    """
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 2:
        raise ValueError(f"{name}: expected an (n, dim) feature array, got shape {h.shape}")
    cache = [h]
    last = mlp.n_layers - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        if h.shape[1] != w.shape[1]:
            raise ValueError(
                f"{name} layer {i}: input dim {h.shape[1]} does not match weight dim {w.shape[1]}"
            )
        h = h @ w.T
        h += b
        if i < last:
            np.tanh(h, out=h)
        if not np.isfinite(h).all():
            raise ValueError(f"{name} layer {i}: non-finite activation")
        cache.append(h)
    return h, cache


def mlp_backward(mlp: Mlp, cache: list[np.ndarray], d_out: np.ndarray) -> Mlp:
    """Backprop d_out through the cached forward pass; returns param grads."""
    d_h = np.asarray(d_out, dtype=np.float64)
    last = mlp.n_layers - 1
    d_weights: list[np.ndarray] = [None] * mlp.n_layers
    d_biases: list[np.ndarray] = [None] * mlp.n_layers
    for i in range(last, -1, -1):
        h_in, h_out = cache[i], cache[i + 1]
        d_z = d_h if i == last else d_h * (1.0 - h_out * h_out)
        d_weights[i] = d_z.T @ h_in
        d_biases[i] = d_z.sum(axis=0)
        if i > 0:  # nothing needs the gradient of the input features
            d_h = d_z @ mlp.weights[i]
    return Mlp(d_weights, d_biases)


def _encode(mlp: Mlp, f: np.ndarray, name: str) -> np.ndarray:
    """mlp's output for f's rows, one mlp_forward per fixed-shape block."""
    rows = rows_per_block(np.shape(f)[1] + sum(w.shape[0] for w in mlp.weights))
    out = None
    for start, stop, block in padded_blocks(f, rows):
        h = mlp_forward(mlp, block, name)[0]
        if out is None:
            out = np.empty((len(f), h.shape[1]))
        out[start:stop] = h[:stop - start]
    return out


def encode_batch(params: EncoderParams, f_audio: np.ndarray, f_video: np.ndarray):
    """Embed (n, d_a) audio and (n, d_v) video feature rows.

    Returns the (n, d) embedding arrays per modality, in row order.  Each
    modality runs on zero-padded blocks of ``rows_per_block`` rows for its
    input plus layer widths (``similarity.padded_blocks``), so a row's
    embedding has the same bits alone, shifted or among any neighbours,
    and a block's forward pass, activation cache included, fits one budget.
    """
    if np.ndim(f_audio) != 2 or np.ndim(f_video) != 2:
        raise ValueError(f"expected (n, dim) rows, got {np.shape(f_audio)}, {np.shape(f_video)}")
    rows_a, rows_v = len(f_audio), len(f_video)
    if not rows_a:
        raise ValueError("empty segment batch")
    if rows_a != rows_v:
        raise DataError(f"{rows_a} audio rows but {rows_v} video rows")
    return (_encode(params.audio, f_audio, "audio encoder"),
            _encode(params.video, f_video, "video encoder"))


def loss_and_param_grads(
    params: EncoderParams,
    f_audio: np.ndarray,
    f_video: np.ndarray,
    plan: LossPlan,
    tau: float,
    joint_weight: float,
):
    """One fused forward/backward pass: parameter gradients and the (4,) loss row.

    f_audio and f_video are the batch's (n, d) feature rows and plan the
    ``loss_plan`` of its positive mask.
    """
    x_audio, cache_a = mlp_forward(params.audio, f_audio, name="audio encoder")
    x_video, cache_v = mlp_forward(params.video, f_video, name="video encoder")
    losses, d_xa, d_xv = loss_and_embedding_grads(
        x_audio, x_video, plan, tau, joint_weight
    )
    grads = EncoderParams(
        audio=mlp_backward(params.audio, cache_a, d_xa),
        video=mlp_backward(params.video, cache_v, d_xv),
    )
    return grads, losses
