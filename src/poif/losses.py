"""Multi-way contrastive objective and its analytic gradient.

For each anchor segment c the loss compares the exponentiated similarity
mass on the anchor's positives (other segments of the same identity)
against the mass on every other segment in the batch:

    loss(c) = log sum_{k != c} exp(S(c, k)) - log sum_{k in N_c} exp(S(c, k))

summed over anchors and over the three similarity channels: video, audio,
and the joint channel weighted by ``joint_weight``.  Every log-sum-exp is
computed with per-row max subtraction; at sharp temperatures similarities
reach -1e6 and naive summation underflows to zero.

Each per-anchor term is a log of a superset mass over a subset mass, so
the loss is non-negative, and it is exactly zero when every off-diagonal
pair is a positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, DataError
from .similarity import check_temperature, squared_distance_matrix


def positive_sets(labels) -> np.ndarray:
    """Boolean (n, n) mask, True where column k shares row c's identity label (k != c).

    ``labels`` holds one identity label (id string or integer code) per
    batch row.
    """
    ids = np.asarray(labels)
    if len(ids) < 2:
        raise ValueError(f"batch needs at least 2 segments, got {len(ids)}")
    mask = ids[:, None] == ids[None, :]
    np.fill_diagonal(mask, False)
    lonely = ~mask.any(axis=1)
    if lonely.any():
        lonely_id = ids[int(lonely.argmax())].item()
        raise DataError(f"identity with single segment in batch: {lonely_id!r}")
    return mask


@dataclass(frozen=True)
class LossReport:
    l_v: float
    l_a: float
    l_av: float
    joint_weight: float
    l_tot: float


def _check_joint_weight(joint_weight: float) -> float:
    joint_weight = float(joint_weight)
    if joint_weight < 0.0:
        raise ConfigError(f"joint loss weight must be non-negative, got {joint_weight}")
    return joint_weight


def _rows_and_grad(s: np.ndarray, pos: np.ndarray):
    """Per-anchor loss terms and d(loss)/d(entries).

    Numerator and denominator are shifted by their own row maxima, which
    keeps both finite for arbitrarily negative similarities.  When the
    positive set equals the full off-diagonal row the two computations
    coincide term by term and the loss row is exactly zero.
    """
    n = s.shape[0]
    off = ~np.eye(n, dtype=bool)
    s_off = np.where(off, s, -np.inf)
    s_pos = np.where(pos, s, -np.inf)

    m_off = s_off.max(axis=1)
    m_pos = s_pos.max(axis=1)
    e_off = np.exp(s_off - m_off[:, None])
    e_pos = np.exp(s_pos - m_pos[:, None])
    logden = m_off + np.log(e_off.sum(axis=1))
    lognum = m_pos + np.log(e_pos.sum(axis=1))
    rows = logden - lognum
    # d rows[c] / d s[c, k] = softmax over the row's off-diagonal entries
    # minus the softmax restricted to the positives.
    g = np.exp(s_off - logden[:, None]) - np.exp(s_pos - lognum[:, None])
    return rows, g


def loss_and_embedding_grads(
    x_audio: np.ndarray,
    x_video: np.ndarray,
    pos_mask: np.ndarray,
    tau: float,
    joint_weight: float,
):
    """Loss report plus gradients with respect to the embedding matrices.

    The gradient of each channel flows through S(c, k) = -||x_c - x_k||^2/tau
    for both the row and the column in which a pair appears; the joint
    channel contributes to both modalities with the same pair weights.
    Reductions are fixed-order matrix products, so results are
    reproducible bit for bit.
    """
    tau = check_temperature(tau)
    joint_weight = _check_joint_weight(joint_weight)
    x_audio = np.asarray(x_audio, dtype=np.float64)
    x_video = np.asarray(x_video, dtype=np.float64)

    s_a = -(squared_distance_matrix(x_audio) / tau)
    s_v = -(squared_distance_matrix(x_video) / tau)
    s_av = s_a + s_v

    rows_a, g_a = _rows_and_grad(s_a, pos_mask)
    rows_v, g_v = _rows_and_grad(s_v, pos_mask)
    rows_av, g_av = _rows_and_grad(s_av, pos_mask)

    l_a = float(rows_a.sum())
    l_v = float(rows_v.sum())
    l_av = float(rows_av.sum())
    report = LossReport(
        l_v=l_v, l_a=l_a, l_av=l_av, joint_weight=joint_weight,
        l_tot=l_v + l_a + joint_weight * l_av,
    )

    w_av = g_av + g_av.T
    m_a = (g_a + g_a.T) + joint_weight * w_av
    m_v = (g_v + g_v.T) + joint_weight * w_av
    d_audio = (-2.0 / tau) * (m_a.sum(axis=1, keepdims=True) * x_audio - m_a @ x_audio)
    d_video = (-2.0 / tau) * (m_v.sum(axis=1, keepdims=True) * x_video - m_v @ x_video)
    return report, d_audio, d_video

