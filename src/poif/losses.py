"""Multi-way contrastive objective and its analytic gradient.

For each anchor segment c the loss compares the exponentiated similarity
mass on the anchor's positives (other segments of the same identity)
against the mass on every other segment in the batch:

    loss(c) = log sum_{k != c} exp(S(c, k)) - log sum_{k in N_c} exp(S(c, k))

summed over anchors and over the three similarity channels: video, audio,
and the joint channel weighted by ``joint_weight``: the stack verification
scores with, built in one place (``similarity.similarity_stack``).  Every
log-sum-exp is computed with per-row max subtraction; at sharp
temperatures similarities reach -1e6 and naive summation underflows.

Each per-anchor term is a log of a superset mass over a subset mass, so
the loss is non-negative, and it is exactly zero when every off-diagonal
pair is a positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, DataError
from .similarity import similarity_stack

# The entries of a loss row: the three channels and their weighted total.
LOSS_COLUMNS = ("l_v", "l_a", "l_av", "l_tot")


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


def check_joint_weight(joint_weight: float) -> float:
    joint_weight = float(joint_weight)
    if not joint_weight >= 0.0:
        raise ConfigError(f"joint loss weight must be non-negative, got {joint_weight}")
    return joint_weight


@dataclass(frozen=True, eq=False)
class LossPlan:
    """A batch layout's positive entries, prepared once for every batch that has it.

    ``at``: (3, P) flat indices into a (3, n, n) stack, grouped by anchor
    row; ``anchor``: each entry's row; ``starts[c]``: where c's run starts.
    """

    anchor: np.ndarray
    starts: np.ndarray
    at: np.ndarray


def loss_plan(pos_mask) -> LossPlan:
    """The loss's index arrays for a (n, n) positive mask from ``positive_sets``.

    Every anchor needs at least one positive.
    """
    pos_mask = np.asarray(pos_mask, dtype=bool)
    n = len(pos_mask)
    if not pos_mask.any(axis=1).all():
        raise ValueError("every anchor needs at least one positive")
    flat = np.flatnonzero(pos_mask)
    anchor = flat // n
    return LossPlan(
        anchor=anchor,
        starts=np.searchsorted(anchor, np.arange(n)),
        at=flat + np.arange(0, 3 * n * n, n * n)[:, None],
    )


def loss_and_embedding_grads(
    x_audio: np.ndarray,
    x_video: np.ndarray,
    plan: LossPlan,
    tau: float,
    joint_weight: float,
):
    """The (4,) loss row (LOSS_COLUMNS) plus gradients with respect to the embeddings.

    plan is the ``loss_plan`` of the batch's positive mask.  The three
    channels run as one stacked pass.  The gradient of each channel flows
    through S(c, k) = -||x_c - x_k||^2/tau for both the row and the column
    in which a pair appears; the joint channel contributes to both
    modalities with the same pair weights.  Reductions run in a fixed
    order, so results are reproducible bit for bit.
    """
    joint_weight = check_joint_weight(joint_weight)
    x_audio = np.asarray(x_audio, dtype=np.float64)
    x_video = np.asarray(x_video, dtype=np.float64)
    n = len(x_audio)
    if n != len(plan.starts):
        raise ValueError(f"batch of {n} rows for a loss plan of {len(plan.starts)}")
    anchor, at = plan.anchor, plan.at

    # Video, audio and joint similarities in LOSS_COLUMNS order.
    s = similarity_stack(x_audio, x_video, tau)

    s_pos = np.take(s, at)

    # Every log-sum-exp is shifted by its row maximum.  Exponentials of
    # the positive set run on the positive entries only and are scattered
    # into zeros, so each row sum runs over the same n entries, in the
    # same order, as a masked full-row sum would.  Past this point s holds
    # the off-diagonal similarities (-inf on the diagonal), and two more
    # (3, n, n) buffers carry every later stage.
    s.reshape(3, -1)[:, ::n + 1] = -np.inf
    # Each channel's matrix is exactly symmetric (similarity_stack
    # guarantees it for a batch alone), so its column maxima are its row
    # maxima, and they reduce along the fast axis.
    m_off = s.max(axis=1)
    m_pos = np.maximum.reduceat(s_pos, plan.starts, axis=1)
    work = np.subtract(s, m_off[:, :, None])
    logden = m_off + np.log(np.exp(work, out=work).sum(axis=2))
    spare = np.zeros((3, n, n))
    np.put(spare, at, np.exp(s_pos - np.take(m_pos, anchor, axis=1)))
    lognum = m_pos + np.log(spare.sum(axis=2))
    l_v, l_a, l_av = (float(l) for l in (logden - lognum).sum(axis=1))
    losses = np.array([l_v, l_a, l_av, l_v + l_a + joint_weight * l_av])

    # d loss / d s[c, k]: the softmax over the row's off-diagonal entries
    # minus the softmax restricted to the positives.
    g = np.subtract(s, logden[:, :, None], out=work)
    np.exp(g, out=g)
    np.put(g, at, np.take(g, at) - np.exp(s_pos - np.take(lognum, anchor, axis=1)))

    # Each pair appears as a row and as a column; the joint channel feeds
    # both modalities with the same pair weights: m[0] = sym_v + w * sym_av
    # and m[1] = sym_a + w * sym_av.
    sym = np.add(g, g.transpose(0, 2, 1), out=spare)
    np.multiply(sym[2], joint_weight, out=g[2])
    m = np.add(sym[:2], g[2], out=g[:2])
    d_video = (-2.0 / tau) * (m[0].sum(axis=1, keepdims=True) * x_video - m[0] @ x_video)
    d_audio = (-2.0 / tau) * (m[1].sum(axis=1, keepdims=True) * x_audio - m[1] @ x_audio)
    return losses, d_audio, d_video
