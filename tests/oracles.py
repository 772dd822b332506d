"""Independent reference implementations used as test oracles.

Everything here trades speed for obviousness: plain Python loops and
textbook formulas, sharing as little code as possible with the package.
When poif and an oracle disagree, poif is wrong.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from poif.encoder import EncoderParams, Mlp, loss_and_param_grads, mlp_forward
from poif.fileio import ScoreRow
from poif.optim import flatten_params, unflatten_params
from poif.records import Modality, SegmentTable
from poif.scoring import DecisionPolicy, build_reference


def squared_distance(x, y) -> float:
    """Squared Euclidean distance between two equal-length vectors."""
    d = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    return float((d * d).sum())


def naive_contrastive_losses(x_audio, x_video, identities, tau):
    """(l_v, l_a, l_av) by direct exponential sums, no max-shift trick.

    Only valid while every plain exponential stays a normal float: in the
    subnormal range exp() keeps too few mantissa bits for the later log to
    be trustworthy, so such batches raise ValueError instead of returning
    a silently degraded reference value.
    """
    n = len(identities)

    def channel(sim):
        total = 0.0
        for c in range(n):
            den = 0.0
            num = 0.0
            for k in range(n):
                if k == c:
                    continue
                e = math.exp(sim(c, k))
                if e < sys.float_info.min:
                    raise ValueError("exponential left the normal float range")
                den += e
                if identities[k] == identities[c]:
                    num += e
            total += math.log(den) - math.log(num)
        return total

    s_a = lambda c, k: -squared_distance(x_audio[c], x_audio[k]) / tau
    s_v = lambda c, k: -squared_distance(x_video[c], x_video[k]) / tau
    l_v = channel(s_v)
    l_a = channel(s_a)
    l_av = channel(lambda c, k: s_a(c, k) + s_v(c, k))
    return l_v, l_a, l_av


def clone_params(params: EncoderParams) -> EncoderParams:
    return EncoderParams(
        audio=Mlp([w.copy() for w in params.audio.weights],
                  [b.copy() for b in params.audio.biases]),
        video=Mlp([w.copy() for w in params.video.weights],
                  [b.copy() for b in params.video.biases]),
    )


def fd_param_grads(params, f_audio, f_video, pos_mask, tau, joint_weight,
                   step=1e-5) -> EncoderParams:
    """Central finite differences of the total loss in every parameter."""
    work = clone_params(params)
    arrays = flatten_params(work)
    grads = [np.zeros_like(a) for a in arrays]

    def loss() -> float:
        _, report = loss_and_param_grads(work, f_audio, f_video, pos_mask, tau, joint_weight)
        return report.l_tot

    for arr, out in zip(arrays, grads):
        flat = arr.reshape(-1)
        g = out.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up = loss()
            flat[i] = keep - step
            down = loss()
            flat[i] = keep
            g[i] = (up - down) / (2.0 * step)
    return unflatten_params(params, grads)


def naive_sample_batch(dataset, identities_per_batch, segments_per_identity, rng):
    """The sampler that regroups the whole dataset on every call.

    Identities in sorted-id order, each identity's videos in sorted-id
    order, each video's segments by segment_index; the rng draws match
    the package's sampler call for call.  Returns the chosen records.
    """
    p, k = identities_per_batch, segments_per_identity
    by_identity = {}
    for seg in dataset:
        by_identity.setdefault(seg.identity_id, {}).setdefault(seg.video_id, []).append(seg)
    eligible = [i for i in sorted(by_identity) if len(by_identity[i]) >= k]
    if len(eligible) < p:
        raise ValueError(f"only {len(eligible)} identities have {k} videos")
    batch = []
    for idx in rng.choice(len(eligible), size=p, replace=False):
        videos = sorted(by_identity[eligible[idx]])
        for vidx in rng.choice(len(videos), size=k, replace=False):
            segs = sorted(by_identity[eligible[idx]][videos[vidx]],
                          key=lambda s: s.segment_index)
            batch.append(segs[rng.integers(len(segs))])
    return batch


def max_rel_err(analytic: EncoderParams, reference: EncoderParams, floor=1e-3) -> float:
    """Worst elementwise relative error, with a floor on the denominator."""
    worst = 0.0
    for a, r in zip(flatten_params(analytic), flatten_params(reference)):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(r)), floor)
        worst = max(worst, float((np.abs(a - r) / denom).max()))
    return worst


def pairwise_auc(real_scores, fake_scores) -> float:
    """Probability a random real outscores a random fake; ties count half."""
    wins = 0.0
    for r in real_scores:
        for f in fake_scores:
            if r > f:
                wins += 1.0
            elif r == f:
                wins += 0.5
    return wins / (len(real_scores) * len(fake_scores))


def embed_one(params: EncoderParams, seg):
    """(audio, video) embedding of one segment, forwarded as a one-row batch."""
    audio, _ = mlp_forward(params.audio, seg.audio[None, :])
    video, _ = mlp_forward(params.video, seg.video[None, :])
    return audio[0], video[0]


def reference_stats_bruteforce(segments, params, tau):
    """Leave-own-video-out self-score mean and spread by explicit loops."""
    embedded = [embed_one(params, s) for s in segments]
    out = {}
    for m in ("audio", "video", "av"):
        best = []
        for c, seg in enumerate(segments):
            candidates = []
            for k, other in enumerate(segments):
                if other.video_id == seg.video_id:
                    continue
                sa = -squared_distance(embedded[c][0], embedded[k][0]) / tau
                sv = -squared_distance(embedded[c][1], embedded[k][1]) / tau
                candidates.append({"audio": sa, "video": sv, "av": sa + sv}[m])
            best.append(max(candidates))
        mu = sum(best) / len(best)
        var = sum((b - mu) ** 2 for b in best) / len(best)
        out[m] = (mu, math.sqrt(var))
    return out


def scalar_adamw(w, g, m, v, t, lr, wd, b1, b2, eps):
    """Textbook decoupled-weight-decay update for one scalar parameter."""
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    w = w - lr * (m_hat / (math.sqrt(v_hat) + eps)) - lr * wd * w
    return w, m, v


def phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def phi_inv(p: float) -> float:
    """Standard-normal quantile by bisection on phi."""
    lo, hi = -12.0, 12.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if phi(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def naive_mlp_forward(mlp: Mlp, x: np.ndarray) -> np.ndarray:
    """Layer loop with explicit per-neuron sums; tanh between, linear out."""
    out = np.empty((x.shape[0], mlp.weights[-1].shape[0] if mlp.weights else x.shape[1]))
    for r in range(x.shape[0]):
        h = [float(v) for v in x[r]]
        for li, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
            z = []
            for j in range(w.shape[0]):
                acc = float(b[j])
                for i in range(w.shape[1]):
                    acc += float(w[j, i]) * h[i]
                z.append(acc)
            h = [math.tanh(v) for v in z] if li < len(mlp.weights) - 1 else z
        out[r] = h
    return out


def dense_squared_distances(x, y=None):
    """Unblocked broadcast: the whole (n, m, d) difference tensor at once."""
    y = x if y is None else y
    return ((x[:, None] - y[None]) ** 2).sum(-1)


def dense_self_scores(x_audio, x_video, video_ids, tau, exclude_same_video):
    """Reference self-scores from full n-by-n similarity matrices and masks.

    Returns {"audio" | "video" | "av": (scores, mean, population std)}.
    """
    s_a = -(dense_squared_distances(x_audio) / tau)
    s_v = -(dense_squared_distances(x_video) / tau)
    vids = np.array(video_ids)
    if exclude_same_video:
        allowed = vids[:, None] != vids[None, :]
    else:
        allowed = ~np.eye(len(vids), dtype=bool)
    out = {}
    for name, sims in (("audio", s_a), ("video", s_v), ("av", s_a + s_v)):
        scores = np.where(allowed, sims, -np.inf).max(axis=1)
        out[name] = (scores, float(scores.mean()), float(scores.std()))
    return out


# -- record-based scoring and sweeps ------------------------------------
#
# The scorer and sweep selectors as they ran on SegmentRecord lists: a
# dict regrouping per call, one embedding batch and one dense similarity
# matrix per test video, and the selectors as list builders.

def _by_identity(segments):
    out = {}
    for seg in segments:
        out.setdefault(seg.identity_id, []).append(seg)
    return out


def _by_video(segments):
    """Videos in first-occurrence order, each sorted by segment_index (stable)."""
    out = {}
    for seg in segments:
        out.setdefault(seg.video_id, []).append(seg)
    for segs in out.values():
        segs.sort(key=lambda s: s.segment_index)
    return out


def record_references(reference, params, tau, **kwargs):
    return {poi: build_reference(SegmentTable.from_records(segs), params, tau, **kwargs)
            for poi, segs in _by_identity(reference).items()}


def record_score_video(segments, ref, params, tau):
    """(per-modality means of normalized indices, mean fused) for one video."""
    x_audio, _ = mlp_forward(params.audio, np.stack([s.audio for s in segments]))
    x_video, _ = mlp_forward(params.video, np.stack([s.video for s in segments]))
    s_a = -(dense_squared_distances(x_audio, ref.audio) / tau)
    s_v = -(dense_squared_distances(x_video, ref.video) / tau)
    raw = {"audio": s_a.max(axis=1), "video": s_v.max(axis=1), "av": (s_a + s_v).max(axis=1)}
    norm = {m: (raw[m] - ref.mu[Modality(m)]) / ref.sigma[Modality(m)] for m in raw}
    fused = np.minimum(np.minimum(norm["audio"], norm["video"]), norm["av"])
    return {m: float(v.mean()) for m, v in norm.items()}, float(fused.mean())


def record_score_rows(reference, test, params, tau, policy, statistic="fused",
                      references=None):
    """One ScoreRow per test video, videos in first-occurrence order."""
    if references is None:
        references = record_references(reference, params, tau)
    rows = []
    for vid, segs in _by_video(test).items():
        norm, fused = record_score_video(segs, references[segs[0].identity_id], params, tau)
        value = fused if statistic == "fused" else norm[statistic]
        rows.append(ScoreRow(
            video_id=vid, identity_id=segs[0].identity_id, n_segments=len(segs),
            flags=segs[0].flags, blend=max(s.blend for s in segs),
            norm_video=norm["video"], norm_audio=norm["audio"], norm_av=norm["av"],
            fused=fused, decision="fake" if value < policy.threshold else "real",
        ))
    return rows


def record_truncate_videos(test, x):
    """Each video's first x segments (in segment_index order)."""
    out = []
    for segs in _by_video(test).values():
        out.extend(segs[:x])
    return out


def _first_videos(segs, x):
    videos = _by_video(segs)
    keep = sorted(videos)[:x]
    if len(keep) < x:
        raise ValueError(f"{segs[0].identity_id} has {len(keep)} videos, need {x}")
    return videos, keep


def record_reference_by_videos(reference, x):
    """Per person, all segments of the first x videos (sorted by id)."""
    out = []
    for segs in _by_identity(reference).values():
        videos, keep = _first_videos(segs, x)
        for vid in keep:
            out.extend(videos[vid])
    return out


def record_reference_by_variety(reference, x, total):
    """Per person, `total` segments drained round-robin from the first x videos."""
    out = []
    for segs in _by_identity(reference).values():
        videos, keep = _first_videos(segs, x)
        picked, depth = [], 0
        while len(picked) < total:
            advanced = False
            for vid in keep:
                if len(picked) < total and depth < len(videos[vid]):
                    picked.append(videos[vid][depth])
                    advanced = True
            if not advanced:
                raise ValueError(f"cannot fill {total} segments from {x} videos")
            depth += 1
        out.extend(picked)
    return out


def record_sweep_scores(axis, values, reference, test, params, tau, statistic="fused",
                        ref_total=100):
    """[(x, score rows)] per sweep point, everything rebuilt at every point."""
    policy = DecisionPolicy(p_fa=0.5)
    out = []
    for x in sorted(set(values)):
        if axis == "test_length":
            rows = record_score_rows(reference, record_truncate_videos(test, x),
                                     params, tau, policy, statistic)
        elif axis == "ref_size":
            rows = record_score_rows(record_reference_by_videos(reference, x), test,
                                     params, tau, policy, statistic)
        else:
            subset = record_reference_by_variety(reference, x, ref_total)
            refs = record_references(subset, params, tau, exclude_same_video=x > 1)
            rows = record_score_rows(subset, test, params, tau, policy, statistic, refs)
        out.append((x, rows))
    return out


def record_sweep_rows(axis, values, reference, test, params, tau, statistic="fused",
                      ref_total=100):
    """AUC rows per sweep point and class, AUC by pairwise comparison."""
    classes = {
        "all": lambda r: True,
        "fr": lambda r: r.flags.v and r.blend < 1.0,
        "fs": lambda r: r.flags.v and r.blend == 1.0,
    }
    out = []
    for x, rows in record_sweep_scores(axis, values, reference, test, params, tau,
                                       statistic, ref_total):
        for cls in sorted(classes):
            reals = [r.statistic(statistic) for r in rows if not r.flags.is_fake]
            fakes = [r.statistic(statistic) for r in rows
                     if r.flags.is_fake and classes[cls](r)]
            if not fakes and cls != "all":
                continue
            value = 100.0 * pairwise_auc(reals, fakes) if reals and fakes else None
            out.append({"axis": axis, "x": x, "class": cls, "n_real": len(reals),
                        "n_fake": len(fakes), "auc": value})
    return out
