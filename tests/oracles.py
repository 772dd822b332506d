"""Independent reference implementations used as test oracles.

Everything here trades speed for obviousness: plain Python loops and
textbook formulas, sharing as little code as possible with the package.
When poif and an oracle disagree, poif is wrong.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from typing import Sequence

import numpy as np

from poif.encoder import EncoderParams, Mlp, encode_batch, mlp_forward
from poif.fileio import ScoreRow
from poif.losses import LOSS_COLUMNS, loss_and_embedding_grads
from poif.optim import flatten_params, unflatten_params
from poif.records import CHANNELS, ManipFlags, SegmentRecord, SegmentTable
from poif.scoring import best_matches, build_reference, quantile_threshold
from poif.similarity import squared_distance_matrix


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


def _rows_and_grad(s, pos):
    """One channel's per-anchor loss terms and d(loss)/d(entries), on masked full rows.

    Numerator and denominator are shifted by their own row maxima.  When
    the positive set equals the full off-diagonal row the two computations
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
    # softmax over the row's off-diagonal entries minus the softmax
    # restricted to the positives
    g = np.exp(s_off - logden[:, None]) - np.exp(s_pos - lognum[:, None])
    return rows, g


def per_channel_loss_and_embedding_grads(x_audio, x_video, pos_mask, tau, joint_weight):
    """The loss kernel one channel at a time: (loss row, d_audio, d_video).

    Each channel's (n, n) similarity matrix goes through ``_rows_and_grad``
    on its own, with every exponential over the whole masked row.  The
    package's stacked pass must give the same bits.
    """
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
    losses = np.array([l_v, l_a, l_av, l_v + l_a + float(joint_weight) * l_av])

    w_av = g_av + g_av.T
    m_a = (g_a + g_a.T) + joint_weight * w_av
    m_v = (g_v + g_v.T) + joint_weight * w_av
    d_audio = (-2.0 / tau) * (m_a.sum(axis=1, keepdims=True) * x_audio - m_a @ x_audio)
    d_video = (-2.0 / tau) * (m_v.sum(axis=1, keepdims=True) * x_video - m_v @ x_video)
    return losses, d_audio, d_video


def loss_entry(losses, name: str) -> float:
    """One named entry (LOSS_COLUMNS) of a loss row."""
    return float(losses[LOSS_COLUMNS.index(name)])


def clone_params(params: EncoderParams) -> EncoderParams:
    return EncoderParams(
        audio=Mlp([w.copy() for w in params.audio.weights],
                  [b.copy() for b in params.audio.biases]),
        video=Mlp([w.copy() for w in params.video.weights],
                  [b.copy() for b in params.video.biases]),
    )


def fd_param_grads(params, f_audio, f_video, plan, tau, joint_weight,
                   step=1e-5) -> EncoderParams:
    """Central finite differences of the total loss in every parameter."""
    work = clone_params(params)
    arrays = flatten_params(work)
    grads = [np.zeros_like(a) for a in arrays]

    def loss() -> float:
        # the forward and the loss of loss_and_param_grads, without its backward
        x_audio = mlp_forward(work.audio, f_audio)[0]
        x_video = mlp_forward(work.video, f_video)[0]
        return loss_entry(loss_and_embedding_grads(x_audio, x_video, plan, tau, joint_weight)[0],
                          "l_tot")

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


# -- record-based synthesis ---------------------------------------------
#
# The generator as it ran on SegmentRecord lists: one record per segment,
# each latent, bias and noise vector its own standard_normal call.

def _record_videos(cfg, rng, identity_id, audio_latent, video_latent, video_ids, n_segments):
    segments = []
    for video_id in video_ids:
        bias_a = rng.standard_normal(cfg.audio_dim) * cfg.video_bias_scale
        bias_v = rng.standard_normal(cfg.video_dim) * cfg.video_bias_scale
        for k in range(n_segments):
            noise_a = rng.standard_normal(cfg.audio_dim) * cfg.segment_noise_scale
            noise_v = rng.standard_normal(cfg.video_dim) * cfg.segment_noise_scale
            segments.append(SegmentRecord(
                identity_id=identity_id, video_id=video_id, segment_index=k,
                audio=audio_latent + bias_a + noise_a,
                video=video_latent + bias_v + noise_v,
            ))
    return segments


def record_world(cfg):
    """(identity ids, audio latents, video latents, records, final rng state)."""
    rng = np.random.default_rng(cfg.seed)
    ids, audio_latents, video_latents, segments = [], [], [], []
    for i in range(cfg.n_identities):
        identity_id = f"id{cfg.identity_start + i:04d}"
        ids.append(identity_id)
        audio_latents.append(rng.standard_normal(cfg.audio_dim) * cfg.identity_scale)
        video_latents.append(rng.standard_normal(cfg.video_dim) * cfg.identity_scale)
        segments += _record_videos(
            cfg, rng, identity_id, audio_latents[-1], video_latents[-1],
            [f"{identity_id}_v{j:03d}" for j in range(cfg.n_videos_per_identity)],
            cfg.n_segments_per_video)
    return (tuple(ids), np.array(audio_latents), np.array(video_latents), segments,
            rng.bit_generator.state)


def record_identity_videos(world, identity_id, n_videos, n_segments, rng, video_prefix="x"):
    """Extra pristine videos of one identity, drawn from rng record by record."""
    row = world.identity_ids.index(identity_id)
    return _record_videos(
        world.cfg, rng, identity_id, world.audio_latents[row], world.video_latents[row],
        [f"{identity_id}_{video_prefix}{j:03d}" for j in range(n_videos)], n_segments)


def record_benchmark(world, group_counts, betas, rng, segments_per_video, reference_videos,
                     real_videos, cloned_voice_scale):
    """(reference records, test records) with the benchmark generator's draws."""
    groups = ("v", "v+ai", "a+ai", "v+a+ai")
    ids = world.identity_ids
    offsets = {poi: rng.standard_normal(world.cfg.audio_dim) * cloned_voice_scale
               for poi in ids}
    reference, test = [], []
    for poi in ids:
        owner = ids.index(poi)
        reference += record_identity_videos(world, poi, reference_videos, segments_per_video,
                                            rng, "r")
        reals = record_identity_videos(world, poi, real_videos, segments_per_video, rng, "t")
        test += reals
        sources = sorted({s.video_id for s in reals})
        for gi, group in enumerate(groups):
            v, a, ai = (part in group.split("+") for part in ("v", "a", "ai"))
            for j in range(group_counts.get(group, 0)):
                pick = int(rng.integers(len(ids) - 1))
                donor = pick if pick < owner else pick + 1
                blend = betas[j % len(betas)] if v else 0.0
                for seg in (s for s in reals if s.video_id == sources[j % len(sources)]):
                    audio, video = seg.audio, seg.video
                    if v:
                        video = seg.video + blend * (world.video_latents[donor]
                                                     - world.video_latents[owner])
                    if a:
                        audio = seg.audio + offsets[poi]
                    elif ai:
                        audio = seg.audio + (world.audio_latents[donor]
                                             - world.audio_latents[owner])
                    test.append(SegmentRecord(
                        identity_id=poi, video_id=f"{poi}_g{gi + 1}f{j:02d}",
                        segment_index=seg.segment_index, audio=audio, video=video,
                        flags=ManipFlags(is_fake=True, v=v, a=a, ai=ai), blend=blend))
    return reference, test


def naive_sample_batch(dataset, identities_per_batch, segments_per_identity, rng):
    """The sampler that regroups the whole dataset on every call.

    Identities in sorted-id order, each identity's videos in sorted-id
    order, each video's segments by segment_index.  One rng.random call
    draws e + p*V + p*k values (e eligible identities, V the most videos
    any of them has).  The p identities with the smallest of the first e
    values are drawn, in that order; the j-th drawn identity's videos are
    ranked the same way by the j-th run of V values (one per video, the
    rest unused), and its k first taken; the value u for a chosen video's
    segment picks int(u * n) of its n, capped at n - 1.  Sorting is
    stable, so equal values keep index order.  Returns the chosen records.
    """
    p, k = identities_per_batch, segments_per_identity
    by_identity = {}
    for seg in dataset:
        by_identity.setdefault(seg.identity_id, {}).setdefault(seg.video_id, []).append(seg)
    eligible = [i for i in sorted(by_identity) if len(by_identity[i]) >= k]
    if len(eligible) < p:
        raise ValueError(f"only {len(eligible)} identities have {k} videos")
    e = len(eligible)
    width = max(len(by_identity[i]) for i in eligible)
    u = rng.random(e + p * width + p * k).tolist()
    identity_keys = u[:e]
    video_keys = u[e:e + p * width]
    segment_keys = u[e + p * width:]
    batch = []
    drawn = sorted(range(e), key=lambda i: identity_keys[i])[:p]
    for j, idx in enumerate(drawn):
        videos = by_identity[eligible[idx]]
        names = sorted(videos)
        keys = video_keys[j * width:(j + 1) * width]
        chosen = sorted(range(len(names)), key=lambda v: keys[v])[:k]
        for slot, vidx in enumerate(chosen):
            segs = sorted(videos[names[vidx]], key=lambda s: s.segment_index)
            pick = int(segment_keys[j * k + slot] * len(segs))
            batch.append(segs[min(pick, len(segs) - 1)])
    return batch


def max_rel_err(analytic: EncoderParams, reference: EncoderParams, floor=1e-3) -> float:
    """Worst elementwise relative error, with a floor on the denominator."""
    worst = 0.0
    for a, r in zip(flatten_params(analytic), flatten_params(reference)):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(r)), floor)
        worst = max(worst, float((np.abs(a - r) / denom).max()))
    return worst


def midrank_auc(scores, is_real) -> float:
    """Rank-sum AUC with midranks found by walking each run of tied sorted scores."""
    scores = np.asarray(scores, dtype=np.float64)
    is_real = np.asarray(is_real, dtype=bool)
    n_real = int(is_real.sum())
    n_fake = len(scores) - n_real
    order = np.argsort(scores, kind="stable")
    ranked = scores[order]
    ranks = np.empty(len(scores), dtype=np.float64)
    i = 0
    while i < len(scores):
        j = i
        while j < len(scores) and ranked[j] == ranked[i]:
            j += 1
        ranks[order[i:j]] = (i + 1 + j) / 2.0  # midrank of positions i+1 .. j
        i = j
    rank_sum = ranks[is_real].sum()
    return float((rank_sum - n_real * (n_real + 1) / 2.0) / (n_real * n_fake))


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


def knn_person_id(
    gallery_labels: Sequence[str],
    gallery_audio: np.ndarray,
    gallery_video: np.ndarray,
    probe_labels: Sequence[str],
    probe_audio: np.ndarray,
    probe_video: np.ndarray,
    modality: str,
) -> float:
    """Nearest-neighbor identification accuracy over labeled embeddings (criterion 7).

    Row i of each (n, d) embedding matrix belongs to label i.  ``modality``
    is a channel name (``records.CHANNELS``); the joint channel ranks by
    the sum of the audio and video squared distances (equivalent to
    concatenating the vectors).  Distance ties resolve to the lowest
    gallery index.
    """
    if len(gallery_labels) == 0:
        raise ValueError("empty gallery")
    if len(probe_labels) == 0:
        raise ValueError("no probes")
    if modality == "audio":
        d = squared_distance_matrix(probe_audio, gallery_audio)
    elif modality == "video":
        d = squared_distance_matrix(probe_video, gallery_video)
    else:
        d = (squared_distance_matrix(probe_audio, gallery_audio)
             + squared_distance_matrix(probe_video, gallery_video))

    nearest = d.argmin(axis=1)
    hits = [gallery_labels[j] == label for j, label in zip(nearest, probe_labels)]
    return float(np.mean(hits))


def calibration_check(n: int, p_fa: float, rng=0) -> float:
    """Empirical false-alarm rate of the p_fa threshold on standard-normal scores.

    If normalized genuine scores really follow a standard normal, the
    returned rate should sit near p_fa.
    """
    if n < 1000:
        raise ValueError(f"calibration check needs at least 1000 draws, got {n}")
    draws = np.random.default_rng(rng).standard_normal(n)
    return float(np.mean(draws < quantile_threshold(p_fa)))


def scalar_adamw(w, g, m, v, t, lr, wd, b1, b2, eps):
    """Textbook decoupled-weight-decay update for one scalar parameter."""
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    w = w - lr * (m_hat / (math.sqrt(v_hat) + eps)) - lr * wd * w
    return w, m, v


def per_array_adamw_step(state, grads, cfg):
    """One AdamW update of a TrainState array by array, into a new TrainState of fresh arrays.

    The package's flat-buffer update must give the same bits.
    """
    lr, wd = cfg.learning_rate, cfg.weight_decay
    b1, b2, eps = cfg.beta1, cfg.beta2, cfg.epsilon
    t = state.steps_done + 1
    new_p, new_m, new_v = [], [], []
    for w, g, m, v in zip(flatten_params(state.params), flatten_params(grads), state.m, state.v):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        w = w - lr * (m_hat / (np.sqrt(v_hat) + eps)) - lr * wd * w
        new_p.append(w)
        new_m.append(m)
        new_v.append(v)
    return replace(state, params=unflatten_params(state.params, new_p), m=new_m, v=new_v,
                   steps_done=t)


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
    out = {}
    for poi, segs in _by_identity(reference).items():
        table = SegmentTable.from_records(segs)
        embedded = encode_batch(params, table.audio, table.video)
        out[poi] = build_reference(table, embedded, tau, **kwargs)
    return out


def record_score_video(segments, ref, params, tau):
    """(per-modality means of normalized indices, mean fused) for one video."""
    x_audio, _ = mlp_forward(params.audio, np.stack([s.audio for s in segments]))
    x_video, _ = mlp_forward(params.video, np.stack([s.video for s in segments]))
    s_a = -(dense_squared_distances(x_audio, ref.audio) / tau)
    s_v = -(dense_squared_distances(x_video, ref.video) / tau)
    raw = {"audio": s_a.max(axis=1), "video": s_v.max(axis=1), "av": (s_a + s_v).max(axis=1)}
    norm = {m: (raw[m] - ref.mu[c]) / ref.sigma[c] for c, m in enumerate(CHANNELS)}
    fused = np.minimum(np.minimum(norm["audio"], norm["video"]), norm["av"])
    return {m: float(v.mean()) for m, v in norm.items()}, float(fused.mean())


def score_table_rows(table) -> list[ScoreRow]:
    """One ScoreRow per row of a ScoreTable, read column by column."""
    rows = []
    for k in range(len(table)):
        norm = {m: float(table.statistics[c, k]) for c, m in enumerate(CHANNELS)}
        rows.append(ScoreRow(
            video_id=str(table.video_ids[k]), identity_id=str(table.identity_ids[k]),
            n_segments=int(table.n_segments[k]),
            flags=ManipFlags(*(bool(b) for b in table.flags[k])), blend=float(table.blend[k]),
            norm_video=norm["video"], norm_audio=norm["audio"], norm_av=norm["av"],
            fused=float(table.statistics[-1, k]), decision="fake" if table.fake[k] else "real",
        ))
    return rows


def row_statistic(row: ScoreRow, name: str) -> float:
    """A score row's value of one statistic: a channel name or "fusion"."""
    return {
        "video": row.norm_video,
        "audio": row.norm_audio,
        "av": row.norm_av,
        "fusion": row.fused,
    }[name]


def record_score_rows(reference, test, params, tau, p_fa, statistic="fusion",
                      references=None):
    """One ScoreRow per test video, videos in first-occurrence order."""
    threshold = quantile_threshold(p_fa)
    if references is None:
        references = record_references(reference, params, tau)
    rows = []
    for vid, segs in _by_video(test).items():
        norm, fused = record_score_video(segs, references[segs[0].identity_id], params, tau)
        value = fused if statistic == "fusion" else norm[statistic]
        rows.append(ScoreRow(
            video_id=vid, identity_id=segs[0].identity_id, n_segments=len(segs),
            flags=segs[0].flags, blend=max(s.blend for s in segs),
            norm_video=norm["video"], norm_audio=norm["audio"], norm_av=norm["av"],
            fused=fused, decision="fake" if value < threshold else "real",
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


def record_sweep_scores(axis, values, reference, test, params, tau, statistic="fusion",
                        ref_total=100):
    """[(x, score rows)] per sweep point, everything rebuilt at every point."""
    out = []
    for x in sorted(set(values)):
        if axis == "test_length":
            rows = record_score_rows(reference, record_truncate_videos(test, x),
                                     params, tau, 0.5, statistic)
        elif axis == "ref_size":
            rows = record_score_rows(record_reference_by_videos(reference, x), test,
                                     params, tau, 0.5, statistic)
        else:
            subset = record_reference_by_variety(reference, x, ref_total)
            refs = record_references(subset, params, tau, exclude_same_video=x > 1)
            rows = record_score_rows(subset, test, params, tau, 0.5, statistic, refs)
        out.append((x, rows))
    return out


def record_sweep_rows(axis, values, reference, test, params, tau, statistic="fusion",
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
            reals = [row_statistic(r, statistic) for r in rows if not r.flags.is_fake]
            fakes = [row_statistic(r, statistic) for r in rows
                     if r.flags.is_fake and classes[cls](r)]
            if not fakes and cls != "all":
                continue
            value = 100.0 * pairwise_auc(reals, fakes) if reals and fakes else None
            out.append({"axis": axis, "x": x, "class": cls, "n_real": len(reals),
                        "n_fake": len(fakes), "auc": value})
    return out


# -- per-video table scoring --------------------------------------------
#
# The table scorer one video at a time: every verdict computed from that
# video's slice of its person's best matches, on given embeddings.

def per_video_score_rows(table, videos, embedded, references, tau, p_fa, statistic):
    """One ScoreRow per video, in video order, one verdict at a time."""
    threshold = quantile_threshold(p_fa)
    x_audio, x_video = embedded
    bounds = videos.bounds
    by_person = {}
    for k in range(len(videos)):
        by_person.setdefault(str(table.identity_ids[videos.video_rows(k)[0]]), []).append(k)
    out = [None] * len(videos)
    for poi, ks in by_person.items():
        ref = references[poi]
        at = np.concatenate([np.arange(bounds[k], bounds[k + 1]) for k in ks])
        raw = best_matches(x_audio[at], x_video[at], ref.audio, ref.video, tau)
        offset = 0
        for k in ks:
            n = int(bounds[k + 1] - bounds[k])
            norm = {m: (raw[c, offset:offset + n] - ref.mu[c]) / ref.sigma[c]
                    for c, m in enumerate(CHANNELS)}
            offset += n
            fused = np.minimum(np.minimum(norm["audio"], norm["video"]), norm["av"])
            means = {m: float(v.mean()) for m, v in norm.items()}
            value = float(fused.mean()) if statistic == "fusion" else means[statistic]
            rows = videos.video_rows(k)
            out[k] = ScoreRow(
                video_id=videos.ids[k], identity_id=poi, n_segments=n,
                flags=ManipFlags(*(bool(b) for b in table.flags[rows[0]])),
                blend=max(table.blend[rows].tolist()),
                norm_video=means["video"], norm_audio=means["audio"], norm_av=means["av"],
                fused=float(fused.mean()),
                decision="fake" if value < threshold else "real",
            )
    return out
