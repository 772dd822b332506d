"""Glue between segment tables and the verification tables.

The scoring path groups reference rows by person, builds one reference
set each, then scores every test video against the reference of the
person it claims to be.  Videos are processed in first-occurrence order;
inside a video, segments run in segment_index order.  Each video is
embedded as a batch of its own, in stacks of videos of equal length;
each person's test segments are matched against that person's reference
in row blocks, and each length's videos are judged as one stack.
Results come back as ScoreRow records, and table_metrics turns those
into the per-manipulation-group AUC / accuracy / detection tables.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .encoder import EncoderParams, encode_batch
from .exceptions import DataError, UndefinedMetricError
from .fileio import ScoreRow
from .metrics import MetricsReport, ScoreSample, accuracy, auc, pd_at_fa
from .records import FAKE, GROUPS, REAL, ManipFlags, Modality, SegmentTable
from .scoring import (
    FUSED,
    DecisionPolicy,
    ReferenceSet,
    SmallReferenceWarning,
    below_nominal,
    best_matches,
    build_reference,
    rows_per_block,
    score_video,
)

STATISTIC_KEYS = ("video", "audio", "av", "fused")
AVG_GROUP = "AVG"


@dataclass(frozen=True, eq=False)
class Videos:
    """The videos of a table's rows, in first-occurrence order.

    ``rows`` holds table rows grouped by video, in segment_index order
    inside each video (equal indices keep table order); video k owns
    ``rows[bounds[k]:bounds[k + 1]]``.
    """

    ids: list[str]
    rows: np.ndarray
    bounds: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def video_rows(self, k: int) -> np.ndarray:
        return self.rows[self.bounds[k]:self.bounds[k + 1]]


def _first_occurrence_codes(values: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Number the distinct values in order of first appearance.

    Returns each entry's code and the distinct values in code order.
    """
    names, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    return rank[inverse], names[order].tolist()


def _split_by(codes: np.ndarray) -> list[np.ndarray]:
    """Positions per code 0..k-1 (every code present), each ascending."""
    order = np.argsort(codes, kind="stable")
    return np.split(order, np.cumsum(np.bincount(codes))[:-1])


def _by_length(counts: np.ndarray):
    """(length, positions) per distinct count, lengths ascending, positions ascending."""
    lengths, codes = np.unique(counts, return_inverse=True)
    return zip(lengths.tolist(), _split_by(codes))


def group_by_identity(table: SegmentTable) -> dict[str, np.ndarray]:
    """Rows per identity, identities in first-occurrence order, rows in table order."""
    codes, ids = _first_occurrence_codes(table.identity_ids)
    return dict(zip(ids, _split_by(codes)))


def group_by_video(table: SegmentTable, rows: np.ndarray | None = None) -> Videos:
    """Group rows (default: all) by video, in first-occurrence order.

    Every video must belong to one identity and carry one set of
    manipulation flags.
    """
    rows = np.arange(len(table)) if rows is None else rows
    codes, ids = _first_occurrence_codes(table.video_ids[rows])
    grouped = rows[np.lexsort((table.segment_index[rows], codes))]
    counts = np.bincount(codes, minlength=len(ids))
    bounds = np.concatenate(([0], np.cumsum(counts)))
    lead = np.repeat(grouped[bounds[:-1]], counts)
    bad_owner = table.identity_ids[grouped] != table.identity_ids[lead]
    bad = bad_owner | (table.flags[grouped] != table.flags[lead]).any(axis=1)
    if bad.any():
        k = int(np.searchsorted(bounds, np.argmax(bad), side="right")) - 1
        if bad_owner[bounds[k]:bounds[k + 1]].any():
            owners = sorted(set(table.identity_ids[grouped[bounds[k]:bounds[k + 1]]].tolist()))
            raise DataError(f"video {ids[k]!r} claims multiple identities: {owners}")
        raise DataError(f"video {ids[k]!r} mixes manipulation labels")
    return Videos(ids, grouped, bounds)


def build_references(
    reference: SegmentTable,
    params: EncoderParams,
    tau: float,
    **kwargs,
) -> dict[str, ReferenceSet]:
    if not len(reference):
        raise DataError("empty reference set")
    return {
        poi: build_reference(reference.take(rows), params, tau, **kwargs)
        for poi, rows in group_by_identity(reference).items()
    }


def embed_videos(params: EncoderParams, table: SegmentTable, videos: Videos):
    """Embed every video as a batch of its own; (n, d) matrices in ``videos.rows`` order.

    Videos of one length L go through ``encode_batch`` together as a
    (videos, L, dim) stack, which gives each video the bits of a batch of
    its own.  A stack holds as many whole videos as ``rows_per_block``
    allows for L times the widest layer (inputs included), so its largest
    activation stays within one best_matches slice budget.
    """
    if not len(videos):
        return np.empty((0, 0)), np.empty((0, 0))
    widest = max(table.audio.shape[1], table.video.shape[1],
                 *(w.shape[0] for mlp in (params.audio, params.video) for w in mlp.weights))
    out = None
    for length, ks in _by_length(np.diff(videos.bounds)):
        at = videos.bounds[ks, None] + np.arange(length)
        per_stack = rows_per_block(length * widest)
        for start in range(0, len(at), per_stack):
            pos = at[start:start + per_stack]
            rows = videos.rows[pos]
            stacked = encode_batch(params, table.audio[rows], table.video[rows])
            if out is None:
                out = tuple(np.empty((len(videos.rows), x.shape[-1])) for x in stacked)
            for whole, x in zip(out, stacked):
                whole[pos] = x
    return out


def _score_embedded(
    table: SegmentTable,
    videos: Videos,
    embedded: tuple[np.ndarray, np.ndarray],
    references: Mapping[str, ReferenceSet],
    tau: float,
    policy: DecisionPolicy,
    statistic: str,
) -> list[ScoreRow]:
    """Score embedded videos, one person at a time, one stack per length; rows in video order.

    A person's test rows are matched in video order, then each length's
    videos are scored as one (videos, L) stack of their raw indices.
    """
    bounds = videos.bounds
    first = videos.rows[bounds[:-1]]
    codes, owners = _first_occurrence_codes(table.identity_ids[first])
    missing = sorted(set(owners) - set(references))
    if missing:
        raise DataError(f"no reference material for: {', '.join(missing)}")

    x_audio, x_video = embedded
    counts = np.diff(bounds)
    flags = [ManipFlags(*f) for f in table.flags[first].tolist()]
    blends = np.maximum.reduceat(table.blend[videos.rows], bounds[:-1]).tolist()
    out: list[ScoreRow] = [None] * len(videos)
    for poi, ks in zip(owners, _split_by(codes)):
        ref = references[poi]
        n = counts[ks]
        starts = np.cumsum(n) - n  # each video's first row among the person's rows
        at = np.arange(n.sum()) + np.repeat(bounds[ks] - starts, n)
        raw = best_matches(x_audio[at], x_video[at], ref.audio, ref.video, tau)
        for length, group in _by_length(n):
            pos = starts[group, None] + np.arange(length)
            verdict = score_video({m: r[pos] for m, r in raw.items()}, ref, policy,
                                  statistic=statistic)
            norm = {m: v.tolist() for m, v in verdict.normalized.items()}
            for k, n_video, n_audio, n_av, fused, decision in zip(
                    ks[group].tolist(), norm[Modality.VIDEO], norm[Modality.AUDIO],
                    norm[Modality.AV], verdict.fused.tolist(), verdict.decisions):
                out[k] = ScoreRow(
                    video_id=videos.ids[k],
                    identity_id=poi,
                    n_segments=length,
                    flags=flags[k],
                    blend=blends[k],
                    norm_video=n_video,
                    norm_audio=n_audio,
                    norm_av=n_av,
                    fused=fused,
                    decision=decision,
                )
    return out


def score_segments(
    reference: SegmentTable,
    test: SegmentTable,
    params: EncoderParams,
    tau: float,
    policy: DecisionPolicy,
    statistic: str = FUSED,
    references: Mapping[str, ReferenceSet] | None = None,
) -> list[ScoreRow]:
    """Score every test video against its claimed person's reference."""
    if references is None:
        references = build_references(reference, params, tau)
    videos = group_by_video(test)
    return _score_embedded(test, videos, embed_videos(params, test, videos),
                           references, tau, policy, statistic)


def rows_to_samples(
    rows: Sequence[ScoreRow], group: str, statistic: str
) -> list[ScoreSample]:
    """Reals plus the fakes of one manipulation group, as labeled scores."""
    samples = []
    for r in rows:
        if not r.flags.is_fake:
            samples.append(ScoreSample(r.statistic(statistic), REAL))
        elif r.flags.group() == group:
            samples.append(ScoreSample(r.statistic(statistic), FAKE))
    return samples


def _guarded(fn) -> float | None:
    try:
        return 100.0 * fn()
    except UndefinedMetricError:
        return None


def _mean_defined(values: Sequence[float | None]) -> float | None:
    defined = [v for v in values if v is not None]
    return sum(defined) / len(defined) if defined else None


def table_metrics(
    rows: Sequence[ScoreRow], p_fa: float = 0.1
) -> dict[str, dict[str, MetricsReport]]:
    """Per-group metrics for each statistic, plus the cross-group average.

    Values are percentages.  Each group's fakes are compared against all
    real test videos; a single-class group leaves its rank metrics
    undefined rather than failing.  The AVG entry macro-averages over the
    groups where each metric is defined.  Accuracy uses the even-odds
    threshold (0 on the normalized scale).
    """
    present = [g for g in GROUPS if any(r.flags.is_fake and r.flags.group() == g for r in rows)]
    if not present:
        raise DataError("no fake videos in the score table")
    even = DecisionPolicy(p_fa=0.5)
    table: dict[str, dict[str, MetricsReport]] = {}
    for group in present:
        table[group] = {}
        for stat in STATISTIC_KEYS:
            samples = rows_to_samples(rows, group, stat)
            n_real = sum(1 for s in samples if s.label == REAL)
            n_fake = len(samples) - n_real
            table[group][stat] = MetricsReport(
                auc=_guarded(lambda: auc(samples)),
                accuracy=_guarded(lambda: accuracy(samples, even)),
                pd_at_fa=_guarded(lambda: pd_at_fa(samples, fa=p_fa)),
                n_real=n_real,
                n_fake=n_fake,
            )
    table[AVG_GROUP] = {
        stat: MetricsReport(
            auc=_mean_defined([table[g][stat].auc for g in present]),
            accuracy=_mean_defined([table[g][stat].accuracy for g in present]),
            pd_at_fa=_mean_defined([table[g][stat].pd_at_fa for g in present]),
            n_real=sum(table[g][stat].n_real for g in present),
            n_fake=sum(table[g][stat].n_fake for g in present),
        )
        for stat in STATISTIC_KEYS
    }
    return table


# -- sweep axes ---------------------------------------------------------

SWEEP_AXES = ("test_length", "ref_size", "ref_variety")
SWEEP_CLASSES = ("all", "fr", "fs")


def _in_class(flags, blend: float, cls: str) -> bool:
    if cls == "all":
        return True
    if cls == "fs":
        return flags.v and blend == 1.0
    if cls == "fr":
        return flags.v and blend < 1.0
    raise ValueError(f"unknown sweep class {cls!r}")


def class_samples(rows: Sequence[ScoreRow], cls: str, statistic: str) -> list[ScoreSample]:
    """All reals versus the fakes of one manipulation class."""
    samples = []
    for r in rows:
        if not r.flags.is_fake:
            samples.append(ScoreSample(r.statistic(statistic), REAL))
        elif _in_class(r.flags, r.blend, cls):
            samples.append(ScoreSample(r.statistic(statistic), FAKE))
    return samples


def truncate_videos(videos: Videos, x: int) -> Videos:
    """Keep each video's first x segments (in segment_index order)."""
    counts = np.diff(videos.bounds)
    position = np.arange(len(videos.rows)) - np.repeat(videos.bounds[:-1], counts)
    kept = np.minimum(counts, x)
    return Videos(videos.ids, videos.rows[position < x],
                  np.concatenate(([0], np.cumsum(kept))))


def _person_videos(reference: SegmentTable, rows: np.ndarray, x: int) -> tuple[Videos, list[int]]:
    """One person's videos, and the first x of them by sorted video id."""
    videos = group_by_video(reference, rows)
    keep = sorted(range(len(videos)), key=videos.ids.__getitem__)[:x]
    if len(keep) < x:
        raise DataError(
            f"reference for {str(reference.identity_ids[rows[0]])!r} has "
            f"{len(keep)} videos, need {x}"
        )
    return videos, keep


def reference_by_videos(reference: SegmentTable, x: int) -> np.ndarray:
    """Per person, the rows of the first x videos (sorted by id)."""
    out = []
    for rows in group_by_identity(reference).values():
        videos, keep = _person_videos(reference, rows, x)
        out.extend(videos.video_rows(k) for k in keep)
    return np.concatenate(out)


def reference_by_variety(reference: SegmentTable, x: int, total: int) -> np.ndarray:
    """Per person, the rows of a fixed budget of `total` segments over x videos.

    Videos are taken in sorted-id order and drained round-robin (every
    video's first segment, then every video's second, ...), so every
    budget has the same size and only the variety changes.
    """
    out = []
    for rows in group_by_identity(reference).values():
        videos, keep = _person_videos(reference, rows, x)
        counts = np.diff(videos.bounds)[keep]
        if counts.sum() < total:
            raise DataError(
                f"reference for {str(reference.identity_ids[rows[0]])!r} cannot fill a "
                f"budget of {total} segments from {x} videos"
            )
        slot = np.repeat(np.arange(len(keep)), counts)
        depth = np.arange(len(slot)) - np.repeat(np.cumsum(counts) - counts, counts)
        picked = np.lexsort((slot, depth))[:total]
        out.append(np.concatenate([videos.video_rows(k) for k in keep])[picked])
    return np.concatenate(out)


def _sweep_references(
    point: str,
    reference: SegmentTable,
    params: EncoderParams,
    tau: float,
    **kwargs,
) -> dict[str, ReferenceSet]:
    """build_references for one sweep point, with one warning for all its small references."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SmallReferenceWarning)
        refs = build_references(reference, params, tau, **kwargs)
    small = sum(below_nominal(ref.n_videos, len(ref)) for ref in refs.values())
    if small:
        warnings.warn(
            f"sweep {point}: {small} of {len(refs)} references are below the nominal "
            f"10-video / 100-segment regime",
            SmallReferenceWarning,
            stacklevel=3,
        )
    return refs


def sweep_scores(
    axis: str,
    values: Sequence[int],
    reference: SegmentTable,
    test: SegmentTable,
    params: EncoderParams,
    tau: float,
    statistic: str = FUSED,
    ref_total: int = 100,
) -> list[tuple[int, list[ScoreRow]]]:
    """Score rows at each point of one sweep axis, x ascending.

    Every embedding whose batch stays the same is computed once: the full
    reference's on test_length, the test videos' on ref_size and
    ref_variety.  A truncated video and a reference subset are new
    batches, so they are embedded per point.  References below the
    nominal regime give one SmallReferenceWarning per point (per sweep on
    test_length, which builds them once), not one per person.
    """
    if axis not in SWEEP_AXES:
        raise DataError(f"unknown sweep axis {axis!r}")
    if not values or any(v < 1 for v in values):
        raise DataError(f"sweep values must be integers >= 1, got {list(values)}")
    policy = DecisionPolicy(p_fa=0.5)
    refs = None
    if axis == "test_length":
        refs = _sweep_references(axis, reference, params, tau)
    videos = group_by_video(test)
    embedded = None if axis == "test_length" else embed_videos(params, test, videos)
    out = []
    for x in sorted(set(values)):
        scored = videos
        if axis == "test_length":
            scored = truncate_videos(videos, x)
            embedded = embed_videos(params, test, scored)
        elif axis == "ref_size":
            subset = reference.take(reference_by_videos(reference, x))
            refs = _sweep_references(f"{axis}={x}", subset, params, tau)
        else:
            subset = reference.take(reference_by_variety(reference, x, ref_total))
            refs = _sweep_references(f"{axis}={x}", subset, params, tau,
                                     exclude_same_video=x > 1)
        out.append((x, _score_embedded(test, scored, embedded, refs, tau, policy, statistic)))
    return out


def sweep_rows(
    axis: str,
    values: Sequence[int],
    reference: SegmentTable,
    test: SegmentTable,
    params: EncoderParams,
    tau: float,
    statistic: str = FUSED,
    ref_total: int = 100,
) -> list[dict]:
    """AUC-vs-x curve rows for one sweep axis, sorted by x then class."""
    rows = []
    for x, scored in sweep_scores(axis, values, reference, test, params, tau,
                                  statistic, ref_total):
        for cls in sorted(SWEEP_CLASSES):
            samples = class_samples(scored, cls, statistic)
            n_real = sum(1 for s in samples if s.label == REAL)
            n_fake = len(samples) - n_real
            if n_fake == 0 and cls != "all":
                continue
            try:
                value = 100.0 * auc(samples)
            except UndefinedMetricError:
                value = None
            rows.append({
                "axis": axis, "x": x, "class": cls,
                "n_real": n_real, "n_fake": n_fake, "auc": value,
            })
    return rows


def report_rows(table: Mapping[str, Mapping[str, MetricsReport]]) -> list[dict]:
    """Flatten a metrics table into report-file rows, AVG last."""
    rows = []
    order = [g for g in GROUPS if g in table] + [AVG_GROUP]
    for metric in ("auc", "accuracy", "pd_at_fa"):
        for group in order:
            stats = table[group]
            any_report = stats["fused"]
            rows.append({
                "metric": metric,
                "group": group,
                "n_real": any_report.n_real,
                "n_fake": any_report.n_fake,
                "video": getattr(stats["video"], metric),
                "audio": getattr(stats["audio"], metric),
                "av": getattr(stats["av"], metric),
                "fusion": getattr(stats["fused"], metric),
            })
    return rows
