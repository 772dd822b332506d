"""Glue between segments on disk and the verification tables.

The scoring path groups reference segments by person, builds one
reference set each, then scores every test video against the reference of
the person it claims to be.  Videos are processed in first-occurrence
order; inside a video, segments run in segment_index order.  Results come
back as ScoreRow records, and table_metrics turns those into the
per-manipulation-group AUC / accuracy / detection tables.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Mapping, Sequence

from .encoder import EncoderParams
from .exceptions import DataError, UndefinedMetricError
from .fileio import ScoreRow
from .metrics import MetricsReport, ScoreSample, accuracy, auc, pd_at_fa
from .records import FAKE, GROUPS, REAL, SegmentRecord
from .scoring import FUSED, DecisionPolicy, ReferenceSet, build_reference, score_video

STATISTIC_KEYS = ("video", "audio", "av", "fused")
AVG_GROUP = "AVG"


def group_by_identity(segments: Sequence[SegmentRecord]) -> dict[str, list[SegmentRecord]]:
    out: dict[str, list[SegmentRecord]] = {}
    for seg in segments:
        out.setdefault(seg.identity_id, []).append(seg)
    return out


def group_by_video(segments: Sequence[SegmentRecord]) -> dict[str, list[SegmentRecord]]:
    """Key by video id, preserving first-occurrence order of the videos."""
    out: dict[str, list[SegmentRecord]] = {}
    for seg in segments:
        out.setdefault(seg.video_id, []).append(seg)
    for vid, segs in out.items():
        segs.sort(key=lambda s: s.segment_index)
        owners = {s.identity_id for s in segs}
        if len(owners) > 1:
            raise DataError(f"video {vid!r} claims multiple identities: {sorted(owners)}")
        flags = {s.flags for s in segs}
        if len(flags) > 1:
            raise DataError(f"video {vid!r} mixes manipulation labels")
    return out


def build_references(
    reference_segments: Sequence[SegmentRecord],
    params: EncoderParams,
    tau: float,
    **kwargs,
) -> dict[str, ReferenceSet]:
    if not reference_segments:
        raise DataError("empty reference set")
    return {
        poi: build_reference(segs, params, tau, **kwargs)
        for poi, segs in group_by_identity(reference_segments).items()
    }


def score_segments(
    reference_segments: Sequence[SegmentRecord],
    test_segments: Sequence[SegmentRecord],
    params: EncoderParams,
    tau: float,
    policy: DecisionPolicy,
    statistic: str = FUSED,
    workers: int = 1,
    references: Mapping[str, ReferenceSet] | None = None,
) -> list[ScoreRow]:
    """Score every test video against its claimed person's reference."""
    if references is None:
        references = build_references(reference_segments, params, tau)
    videos = group_by_video(test_segments)
    missing = sorted({segs[0].identity_id for segs in videos.values()} - set(references))
    if missing:
        raise DataError(f"no reference material for: {', '.join(missing)}")

    def one(item: tuple[str, list[SegmentRecord]]) -> ScoreRow:
        vid, segs = item
        ref = references[segs[0].identity_id]
        verdict = score_video(segs, ref, params, tau, policy, statistic=statistic)
        norm = verdict.normalized
        return ScoreRow(
            video_id=vid,
            identity_id=segs[0].identity_id,
            n_segments=len(segs),
            flags=segs[0].flags,
            blend=max(s.blend for s in segs),
            norm_video=norm["video"],
            norm_audio=norm["audio"],
            norm_av=norm["av"],
            fused=verdict.fused,
            decision=verdict.decision,
        )

    items = list(videos.items())
    if workers <= 1:
        return [one(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, items))


def rows_to_samples(
    rows: Sequence[ScoreRow], group: str, statistic: str
) -> list[ScoreSample]:
    """Reals plus the fakes of one manipulation group, as labeled scores."""
    samples = []
    for r in rows:
        if not r.flags.is_fake:
            samples.append(ScoreSample(r.statistic(statistic), REAL, group))
        elif r.flags.group() == group:
            samples.append(ScoreSample(r.statistic(statistic), FAKE, group))
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


def truncate_videos(test_segments: Sequence[SegmentRecord], x: int) -> list[SegmentRecord]:
    """Keep each video's first x segments (in segment_index order)."""
    out = []
    for segs in group_by_video(test_segments).values():
        out.extend(segs[:x])
    return out


def reference_by_videos(reference_segments: Sequence[SegmentRecord], x: int) -> list[SegmentRecord]:
    """Per person, keep all segments of the first x videos (sorted by id)."""
    out = []
    for segs in group_by_identity(reference_segments).values():
        videos = group_by_video(segs)
        keep = sorted(videos)[:x]
        if len(keep) < x:
            raise DataError(
                f"reference for {segs[0].identity_id!r} has {len(keep)} videos, need {x}"
            )
        for vid in keep:
            out.extend(videos[vid])
    return out


def reference_by_variety(
    reference_segments: Sequence[SegmentRecord], x: int, total: int
) -> list[SegmentRecord]:
    """Per person, spread a fixed budget of `total` segments over x videos.

    Videos are taken in sorted-id order and drained round-robin, so every
    budget has the same size and only the variety changes.
    """
    out = []
    for segs in group_by_identity(reference_segments).values():
        videos = group_by_video(segs)
        keep = sorted(videos)[:x]
        if len(keep) < x:
            raise DataError(
                f"reference for {segs[0].identity_id!r} has {len(keep)} videos, need {x}"
            )
        picked: list[SegmentRecord] = []
        depth = 0
        while len(picked) < total:
            advanced = False
            for vid in keep:
                if len(picked) >= total:
                    break
                if depth < len(videos[vid]):
                    picked.append(videos[vid][depth])
                    advanced = True
            if not advanced:
                raise DataError(
                    f"reference for {segs[0].identity_id!r} cannot fill a budget of "
                    f"{total} segments from {x} videos"
                )
            depth += 1
        out.extend(picked)
    return out


def sweep_rows(
    axis: str,
    values: Sequence[int],
    reference_segments: Sequence[SegmentRecord],
    test_segments: Sequence[SegmentRecord],
    params: EncoderParams,
    tau: float,
    statistic: str = FUSED,
    ref_total: int = 100,
    workers: int = 1,
) -> list[dict]:
    """AUC-vs-x curve rows for one sweep axis, sorted by x then class."""
    if axis not in SWEEP_AXES:
        raise DataError(f"unknown sweep axis {axis!r}")
    if not values or any(v < 1 for v in values):
        raise DataError(f"sweep values must be integers >= 1, got {list(values)}")
    policy = DecisionPolicy(p_fa=0.5)
    rows = []
    base_refs = build_references(reference_segments, params, tau) \
        if axis == "test_length" else None
    for x in sorted(set(values)):
        if axis == "test_length":
            scored = score_segments(
                reference_segments, truncate_videos(test_segments, x),
                params, tau, policy, statistic=statistic, workers=workers,
                references=base_refs,
            )
        else:
            if axis == "ref_size":
                subset = reference_by_videos(reference_segments, x)
                refs = build_references(subset, params, tau)
            else:
                subset = reference_by_variety(reference_segments, x, ref_total)
                refs = build_references(subset, params, tau, exclude_same_video=x > 1)
            scored = score_segments(
                subset, test_segments, params, tau, policy,
                statistic=statistic, workers=workers, references=refs,
            )
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
