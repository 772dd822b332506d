"""Glue between segment tables and the verification tables.

The scoring path checks both tables, then embeds each once, builds one
reference set per person, matches each person's test rows against it
once, scores each person's videos of one length as one stack, and judges
the whole table in one comparison against the threshold.
``build_references`` builds the reference sets for ``score_segments`` and
for every sweep point alike, and names the references below the nominal
10-video / 100-segment regime in one SmallReferenceWarning per call.
Videos are processed in first-occurrence order; inside a video, segments
run in segment_index order.  Results come back as a ScoreTable, one row per video, and
table_metrics turns its columns into the per-manipulation-group AUC /
accuracy / detection tables.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .encoder import EncoderParams, encode_batch
from .exceptions import DataError, UndefinedMetricError
from .metrics import MetricsReport, accuracy, auc, pd_at_fa
from .records import (
    CHANNELS, FLAG_COLUMNS, FUSED, GROUP_FLAGS, GROUPS, STATISTICS, ScoreTable, SegmentTable,
    statistic_row,
)
from .scoring import (
    ReferenceSet, SmallReferenceWarning, below_nominal, best_matches, build_reference,
    check_reference, quantile_threshold, score_video,
)

AVG_GROUP = "AVG"
# The threshold at even odds: quantile_threshold(0.5) is exactly 0.0.
EVEN_ODDS = 0.0


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


def group_by_identity(table: SegmentTable, rows: np.ndarray | None = None) -> dict:
    """Rows (default: all) per identity, identities in first-occurrence order.

    Each identity's rows keep their order in ``rows``.
    """
    rows = np.arange(len(table)) if rows is None else rows
    codes, ids = _first_occurrence_codes(table.identity_ids[rows])
    return {poi: rows[at] for poi, at in zip(ids, _split_by(codes))}


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


def check_references(
    reference: SegmentTable,
    rows: np.ndarray | None = None,
    *,
    exclude_same_video: bool = True,
) -> dict[str, tuple[np.ndarray, tuple[int, np.ndarray]]]:
    """Every person's rows (default: all) of a reference table, with their
    ``check_reference`` result: the refusals that need no embedding."""
    return {poi: (mine, check_reference(reference.take(mine),
                                        exclude_same_video=exclude_same_video))
            for poi, mine in group_by_identity(reference, rows).items()}


def build_references(
    reference: SegmentTable,
    embedded: tuple[np.ndarray, np.ndarray],
    tau: float,
    people: Mapping[str, tuple[np.ndarray, tuple[int, np.ndarray]]],
    *,
    point: str = "score",
) -> dict[str, ReferenceSet]:
    """Every person's reference set from their checked rows of a reference table.

    ``embedded`` holds the (audio, video) embeddings of all the table's
    rows (``encode_batch``), and ``people`` the ``check_references`` of
    the rows to build from, which callers take before embedding.
    References below the nominal regime get one SmallReferenceWarning per
    call, led by ``point``, counting and naming them.
    """
    refs = {
        poi: build_reference(reference.take(mine), tuple(x[mine] for x in embedded), tau,
                             checked)
        for poi, (mine, checked) in people.items()
    }
    small = [poi for poi, ref in refs.items() if below_nominal(ref.n_videos, len(ref))]
    if small:
        warnings.warn(
            f"{point}: {len(small)} of {len(refs)} references are below the nominal "
            f"10-video / 100-segment regime: {', '.join(small)}",
            SmallReferenceWarning,
            stacklevel=2,
        )
    return refs


def _require_material(claimed, available) -> None:
    missing = sorted(set(claimed) - set(available))
    if missing:
        raise DataError(f"no reference material for: {', '.join(missing)}")


def _claimed(reference: SegmentTable, test: SegmentTable) -> SegmentTable:
    """The reference rows of the persons that the test table claims.

    Only they are calibrated, so no one else's reference can fail a run.  A
    claimed person keeps their bits, because every row is embedded alone.
    """
    for name, table in (("reference", reference), ("test", test)):
        if not len(table):
            raise DataError(f"empty {name} set")
    claimed, owners = set(test.identity_ids.tolist()), reference.identity_ids.tolist()
    _require_material(claimed, owners)
    return reference.take(np.array([poi in claimed for poi in owners]))


def _match_rows(table, embedded, references, tau) -> np.ndarray:
    """Each row's best matches against its claimed person's reference: (3, table rows).

    A person's rows are matched in one best_matches call.
    """
    people = group_by_identity(table)
    _require_material(people, references)
    raw = np.empty((len(CHANNELS), len(table)))
    for poi, rows in people.items():
        ref = references[poi]
        raw[:, rows] = best_matches(embedded[0][rows], embedded[1][rows], ref.audio,
                                    ref.video, tau)
    return raw


def _judge(table, videos, raw, references, threshold, statistic) -> ScoreTable:
    """The score table in video order from the rows' raw indices (``_match_rows``).

    Each person's videos of one length L are scored as one (videos, L)
    stack; then every video whose statistic falls below the threshold is
    judged fake, in one comparison over the table.
    """
    bounds = videos.bounds
    first = videos.rows[bounds[:-1]]
    codes, owners = _first_occurrence_codes(table.identity_ids[first])
    counts = np.diff(bounds)
    statistics = np.empty((len(STATISTICS), len(videos)))
    for poi, ks in zip(owners, _split_by(codes)):
        ref = references[poi]
        lengths, by_length = np.unique(counts[ks], return_inverse=True)
        for length, group in zip(lengths.tolist(), _split_by(by_length)):
            k = ks[group]
            at = videos.rows[bounds[k, None] + np.arange(length)]
            statistics[:-1, k], statistics[-1, k] = score_video(np.take(raw, at, axis=1), ref)
    return ScoreTable(
        video_ids=np.array(videos.ids, dtype=str), identity_ids=table.identity_ids[first],
        n_segments=counts, flags=table.flags[first],
        blend=np.maximum.reduceat(table.blend[videos.rows], bounds[:-1]),
        statistics=statistics, fake=statistics[statistic_row(statistic)] < threshold)


def score_segments(
    reference: SegmentTable,
    test: SegmentTable,
    params: EncoderParams,
    tau: float,
    p_fa: float,
    statistic: str = FUSED,
    references: Mapping[str, ReferenceSet] | None = None,
) -> ScoreTable:
    """Score every test video against its claimed person's reference.

    A video is judged fake when its statistic falls below the
    standard-normal quantile at the accepted false-alarm rate ``p_fa``.
    The test videos, then the references, are checked before either table
    is embedded.
    """
    statistic_row(statistic)
    threshold = quantile_threshold(p_fa)
    videos = group_by_video(test)
    if references is None:
        claimed = _claimed(reference, test)
        people = check_references(claimed)
        embedded = encode_batch(params, claimed.audio, claimed.video)
        references = build_references(claimed, embedded, tau, people)
    raw = _match_rows(test, encode_batch(params, test.audio, test.video), references, tau)
    return _judge(test, videos, raw, references, threshold, statistic)


def _guarded(fn) -> float | None:
    try:
        return 100.0 * fn()
    except UndefinedMetricError:
        return None


def _mean_defined(values: Sequence[float | None]) -> float | None:
    defined = [v for v in values if v is not None]
    return sum(defined) / len(defined) if defined else None


def table_metrics(
    scores: ScoreTable, p_fa: float = 0.1
) -> dict[str, dict[str, MetricsReport]]:
    """Per-group metrics for each statistic, plus the cross-group average.

    Values are percentages.  Each group's fakes are compared against all
    real test videos; a single-class group leaves its rank metrics
    undefined rather than failing.  The AVG entry macro-averages over the
    groups where each metric is defined.  Accuracy uses the even-odds
    threshold (``EVEN_ODDS``, 0 on the normalized scale).
    """
    fake = scores.flags[:, 0]
    members = {}
    for group, flags in zip(GROUPS, GROUP_FLAGS):
        member = (scores.flags == flags).all(axis=1)
        if member.any():
            members[group] = member
    if not members:
        raise DataError("no fake videos in the score table")
    table: dict[str, dict[str, MetricsReport]] = {}
    for group, member in members.items():
        keep = ~fake | member
        is_real = ~fake[keep]
        n_real = int(is_real.sum())
        table[group] = {}
        for stat in STATISTICS:
            values = scores.statistic(stat)[keep]
            table[group][stat] = MetricsReport(
                auc=_guarded(lambda: auc(values, is_real)),
                accuracy=_guarded(lambda: accuracy(values, is_real, EVEN_ODDS)),
                pd_at_fa=_guarded(lambda: pd_at_fa(values, is_real, fa=p_fa)),
                n_real=n_real,
                n_fake=len(is_real) - n_real,
            )
    table[AVG_GROUP] = {
        stat: MetricsReport(
            auc=_mean_defined([table[g][stat].auc for g in members]),
            accuracy=_mean_defined([table[g][stat].accuracy for g in members]),
            pd_at_fa=_mean_defined([table[g][stat].pd_at_fa for g in members]),
            n_real=sum(table[g][stat].n_real for g in members),
            n_fake=sum(table[g][stat].n_fake for g in members),
        )
        for stat in STATISTICS
    }
    return table


# -- sweep axes ---------------------------------------------------------

SWEEP_AXES = ("test_length", "ref_size", "ref_variety")
SWEEP_CLASSES = ("all", "fr", "fs")


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


def sweep_scores(
    axis: str,
    values: Sequence[int],
    reference: SegmentTable,
    test: SegmentTable,
    params: EncoderParams,
    tau: float,
    statistic: str = FUSED,
    ref_total: int = 100,
) -> list[tuple[int, ScoreTable]]:
    """The score table at each point of one sweep axis, x ascending.

    Both tables are embedded once per sweep, after the test videos and
    every point's reference rows are selected and checked.  On test_length
    the references are built and the test rows matched once, and each point
    judges every video's first x segments.  On ref_size and ref_variety a
    point's references are row selections of the one reference
    embedding; they are calibrated and matched per point, because
    matches against a subset of reference rows move bits, and a one-video
    point on either axis is calibrated leaving out only the segment
    itself.  References below the nominal regime give one
    SmallReferenceWarning per point (per sweep on test_length).  Videos
    are judged at even odds; the sweep rows read only the statistics.
    """
    statistic_row(statistic)
    if axis not in SWEEP_AXES:
        raise DataError(f"unknown sweep axis {axis!r}")
    if not values or any(v < 1 for v in values):
        raise DataError(f"sweep values must be integers >= 1, got {list(values)}")
    videos = group_by_video(test)
    reference = _claimed(reference, test)
    xs = sorted(set(values))
    if axis == "test_length":
        people = check_references(reference)
    else:
        select = reference_by_videos if axis == "ref_size" else (
            lambda table, x: reference_by_variety(table, x, ref_total))
        points = {x: check_references(reference, select(reference, x), exclude_same_video=x > 1)
                  for x in xs}
    ref_embedded = encode_batch(params, reference.audio, reference.video)
    embedded = encode_batch(params, test.audio, test.video)
    if axis == "test_length":
        refs = build_references(reference, ref_embedded, tau, people, point=f"sweep {axis}")
        raw = _match_rows(test, embedded, refs, tau)
    out = []
    for x in xs:
        scored = videos
        if axis == "test_length":
            scored = truncate_videos(videos, x)
        else:
            refs = build_references(reference, ref_embedded, tau, points[x],
                                    point=f"sweep {axis}={x}")
            raw = _match_rows(test, embedded, refs, tau)
        out.append((x, _judge(test, scored, raw, refs, EVEN_ODDS, statistic)))
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
    """AUC-vs-x curve rows for one sweep axis, sorted by x then class.

    Each class compares all real videos with its fakes: every fake (all),
    or the manipulated videos with a partial (fr, blend below 1) or a full
    (fs, blend 1) identity swap.
    """
    rows = []
    for x, scored in sweep_scores(axis, values, reference, test, params, tau,
                                  statistic, ref_total):
        scores = scored.statistic(statistic)
        fake = scored.flags[:, 0]
        swapped = fake & scored.flags[:, FLAG_COLUMNS.index("v")]
        classes = {"all": fake, "fr": swapped & (scored.blend < 1.0),
                   "fs": swapped & (scored.blend == 1.0)}
        for cls in sorted(SWEEP_CLASSES):
            keep = ~fake | classes[cls]
            is_real = ~fake[keep]
            n_fake = int(classes[cls].sum())
            if n_fake == 0 and cls != "all":
                continue
            rows.append({
                "axis": axis, "x": x, "class": cls,
                "n_real": len(is_real) - n_fake, "n_fake": n_fake,
                "auc": _guarded(lambda: auc(scores[keep], is_real)),
            })
    return rows


def report_rows(table: Mapping[str, Mapping[str, MetricsReport]]) -> list[dict]:
    """Flatten a metrics table into report-file rows, AVG last."""
    rows = []
    order = [g for g in GROUPS if g in table] + [AVG_GROUP]
    for metric in ("auc", "accuracy", "pd_at_fa"):
        for group in order:
            stats = table[group]
            rows.append({
                "metric": metric,
                "group": group,
                "n_real": stats[FUSED].n_real,
                "n_fake": stats[FUSED].n_fake,
                **{stat: getattr(stats[stat], metric) for stat in STATISTICS},
            })
    return rows
