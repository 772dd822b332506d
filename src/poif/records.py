"""Core data model: similarity channels, manipulation flags, segments, scores.

A segment is a short slice of one talking-face video carrying one audio
and one video feature vector.  The pipeline, from synthesis to scoring,
holds segments as the columns of a ``SegmentTable``.  ``SegmentRecord`` is
one segment as an object: ``from_records`` and ``to_records`` convert
between the two for callers that iterate segments one by one.  Scoring
gives one row per test video, held as the columns of a ``ScoreTable``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .exceptions import ConfigError, DataError


# The three similarity channels, in the order of every (3, ...) stack, file
# column and report column: the two single modalities, then the joint
# audio-visual channel.  Raw features exist for audio and video alone.
CHANNELS = ("video", "audio", "av")

# The statistic that takes each segment's worst channel.
FUSED = "fusion"

# Every statistic a clip is judged on, in the order of a ScoreTable's rows.
STATISTICS = (*CHANNELS, FUSED)

REAL = "real"
FAKE = "fake"

# Columns of SegmentTable.flags.
FLAG_COLUMNS = ("is_fake", "v", "a", "ai")

# The four supported fake populations, each named by its set (v, a, ai)
# bits: video swapped with consistent audio, video swapped with a real but
# mismatched audio track, synthesized voice over untouched video, and both
# streams manipulated.
GROUPS = ("v", "v+ai", "a+ai", "v+a+ai")

# Each group's flag row in FLAG_COLUMNS order: is_fake, then the bits its
# "+"-joined name lists.
GROUP_FLAGS = np.array([[True] + [flag in group.split("+") for flag in FLAG_COLUMNS[1:]]
                        for group in GROUPS])

# The (v, a, ai) combinations ManipFlags accepts on a fake.
_FAKE_COMBOS = frozenset(map(tuple, GROUP_FLAGS[:, 1:].tolist()))


@dataclass(frozen=True)
class ManipFlags:
    """Manipulation labels for one segment.

    v: video stream manipulated.  a: audio stream synthesized.
    ai: audio inconsistent with the claimed identity.
    """

    is_fake: bool = False
    v: bool = False
    a: bool = False
    ai: bool = False

    def __post_init__(self):
        combo = (self.v, self.a, self.ai)
        if not self.is_fake:
            if any(combo):
                raise DataError("pristine segment cannot carry manipulation flags")
        elif combo not in _FAKE_COMBOS:
            raise DataError(
                f"unsupported manipulation flag combination v={self.v} a={self.a} ai={self.ai}"
            )


PRISTINE = ManipFlags()


def valid_flag_rows(flags: np.ndarray) -> np.ndarray:
    """Which rows of an (n, 4) flag matrix of bools or ints ManipFlags would accept:
    all zero or a GROUP_FLAGS row.  A row with an int other than 0 or 1 is refused."""
    valid = np.vstack([np.zeros(len(FLAG_COLUMNS), dtype=bool), GROUP_FLAGS])
    return (flags[:, None, :] == valid[None]).all(axis=2).any(axis=1)


def as_vector(values, name: str = "feature") -> np.ndarray:
    """Validate and return a finite 1-d float64 vector."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DataError(f"{name} vector must be 1-d, got shape {arr.shape}")
    if arr.size == 0:
        raise DataError(f"{name} vector is empty")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} vector contains non-finite entries")
    return arr


@dataclass(eq=False)
class SegmentRecord:
    """One audio-visual segment.

    (identity_id, video_id, segment_index) identifies the segment within a
    dataset.  ``blend`` records the identity-replacement fraction used when
    the video stream was manipulated (0 for pristine segments and for fakes
    that leave the video untouched).
    """

    identity_id: str
    video_id: str
    segment_index: int
    audio: np.ndarray
    video: np.ndarray
    flags: ManipFlags = PRISTINE
    blend: float = 0.0

    def __post_init__(self):
        self.audio = as_vector(self.audio, "audio feature")
        self.video = as_vector(self.video, "video feature")
        if self.segment_index < 0:
            raise DataError(f"segment_index must be non-negative, got {self.segment_index}")
        if not 0.0 <= self.blend <= 1.0:
            raise DataError(f"blend must lie in [0, 1], got {self.blend}")

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.identity_id, self.video_id, self.segment_index)


@dataclass(frozen=True, eq=False)
class SegmentTable:
    """Segments as columns, one row per segment, in file or list order.

    ``flags`` is an (n, 4) bool matrix with the FLAG_COLUMNS bits.  The ids
    are numpy string arrays: convert with ``.tolist()`` or ``str()`` before
    putting one into a message.
    """

    identity_ids: np.ndarray
    video_ids: np.ndarray
    segment_index: np.ndarray
    flags: np.ndarray
    blend: np.ndarray
    audio: np.ndarray
    video: np.ndarray

    def __len__(self) -> int:
        return len(self.segment_index)

    @classmethod
    def from_records(cls, records: Sequence[SegmentRecord]) -> "SegmentTable":
        audio_dims = {s.audio.shape[0] for s in records}
        video_dims = {s.video.shape[0] for s in records}
        if len(audio_dims) > 1 or len(video_dims) > 1:
            raise DataError(
                f"inconsistent feature dims: audio {sorted(audio_dims)}, "
                f"video {sorted(video_dims)}"
            )
        return cls(
            identity_ids=np.array([s.identity_id for s in records], dtype=str),
            video_ids=np.array([s.video_id for s in records], dtype=str),
            segment_index=np.array([s.segment_index for s in records], dtype=np.int64),
            flags=np.array([[getattr(s.flags, c) for c in FLAG_COLUMNS] for s in records],
                           dtype=bool).reshape(-1, 4),
            blend=np.array([s.blend for s in records], dtype=np.float64),
            audio=np.stack([s.audio for s in records]) if records else np.empty((0, 0)),
            video=np.stack([s.video for s in records]) if records else np.empty((0, 0)),
        )

    @classmethod
    def concat(cls, tables: Sequence["SegmentTable"]) -> "SegmentTable":
        """The rows of ``tables`` one after the other."""
        return cls(*(np.concatenate([getattr(t, f.name) for t in tables])
                     for f in fields(cls)))

    def take(self, rows) -> "SegmentTable":
        """The table restricted to ``rows`` (indices or a mask), in that order."""
        return SegmentTable(*(getattr(self, f.name)[rows] for f in fields(self)))

    def key(self, row: int) -> tuple[str, str, int]:
        return (str(self.identity_ids[row]), str(self.video_ids[row]),
                int(self.segment_index[row]))

    def to_records(self) -> list[SegmentRecord]:
        return [
            SegmentRecord(
                identity_id=identity, video_id=video_id, segment_index=index,
                audio=audio, video=video, flags=ManipFlags(*bits), blend=blend,
            )
            for identity, video_id, index, bits, blend, audio, video in zip(
                self.identity_ids.tolist(), self.video_ids.tolist(),
                self.segment_index.tolist(), self.flags.tolist(),
                self.blend.tolist(), self.audio, self.video,
            )
        ]


def statistic_row(name: str) -> int:
    """A statistic's row in a STATISTICS-ordered stack."""
    if name not in STATISTICS:
        raise ConfigError(f"unknown statistic {name!r}")
    return STATISTICS.index(name)


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """Scored test videos as columns, one row per video, in video order.

    ``flags`` is (n, 4) in FLAG_COLUMNS order and ``blend`` each video's
    largest segment blend; ``statistics`` holds the (4, n) means in
    STATISTICS order (the channels, then the fused means), ``fake`` the bool
    decisions.
    """

    video_ids: np.ndarray
    identity_ids: np.ndarray
    n_segments: np.ndarray
    flags: np.ndarray
    blend: np.ndarray
    statistics: np.ndarray
    fake: np.ndarray

    def __len__(self) -> int:
        return len(self.video_ids)

    def statistic(self, name: str) -> np.ndarray:
        """One statistic's values: a name in STATISTICS."""
        return self.statistics[statistic_row(name)]
