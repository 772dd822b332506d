"""Core data model: modalities, manipulation flags, segments.

A segment is a short slice of one talking-face video carrying one audio
and one video feature vector.  Everything downstream (training batches,
reference sets, test clips) is a collection of these records.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exceptions import DataError


class Modality(str, Enum):
    """Feature stream tag: the two single modalities plus the joint tag.

    The joint tag is only valid where a joint similarity is defined; raw
    features exist for audio and video alone.
    """

    AUDIO = "audio"
    VIDEO = "video"
    AV = "av"


ALL_MODALITIES = (Modality.AUDIO, Modality.VIDEO, Modality.AV)

REAL = "real"
FAKE = "fake"

# The four supported fake populations, as (v, a, ai) combinations:
# video swapped with consistent audio, video swapped with a real but
# mismatched audio track, synthesized voice over untouched video, and
# both streams manipulated.
_VALID_FAKE_COMBOS = {
    (True, False, False),
    (True, False, True),
    (False, True, True),
    (True, True, True),
}

GROUPS = ("v", "v+ai", "a+ai", "v+a+ai")


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
        elif combo not in _VALID_FAKE_COMBOS:
            raise DataError(
                f"unsupported manipulation flag combination v={self.v} a={self.a} ai={self.ai}"
            )

    def group(self) -> str:
        """Group label, 'pristine' or one of GROUPS."""
        if not self.is_fake:
            return "pristine"
        parts = [name for name, on in (("v", self.v), ("a", self.a), ("ai", self.ai)) if on]
        return "+".join(parts)


PRISTINE = ManipFlags()


def flags_for_group(group: str) -> ManipFlags:
    """Inverse of ManipFlags.group for the four fake groups."""
    if group not in GROUPS:
        raise DataError(f"unknown manipulation group {group!r}; expected one of {GROUPS}")
    parts = group.split("+")
    return ManipFlags(is_fake=True, v="v" in parts, a="a" in parts, ai="ai" in parts)


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
