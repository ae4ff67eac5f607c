"""Video segmentation.

dcSR follows Netflix's shot-based encoding (Section 3.1.1): a new segment
starts at every visually noticeable change between consecutive frames, so
each segment is one shot and is represented by its leading I frame.  The
paper also evaluates a constant-length mode (Figure 8 sweeps the number of
I-frame inferences per segment), so both splitters are provided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Segment", "frame_difference", "detect_segments",
           "fixed_length_segments"]


@dataclass(frozen=True)
class Segment:
    """Half-open frame range ``[start, end)`` of one video segment."""

    index: int
    start: int
    end: int

    def __post_init__(self):
        if self.end <= self.start:
            raise ValueError(f"empty segment [{self.start}, {self.end})")

    @property
    def n_frames(self) -> int:
        return self.end - self.start


def frame_difference(frames: np.ndarray) -> np.ndarray:
    """Mean absolute luma difference between consecutive frames.

    ``frames`` is ``(T, H, W, 3)`` RGB float; returns ``(T-1,)`` differences
    in [0, 1].  Luma approximates the detector a shot-based encoder uses.
    """
    if frames.ndim != 4 or frames.shape[0] < 1:
        raise ValueError(f"expected (T, H, W, 3) frames, got {frames.shape}")
    luma = (0.299 * frames[..., 0] + 0.587 * frames[..., 1]
            + 0.114 * frames[..., 2])
    if frames.shape[0] == 1:
        return np.zeros(0, dtype=np.float64)
    return np.mean(np.abs(np.diff(luma, axis=0)), axis=(1, 2))


#: Mean absolute luma difference between frames that starts a new shot.
SHOT_THRESHOLD = 0.08
#: Frames of the shortest shot; a shorter one merges into its predecessor.
MIN_SHOT_FRAMES = 2


def detect_segments(
    frames: np.ndarray, max_length: int | None = None,
) -> list[Segment]:
    """Variable-length shot detection.

    A new segment begins where the inter-frame difference exceeds
    :data:`SHOT_THRESHOLD`.  Segments shorter than :data:`MIN_SHOT_FRAMES`
    are merged into their predecessor; segments longer than ``max_length``
    are split (a real encoder inserts periodic I frames to bound seek
    latency).
    """
    n = frames.shape[0]
    diffs = frame_difference(frames)
    cuts = [0] + [i + 1 for i, d in enumerate(diffs) if d > SHOT_THRESHOLD] + [n]

    # Merge too-short segments forward.
    merged = [cuts[0]]
    for c in cuts[1:-1]:
        if c - merged[-1] >= MIN_SHOT_FRAMES:
            merged.append(c)
    bounds = merged + [n]
    if bounds[-1] - bounds[-2] < MIN_SHOT_FRAMES and len(bounds) > 2:
        bounds.pop(-2)

    # Enforce max length by splitting over-long shots into even chunks
    # (each <= max_length), as encoders do when bounding seek latency.
    if max_length is not None:
        if max_length < MIN_SHOT_FRAMES:
            raise ValueError(f"max_length must be >= {MIN_SHOT_FRAMES}")
        split: list[int] = []
        for a, b in zip(bounds[:-1], bounds[1:]):
            length = b - a
            n_chunks = -(-length // max_length)  # ceil
            base, extra = divmod(length, n_chunks)
            pos = a
            for i in range(n_chunks):
                split.append(pos)
                pos += base + (1 if i < extra else 0)
        bounds = split + [n]

    return [Segment(index=i, start=a, end=b)
            for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))]


def fixed_length_segments(n_frames: int, length: int) -> list[Segment]:
    """Constant-length segmentation (the content-agnostic baseline)."""
    if length < 1:
        raise ValueError("segment length must be >= 1")
    if n_frames < 1:
        raise ValueError("video must have at least one frame")
    segments = []
    for i, start in enumerate(range(0, n_frames, length)):
        segments.append(Segment(index=i, start=start,
                                end=min(start + length, n_frames)))
    return segments
