"""NEMO-style adaptive anchor selection.

The full NEMO system (Yeo et al., MobiCom'20) does not enhance a fixed set
of key frames — it *selects* anchor frames per chunk so that, for a given
inference budget, the quality propagated through the codec's references is
maximised.  The paper's evaluation simplifies NEMO to "SR on I frames"; this
module implements the real anchor-selection idea on our codec so the
simplification can be quantified.

Anchors are reference frames (I and P): enhancing one improves every frame
that predicts from it.  Segments are closed GOPs, so selection runs
per segment: greedy forward selection over the segment's I/P frames,
adding whichever anchor raises the segment's mean luma PSNR most, until the
per-segment budget is spent or no candidate helps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..sr.edsr import EDSR
from ..video.codec import Decoder, EncodedSegment, EncodedVideo
from ..video.frame import YuvFrame
from ..video.quality import psnr_yuv
from ..video import rgb_to_yuv420
from .client import enhance_yuv_frame

__all__ = ["AnchorPlan", "evaluate_anchor_set", "select_anchors"]


@dataclass
class AnchorPlan:
    """Selected anchors and the quality trajectory of the greedy search."""

    anchors: set = field(default_factory=set)       # display indices
    quality_db: float = 0.0                          # final mean luma PSNR
    history: list = field(default_factory=list)      # (added, quality) steps


def _segment_quality(
    segment: EncodedSegment, width: int, height: int, model: EDSR,
    references: list[YuvFrame], anchors: set,
) -> float:
    """Mean luma PSNR of one segment decoded with ``anchors`` enhanced."""

    def hook(frame: YuvFrame, display: int, ftype: str):
        if display in anchors:
            return enhance_yuv_frame(model, frame)
        return None

    decoder = Decoder(anchor_hook=hook)
    decoded = decoder.decode_segment(segment, width, height)
    values = []
    for item in decoded:
        ref = references[item.display - segment.start]
        value = psnr_yuv(ref, item.frame)
        if np.isfinite(value):
            values.append(value)
    return float(np.mean(values)) if values else 100.0


def evaluate_anchor_set(
    encoded: EncodedVideo, model: EDSR, reference_frames: np.ndarray,
    anchors: set,
) -> float:
    """Mean luma PSNR of the whole video with ``anchors`` enhanced."""
    totals = []
    for segment in encoded.segments:
        refs = [rgb_to_yuv420(reference_frames[t])
                for t in range(segment.start, segment.start + segment.n_frames)]
        seg_anchors = {a for a in anchors
                       if segment.start <= a < segment.start + segment.n_frames}
        quality = _segment_quality(segment, encoded.width, encoded.height,
                                   model, refs, seg_anchors)
        totals.append((quality, segment.n_frames))
    weight = sum(n for _, n in totals)
    return float(sum(q * n for q, n in totals) / weight)


def select_anchors(
    encoded: EncodedVideo, model: EDSR, reference_frames: np.ndarray,
    budget_per_segment: int = 2, min_gain_db: float = 0.01,
) -> AnchorPlan:
    """Greedy per-segment anchor selection.

    For each segment, candidates are its I and P frames.  Anchors are added
    one at a time, each time picking the candidate with the largest mean-
    PSNR improvement, stopping at ``budget_per_segment`` anchors or when no
    candidate improves quality by at least ``min_gain_db``.
    """
    if budget_per_segment < 0:
        raise ValueError("budget_per_segment must be >= 0")
    plan = AnchorPlan()
    weighted = []

    for segment in encoded.segments:
        refs = [rgb_to_yuv420(reference_frames[t])
                for t in range(segment.start, segment.start + segment.n_frames)]
        candidates = [info.display for info in segment.frames
                      if info.ftype in ("I", "P")]
        chosen: set = set()
        current = _segment_quality(segment, encoded.width, encoded.height,
                                   model, refs, chosen)
        while len(chosen) < budget_per_segment:
            best_candidate, best_quality = None, current
            for candidate in candidates:
                if candidate in chosen:
                    continue
                quality = _segment_quality(
                    segment, encoded.width, encoded.height, model, refs,
                    chosen | {candidate})
                if quality > best_quality + min_gain_db:
                    best_candidate, best_quality = candidate, quality
            if best_candidate is None:
                break
            chosen.add(best_candidate)
            current = best_quality
            plan.history.append((best_candidate, best_quality))
        plan.anchors |= chosen
        weighted.append((current, segment.n_frames))

    total = sum(n for _, n in weighted)
    plan.quality_db = float(sum(q * n for q, n in weighted) / total)
    return plan
