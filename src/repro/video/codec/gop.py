"""Group-of-pictures planning.

Builds the I/P/B schedule for a segment (Section 2 "Insights" of the paper:
I frames reference nothing, P frames reference the previous anchor, B frames
reference the surrounding anchors).  Segments are closed GOPs: every segment
starts with an I frame and never references frames outside itself, which is
what makes per-segment model download and decode possible.

``extra_i_interval`` forces additional I frames inside a segment — the
paper's "multiple I frames in a segment" setting used to sweep the number of
SR inferences per segment in Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FramePlan", "plan_segment"]


@dataclass(frozen=True)
class FramePlan:
    """One frame's coding decision.

    ``display`` is the video-level display index; ``fwd_ref``/``bwd_ref``
    are display indices of the past/future reference anchors (``None`` where
    not applicable).
    """

    display: int
    ftype: str  # "I" | "P" | "B"
    fwd_ref: int | None = None
    bwd_ref: int | None = None


def plan_segment(
    start: int, length: int, n_b_frames: int = 2,
    extra_i_interval: int | None = None,
) -> list[FramePlan]:
    """Plan a segment's frames, returned in *encode* order.

    Anchors (I/P frames) are spaced ``n_b_frames + 1`` apart with B frames
    between consecutive anchors; the segment's final frame is always an
    anchor so every B frame has a future reference.
    """
    if length < 1:
        raise ValueError("segment length must be >= 1")
    if n_b_frames < 0:
        raise ValueError("n_b_frames must be >= 0")
    if extra_i_interval is not None and extra_i_interval < 1:
        raise ValueError("extra_i_interval must be >= 1")

    spacing = n_b_frames + 1
    anchors = list(range(0, length, spacing))
    if anchors[-1] != length - 1 and length > 1:
        anchors.append(length - 1)

    plans = [FramePlan(display=start, ftype="I")]
    for prev, cur in zip(anchors[:-1], anchors[1:]):
        is_extra_i = extra_i_interval is not None and cur % extra_i_interval == 0
        if is_extra_i:
            plans.append(FramePlan(display=start + cur, ftype="I"))
        else:
            plans.append(FramePlan(display=start + cur, ftype="P",
                                   fwd_ref=start + prev))
        for b in range(prev + 1, cur):
            plans.append(FramePlan(display=start + b, ftype="B",
                                   fwd_ref=start + prev, bwd_ref=start + cur))
    return plans
