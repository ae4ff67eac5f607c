"""The ABR session simulator as it was before it played on the session's
playout clock: its own wait / drain / stall / startup recurrence over an
in-place ``buffer_s``.

This is ``repro.abr.simulate.simulate_session`` and its result type,
verbatim from the commit before the merge, with one edit: the policy is
asked through ``choose_joint`` once per segment (the rung-only
``choose`` / ``extra_bits`` pair is now that call's default), so every
session takes what used to be the joint branch.  The result also records
what the policy was shown and what it chose, so a test can replay those
choices; the recurrence itself is untouched.  Its rebuffer, startup,
energy and bit totals define what ``simulate_session`` must still
produce; ``test_playout_reference.py`` holds it to that.  Not a second
implementation to keep in step: it never changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ReferenceSessionResult:
    """Outcome of one simulated streaming session."""

    levels: list[int] = field(default_factory=list)
    qualities: list[float] = field(default_factory=list)   # per segment, dB
    rebuffer_seconds: float = 0.0
    startup_seconds: float = 0.0
    video_bits: float = 0.0
    extra_bits: float = 0.0
    switches: int = 0
    tiers: list[str | None] = field(default_factory=list)
    energy_joules: float = 0.0
    played_seconds: float = 0.0
    #: What the policy was told before each segment: ``(estimate, buffer)``.
    seen: list[tuple[float, float]] = field(default_factory=list)
    #: The policy's answer for each segment.
    choices: list = field(default_factory=list)


def reference_simulate_session(
    ladder, policy, trace,
    startup_buffer_s: float = 2.0, max_buffer_s: float = 8.0,
    throughput_ema: float = 0.5,
    quality_table: np.ndarray | None = None,
) -> ReferenceSessionResult:
    if not 0 < throughput_ema <= 1:
        raise ValueError("throughput_ema must be in (0, 1]")
    if max_buffer_s <= 0:
        raise ValueError("max_buffer_s must be positive")
    result = ReferenceSessionResult()
    clock = 0.0          # wall time
    buffer_s = 0.0       # seconds of video buffered
    estimate = trace.bandwidth_at(0.0)
    playing = False
    prev_level: int | None = None

    for segment in range(ladder.n_segments):
        if playing and buffer_s + ladder.segment_seconds[segment] > max_buffer_s:
            # Buffer full: idle until there is room for the next segment.
            # Playback can only drain what is actually buffered; a segment
            # longer than the buffer cap empties the buffer mid-wait and
            # the remainder of the wait is a stall, not negative buffer.
            wait = buffer_s + ladder.segment_seconds[segment] - max_buffer_s
            drained = min(wait, buffer_s)
            result.rebuffer_seconds += wait - drained
            clock += wait
            buffer_s -= drained
        result.seen.append((estimate, buffer_s))
        joint = policy.choose_joint(ladder, segment, estimate, buffer_s)
        result.choices.append(joint)
        level = joint.level
        extra = joint.extra_bits
        seg_bits = ladder.levels[level].segment_bits[segment]
        dl_seconds = trace.download_time(seg_bits + extra, clock)

        if playing:
            # Buffer drains while downloading.
            drained = min(buffer_s, dl_seconds)
            stall = dl_seconds - drained
            result.rebuffer_seconds += max(0.0, stall)
            buffer_s = max(0.0, buffer_s - dl_seconds)
        clock += dl_seconds
        buffer_s += ladder.segment_seconds[segment]

        if not playing and (buffer_s >= startup_buffer_s
                            or segment == ladder.n_segments - 1):
            playing = True
            result.startup_seconds = clock

        measured = (seg_bits + extra) / max(dl_seconds, 1e-9)
        estimate = (1 - throughput_ema) * estimate + throughput_ema * measured

        if prev_level is not None and level != prev_level:
            result.switches += 1
        prev_level = level
        result.levels.append(level)
        if quality_table is not None:
            quality = float(quality_table[level, segment])
        else:
            quality = ladder.levels[level].segment_quality[segment]
        quality += joint.quality_bonus_db
        result.tiers.append(joint.tier)
        result.energy_joules += joint.energy_j
        policy.feedback(joint.energy_j, ladder.segment_seconds[segment])
        result.qualities.append(quality)
        result.video_bits += seg_bits
        result.extra_bits += extra
        result.played_seconds += ladder.segment_seconds[segment]

    return result
