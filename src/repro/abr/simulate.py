"""Playout clock and ABR session simulation.

:class:`PlayoutClock` is the repo's one startup/stall/buffer recurrence:
client, fleet trace sessions and :func:`simulate_session` all play on it.
The simulator streams a ladder over a bandwidth trace; QoE follows the
standard linear form: mean quality − rebuffer penalty − switching penalty.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ladder import BitrateLadder
from .policies import AbrPolicy
from .trace import NetworkTrace

__all__ = ["PlayoutClock", "stall_ratio", "AbrSessionResult",
           "simulate_session", "qoe_score"]

#: Seconds of video the simulated player buffers before it starts playing.
STARTUP_BUFFER_S = 2.0
#: Its look-ahead cap, so bandwidth drops later in a session genuinely hurt.
MAX_BUFFER_S = 8.0
#: Weight of the newest download in the throughput estimate (an EMA).
THROUGHPUT_EMA = 0.5


class PlayoutClock:
    """The playout recurrence.

    Segment ``i`` starts downloading (:meth:`download_start`) once
    segment ``i-1`` has downloaded, segment ``i-1-window`` is fully
    computed, and — once playing under a ``max_buffer_s`` cap — the
    buffer has room for it.  It is *ready* ``compute`` seconds (decode +
    SR + colour) after it has downloaded and segment ``i-1`` is ready.
    Playback starts once ``startup_buffer_s`` of video is ready (at the
    last ready time if the stream ends first): the startup delay.  Then
    each segment *should* be ready when the video before it has
    displayed; lateness accrues as stall seconds, and an early segment
    pushes the next deadline out by exactly its display duration.  The
    defaults are the serial session.  Pure arithmetic over simulated (or
    measured) seconds: identical inputs give bit-identical stalls.
    """

    def __init__(self, window: int = 0, startup_buffer_s: float = 0.0,
                 max_buffer_s: float | None = None):
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        if max_buffer_s is not None and max_buffer_s <= 0:
            raise ValueError(f"max_buffer_s must be > 0, got {max_buffer_s}")
        self.window = int(window)
        self.startup_buffer_s = float(startup_buffer_s)
        self.max_buffer_s = max_buffer_s
        #: Session clock: when the most recent segment became ready.
        self.position_s = 0.0
        self.startup_s = 0.0
        self.stall_s = 0.0
        #: Seconds pipelining saved against the serial session (download
        #: of upcoming segments hidden under compute of earlier ones).
        self.overlap_s = 0.0
        self._dl_done = 0.0
        self._serial_s = 0.0
        self._finish_times: list[float] = []
        self._queued_s = 0.0        # video ready before playback started
        #: When the video ready so far has displayed (``None``: not playing).
        self._next_deadline: float | None = None

    def download_start(self, display_s: float) -> float:
        """When the next segment, which displays for ``display_s``, may
        start downloading."""
        start = self._dl_done
        gated = len(self._finish_times) - 1 - self.window
        if gated >= 0 and self._finish_times[gated] > start:
            start = self._finish_times[gated]   # waits for pipeline room
        deadline = self._next_deadline
        if deadline is not None and self.max_buffer_s is not None:
            room = deadline + display_s - self.max_buffer_s
            if room > start:
                start = room                    # waits for buffer room
        return start

    def buffer_s(self, at: float) -> float:
        """Seconds of ready video not yet displayed at time ``at``."""
        if self._next_deadline is None:
            return self._queued_s
        return max(0.0, self._next_deadline - at)

    def segment_ready(self, download_s: float, display_s: float,
                      compute_s: float = 0.0) -> None:
        """Advance past one segment that took ``download_s`` to fetch
        from :meth:`download_start` and ``compute_s`` to decode, and
        displays for ``display_s``."""
        dl_done = self._dl_done = self.download_start(display_s) + download_s
        if self.position_s > dl_done:
            dl_done = self.position_s           # waited for segment i-1
        comp_done = self.position_s = dl_done + compute_s
        self._finish_times.append(comp_done)
        # Same association as comp_done, so a serial session's overlap is
        # exactly 0.0, not a rounding residue.
        self._serial_s = self._serial_s + download_s + compute_s
        self.overlap_s = self._serial_s - comp_done
        deadline = self._next_deadline
        if deadline is None:
            self.startup_s = comp_done
            self._queued_s += display_s
            if self._queued_s >= self.startup_buffer_s:
                self._next_deadline = comp_done + self._queued_s
            return
        if comp_done > deadline:
            self.stall_s += comp_done - deadline
            deadline = comp_done
        self._next_deadline = deadline + display_s


def stall_ratio(stall_s: float, media_s: float) -> float:
    """Share of a viewing session spent stalled: stall / (media + stall)."""
    session_s = media_s + stall_s
    if session_s <= 0:
        return 0.0
    return stall_s / session_s


@dataclass
class AbrSessionResult:
    """Outcome of one simulated streaming session."""

    levels: list[int] = field(default_factory=list)
    qualities: list[float] = field(default_factory=list)   # per segment, dB
    rebuffer_seconds: float = 0.0
    startup_seconds: float = 0.0
    video_bits: float = 0.0
    extra_bits: float = 0.0
    switches: int = 0
    #: Per-segment SR tier chosen (``None`` = SR off, as every segment of
    #: a rung-only policy reports).
    tiers: list[str | None] = field(default_factory=list)
    #: Total expected rail energy of the session (0 for rung-only policies).
    energy_joules: float = 0.0
    #: Total seconds of video streamed (sum of segment durations).
    played_seconds: float = 0.0

    @property
    def total_bits(self) -> float:
        return self.video_bits + self.extra_bits

    @property
    def mean_quality(self) -> float:
        return float(np.mean(self.qualities)) if self.qualities else 0.0

    @property
    def quality_per_joule(self) -> float:
        """Mean quality per joule — the frontier's efficiency axis."""
        if self.energy_joules <= 0:
            return 0.0
        return self.mean_quality / self.energy_joules

    @property
    def stall_ratio(self) -> float:
        """Share of the session spent rebuffering (:func:`stall_ratio`)."""
        return stall_ratio(self.rebuffer_seconds, self.played_seconds)


def qoe_score(result: AbrSessionResult) -> float:
    """Linear QoE (Pensieve-style): quality − 4 per rebuffered second − 0.5
    per switch."""
    return (result.mean_quality
            - 4.0 * result.rebuffer_seconds
            - 0.5 * result.switches)


def simulate_session(
    ladder: BitrateLadder, policy: AbrPolicy, trace: NetworkTrace,
    quality_table: np.ndarray | None = None,
) -> AbrSessionResult:
    """Stream every segment of ``ladder`` under ``policy`` over ``trace``,
    on a :class:`PlayoutClock` with the player's startup buffer and cap.

    ``quality_table[level][segment]`` overrides the per-segment quality
    credited to the session (used to credit dcSR's *enhanced* quality);
    defaults to the ladder's decoded quality.
    """
    result = AbrSessionResult()
    playout = PlayoutClock(startup_buffer_s=STARTUP_BUFFER_S,
                           max_buffer_s=MAX_BUFFER_S)
    estimate = trace.bandwidth_at(0.0)
    for segment, seconds in enumerate(ladder.segment_seconds):
        start = playout.download_start(seconds)
        choice = policy.choose_joint(ladder, segment, estimate,
                                     playout.buffer_s(start))
        level = choice.level
        seg_bits = ladder.levels[level].segment_bits[segment]
        download_s = trace.download_time(seg_bits + choice.extra_bits, start)
        playout.segment_ready(download_s, seconds)
        measured = (seg_bits + choice.extra_bits) / max(download_s, 1e-9)
        estimate = (1 - THROUGHPUT_EMA) * estimate + THROUGHPUT_EMA * measured

        quality = (ladder.levels[level].segment_quality[segment]
                   if quality_table is None
                   else float(quality_table[level, segment]))
        result.levels.append(level)
        result.qualities.append(quality + choice.quality_bonus_db)
        result.tiers.append(choice.tier)
        result.energy_joules += choice.energy_j
        policy.feedback(choice.energy_j, seconds)
        result.video_bits += seg_bits
        result.extra_bits += choice.extra_bits
        result.played_seconds += seconds

    result.rebuffer_seconds = playout.stall_s
    result.startup_seconds = playout.startup_s
    result.switches = sum(a != b for a, b in zip(result.levels,
                                                 result.levels[1:]))
    return result
