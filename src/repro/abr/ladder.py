"""Bitrate ladders: the same video encoded at multiple quality levels.

For ABR simulation each (level, segment) cell needs its byte size and a
perceptual quality score.  ``build_ladder`` measures both with the real
codec; the dcSR-aware variant additionally records the *enhanced* quality —
what the viewer sees after the micro models run — which is what the paper's
discussion section proposes feeding into ABR decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..video import VideoClip, psnr, yuv420_to_rgb
from ..video.codec import CodecConfig, Decoder, Encoder
from ..video.segment import Segment

__all__ = ["QualityLevel", "BitrateLadder", "build_ladder"]


@dataclass
class QualityLevel:
    """One rung: a CRF setting with per-segment sizes and qualities."""

    level: int
    crf: int
    segment_bits: list[int] = field(default_factory=list)
    segment_quality: list[float] = field(default_factory=list)  # PSNR dB

    @property
    def total_bits(self) -> int:
        return sum(self.segment_bits)

    @property
    def mean_quality(self) -> float:
        return float(np.mean(self.segment_quality))


@dataclass
class BitrateLadder:
    """All rungs plus segment timing; index 0 is the *highest* quality."""

    levels: list[QualityLevel]
    segment_seconds: list[float]

    def __post_init__(self):
        if not self.levels:
            raise ValueError("ladder needs at least one level")
        n = len(self.segment_seconds)
        for level in self.levels:
            if len(level.segment_bits) != n:
                raise ValueError("level/segment shape mismatch")
        qualities = [lvl.mean_quality for lvl in self.levels]
        if any(a < b for a, b in zip(qualities[:-1], qualities[1:])):
            # levels must be ordered best-first
            raise ValueError("levels must be sorted by decreasing quality")

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def n_segments(self) -> int:
        return len(self.segment_seconds)

    def bitrate_bps(self, level: int, segment: int) -> float:
        seconds = self.segment_seconds[segment]
        return self.levels[level].segment_bits[segment] / seconds


def build_ladder(
    clip: VideoClip, segments: list[Segment], crfs: list[int],
) -> BitrateLadder:
    """Encode ``clip`` once per CRF and measure per-segment size/quality.

    ``crfs`` are sorted ascending (best quality first) to form the ladder.
    """
    if not crfs:
        raise ValueError("need at least one CRF")
    levels = []
    for i, crf in enumerate(sorted(crfs)):
        encoded = Encoder(CodecConfig(crf=crf)).encode(
            clip.frames, segments, fps=clip.fps)
        decoded = Decoder().decode_video(encoded)
        level = QualityLevel(level=i, crf=crf)
        for seg, payload in zip(segments, encoded.segments):
            level.segment_bits.append(payload.n_bytes * 8)
            # RGB PSNR — the same metric the dcSR client reports, so the
            # dcSR-aware policy can mix ladder and enhanced qualities.
            values = [psnr(yuv420_to_rgb(decoded.frames[t]), clip.frames[t])
                      for t in range(seg.start, seg.end)]
            finite = [v for v in values if np.isfinite(v)]
            level.segment_quality.append(
                float(np.mean(finite)) if finite else 60.0)
        levels.append(level)
    segment_seconds = [seg.n_frames / clip.fps for seg in segments]
    return BitrateLadder(levels=levels, segment_seconds=segment_seconds)
