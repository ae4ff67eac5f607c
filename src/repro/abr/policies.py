"""ABR policies.

- :class:`ThroughputAbr` — classic rate-based selection with an EMA
  throughput estimate and a safety margin.
- :class:`BufferAbr` — BOLA-style buffer thresholds.
- :class:`DcsrAwareAbr` — the paper's discussion-section idea: the policy
  budgets for pending micro-model downloads and scores each rung by its
  *enhanced* quality, letting it ride a lower bitrate for the same
  perceived quality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ladder import BitrateLadder

__all__ = ["AbrPolicy", "ThroughputAbr", "BufferAbr", "DcsrAwareAbr",
           "JointChoice"]


class AbrPolicy:
    """Base policy: pick the next segment's rung (and SR configuration).

    ``simulate_session`` asks :meth:`choose_joint` once per segment and
    reports the segment's realized energy to :meth:`feedback`.  A
    rung-only policy implements :meth:`choose` (and :meth:`extra_bits`),
    which the default :meth:`choose_joint` wraps with SR off; a joint
    policy overrides :meth:`choose_joint`, owing the model download of
    the configuration it chose.
    """

    name = "base"

    def choose(
        self, ladder: BitrateLadder, segment: int,
        throughput_estimate_bps: float, buffer_s: float,
    ) -> int:
        raise NotImplementedError

    def extra_bits(self, segment: int, level: int) -> float:
        """Side-channel bytes the policy knows it must also fetch (models)."""
        return 0.0

    def choose_joint(
        self, ladder: BitrateLadder, segment: int,
        throughput_estimate_bps: float, buffer_s: float,
    ) -> JointChoice:
        level = self.choose(ladder, segment, throughput_estimate_bps,
                            buffer_s)
        return JointChoice(level=level,
                           extra_bits=self.extra_bits(segment, level))

    def feedback(self, energy_j: float, seconds: float) -> None:
        """Realized energy of the segment just played (default: ignored)."""


@dataclass(frozen=True)
class JointChoice:
    """One segment's joint (rung, tier, SR-mode) decision.

    ``extra_bits`` is the tier- and precision-aware model download owed for
    this choice (zero when cached or SR is off); ``quality_bonus_db`` is
    the SR uplift credited on top of the rung's decoded quality;
    ``energy_j`` is the expected rail energy of playing the segment this
    way.
    """

    level: int
    extra_bits: float = 0.0
    quality_bonus_db: float = 0.0
    energy_j: float = 0.0
    tier: str | None = None
    precision: str = "fp32"

    @property
    def sr_enabled(self) -> bool:
        return self.tier is not None


#: Share of the throughput estimate a segment's bits may use.
SAFETY = 0.85


class ThroughputAbr(AbrPolicy):
    """Highest rung whose bitrate fits under ``SAFETY * throughput``."""

    name = "throughput"

    def choose(self, ladder, segment, throughput_estimate_bps, buffer_s):
        budget = SAFETY * throughput_estimate_bps
        for level in range(ladder.n_levels):  # best quality first
            need = ladder.bitrate_bps(level, segment)
            need += self.extra_bits(segment, level) / ladder.segment_seconds[segment]
            if need <= budget:
                return level
        return ladder.n_levels - 1


class BufferAbr(AbrPolicy):
    """Buffer-threshold policy: deeper buffer -> higher quality."""

    name = "buffer"

    def __init__(self, reservoir_s: float = 4.0, cushion_s: float = 12.0):
        if reservoir_s <= 0 or cushion_s <= reservoir_s:
            raise ValueError("need 0 < reservoir < cushion")
        self.reservoir_s = float(reservoir_s)
        self.cushion_s = float(cushion_s)

    def choose(self, ladder, segment, throughput_estimate_bps, buffer_s):
        if buffer_s <= self.reservoir_s:
            return ladder.n_levels - 1
        if buffer_s >= self.cushion_s:
            return 0
        frac = (buffer_s - self.reservoir_s) / (self.cushion_s - self.reservoir_s)
        # frac = 1 -> best level (0); frac = 0 -> worst.
        return int(round((1.0 - frac) * (ladder.n_levels - 1)))


class DcsrAwareAbr(ThroughputAbr):
    """Throughput ABR that understands dcSR.

    Two changes over the base policy:

    1. **model budgeting** — segments whose micro model is not cached yet
       cost extra bits, charged through :meth:`extra_bits`;
    2. **enhanced quality targeting** — given a target quality, it picks the
       *cheapest* rung whose dcSR-enhanced quality reaches the target,
       instead of simply maxing quality under the rate budget.
    """

    name = "dcsr-aware"

    def __init__(
        self, enhanced_quality: np.ndarray,
        model_bits_by_segment: list[float],
        target_quality_db: float = 0.0,
    ):
        """``enhanced_quality[level][segment]`` is the post-SR PSNR;
        ``model_bits_by_segment[s]`` is the model download charged at
        segment ``s`` (zero when cached).  Models are only fetched — and
        only charged — when the client plays the bottom rung, the one dcSR
        prepares models for.
        """
        self.enhanced_quality = np.asarray(enhanced_quality, dtype=np.float64)
        self.model_bits_by_segment = list(model_bits_by_segment)
        self.target_quality_db = float(target_quality_db)
        self.enhanced_level = self.enhanced_quality.shape[0] - 1

    def extra_bits(self, segment: int, level: int) -> float:
        if level == self.enhanced_level:
            return self.model_bits_by_segment[segment]
        return 0.0

    def choose(self, ladder, segment, throughput_estimate_bps, buffer_s):
        budget = SAFETY * throughput_estimate_bps
        seconds = ladder.segment_seconds[segment]
        affordable = []
        for level in range(ladder.n_levels):
            need = ladder.bitrate_bps(level, segment)
            need += self.extra_bits(segment, level) / seconds
            if need <= budget:
                affordable.append(level)
        if not affordable:
            return ladder.n_levels - 1
        # Cheapest affordable rung that still hits the enhanced-quality
        # target; otherwise the best-quality affordable rung.
        meeting = [lvl for lvl in affordable
                   if self.enhanced_quality[lvl, segment] >= self.target_quality_db]
        if meeting:
            return max(meeting)  # higher index = lower bitrate
        return min(affordable)
