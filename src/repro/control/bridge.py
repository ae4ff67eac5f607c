"""Adapter between the joint controller and the ABR session simulator.

:class:`LadderControllerPolicy` is a :class:`~repro.abr.JointPolicy` that
builds a :class:`~repro.control.ControlContext` from the ladder at every
segment boundary, lets a :class:`~repro.control.JointController` pick the
(rung, tier, SR-mode) tuple, and tracks which checkpoints the session has
already downloaded so model bits are charged exactly once per
(label, tier, precision).
"""

from __future__ import annotations

from ..abr.policies import JointChoice, JointPolicy
from .context import ControlContext, tier_options
from .controller import JointController

__all__ = ["LadderControllerPolicy", "iframe_counts",
           "segment_iframe_count"]


def segment_iframe_count(encoded, segment) -> int:
    """Real SR inference count of one encoded segment.

    dcSR runs one inference per I frame, so the count is the segment's
    I-frame tally: from the per-frame metadata when present, else
    re-derived from the GOP plan (packages saved before frame info was
    persisted load with empty ``frames``).  The one counter every caller
    prices SR with — the session fetch stage (client and fleet alike) and
    :class:`LadderControllerPolicy`.
    """
    if segment.frames:
        return sum(1 for fr in segment.frames if fr.ftype == "I")
    from ..video.codec.gop import plan_segment
    codec = encoded.config
    plans = plan_segment(segment.start, segment.n_frames,
                         codec.n_b_frames, codec.extra_i_interval)
    return sum(1 for plan in plans if plan.ftype == "I")


def iframe_counts(encoded) -> list[int]:
    """:func:`segment_iframe_count` of every segment, in order."""
    return [segment_iframe_count(encoded, segment)
            for segment in encoded.segments]


class LadderControllerPolicy(JointPolicy):
    """Drive a :class:`JointController` through ``abr.simulate_session``.

    ``manifest`` supplies the per-segment model labels and the published
    tier table (duck-typed, see :func:`~repro.control.tier_options`);
    ``encoded`` (the package's encoded video) supplies real per-segment
    I-frame counts via :func:`iframe_counts`, so the controller prices SR
    energy the way the client actually spends it;
    ``n_inferences_by_segment`` overrides those counts explicitly.
    Without either, every segment is priced at one inference — the
    historical default, which undercharges segments with extra I frames.
    """

    name = "controller"

    def __init__(self, controller: JointController, manifest,
                 n_inferences_by_segment: list[int] | None = None,
                 encoded=None):
        self.controller = controller
        self.manifest = manifest
        self.labels = list(manifest.label_sequence())
        if n_inferences_by_segment is None and encoded is not None:
            n_inferences_by_segment = iframe_counts(encoded)
        self.n_inferences_by_segment = n_inferences_by_segment
        self._downloaded: set[tuple[int, str, str]] = set()

    def reset(self) -> None:
        """Forget session state for replaying another trace."""
        self.controller.reset()
        self._downloaded = set()

    def _cached_for(self, label: int) -> frozenset:
        return frozenset((tier, precision)
                         for (lab, tier, precision) in self._downloaded
                         if lab == label)

    def choose_joint(self, ladder, segment, throughput_estimate_bps,
                     buffer_s) -> JointChoice:
        label = self.labels[segment]
        options = tier_options(self.manifest, label,
                               cached=self._cached_for(label))
        n_inferences = (self.n_inferences_by_segment[segment]
                        if self.n_inferences_by_segment is not None else 1)
        ctx = ControlContext(
            segment=segment,
            segment_seconds=ladder.segment_seconds[segment],
            throughput_bps=throughput_estimate_bps,
            buffer_s=buffer_s,
            rung_bits=tuple(
                float(ladder.levels[lvl].segment_bits[segment])
                for lvl in range(ladder.n_levels)),
            rung_quality_db=tuple(
                float(ladder.levels[lvl].segment_quality[segment])
                for lvl in range(ladder.n_levels)),
            sr_options=options,
            n_inferences=n_inferences,
        )
        decision = self.controller.decide(ctx)
        if decision.sr_enabled:
            self._downloaded.add(
                (label, decision.tier, decision.precision))
        return JointChoice(
            level=decision.level,
            extra_bits=decision.option.model_bits,
            quality_bonus_db=(decision.option.gain_db
                              if decision.sr_enabled else 0.0),
            energy_j=decision.energy_j,
            tier=decision.tier,
            precision=decision.precision,
        )

    def feedback(self, energy_j: float, seconds: float) -> None:
        self.controller.feedback(energy_j, seconds)
