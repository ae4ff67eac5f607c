"""Joint-choice plumbing through the ABR simulator."""

import pytest

from repro.abr import (
    AbrPolicy,
    BitrateLadder,
    JointChoice,
    QualityLevel,
    constant_trace,
    simulate_session,
)
from repro.control import FixedController, LadderControllerPolicy
from repro.core.manifest import ModelTierRecord
from repro.devices import get_device


def _ladder(n_segments=6):
    levels = []
    for i, (mbit, quality) in enumerate(
            [(4.0, 40.0), (2.0, 34.0), (1.0, 28.0)]):
        levels.append(QualityLevel(
            level=i, crf=20 + i * 10,
            segment_bits=[int(mbit * 1e6)] * n_segments,
            segment_quality=[quality] * n_segments))
    return BitrateLadder(levels=levels,
                         segment_seconds=[2.0] * n_segments)


class _FakeManifest:
    width = 64
    height = 48

    def __init__(self, labels, tiers=None):
        self._labels = list(labels)
        self.tiers = tiers or {}

    def label_sequence(self):
        return list(self._labels)


def _record(tier, size, gain):
    return ModelTierRecord(precision="fp32", size_bytes=size, delta_db=0.0,
                           tier=tier, n_resblocks=1, n_filters=6,
                           gain_db=gain)


class _AlwaysJoint(AbrPolicy):
    """Minimal joint policy: rung 1, fixed bonus/energy, tier on segment 0."""

    def __init__(self):
        self.feedback_log = []

    def choose_joint(self, ladder, segment, throughput_estimate_bps,
                     buffer_s):
        return JointChoice(level=1, extra_bits=100.0 if segment == 0 else 0.0,
                           quality_bonus_db=0.5, energy_j=2.0,
                           tier="dcSR-1")

    def feedback(self, energy_j, seconds):
        self.feedback_log.append((energy_j, seconds))


class TestJointSimulate:
    def test_joint_choice_drives_session(self):
        policy = _AlwaysJoint()
        result = simulate_session(_ladder(), policy, constant_trace(4e6))
        assert result.levels == [1] * 6
        assert result.tiers == ["dcSR-1"] * 6
        assert result.extra_bits == 100.0
        assert result.energy_joules == pytest.approx(12.0)
        # Every segment credits the SR bonus on top of rung quality.
        assert result.qualities == [34.5] * 6
        # Realized energy flows back once per segment.
        assert policy.feedback_log == [(2.0, 2.0)] * 6

    def test_stall_ratio_and_quality_per_joule(self):
        policy = _AlwaysJoint()
        result = simulate_session(_ladder(), policy, constant_trace(4e6))
        assert result.played_seconds == pytest.approx(12.0)
        assert result.stall_ratio == pytest.approx(
            result.rebuffer_seconds / (12.0 + result.rebuffer_seconds))
        assert result.quality_per_joule == pytest.approx(
            result.mean_quality / result.energy_joules)

    def test_stall_ratio_of_a_stalling_session(self):
        """2 s segments that take 2.5 s to download: startup at 2.5, then
        each later segment is 0.5 s late; the stall share of the viewing
        session is stall / (media + stall)."""
        from repro.abr import ThroughputAbr
        result = simulate_session(_ladder(), ThroughputAbr(),
                                  constant_trace(0.4e6))
        assert result.levels == [2] * 6
        assert result.startup_seconds == 2.5
        assert result.rebuffer_seconds == 5 * 0.5
        assert result.stall_ratio == 2.5 / (12.0 + 2.5)

    def test_rung_only_policy_reports_zero_energy(self):
        from repro.abr import ThroughputAbr
        result = simulate_session(_ladder(), ThroughputAbr(),
                                  constant_trace(4e6))
        assert result.energy_joules == 0.0
        assert result.tiers == [None] * 6
        assert result.played_seconds == pytest.approx(12.0)


class TestLadderControllerPolicy:
    def _manifest(self):
        return _FakeManifest(
            labels=[0, 0, 1, 1, 0, 1],
            tiers={label: {"dcSR-1": {"fp32": _record("dcSR-1", 6000, 1.0)}}
                   for label in (0, 1)})

    def test_model_bits_charged_once_per_label(self):
        policy = LadderControllerPolicy(
            FixedController(get_device("desktop"), tier="dcSR-1"),
            self._manifest())
        result = simulate_session(_ladder(), policy, constant_trace(8e6))
        assert result.tiers == ["dcSR-1"] * 6
        # Two labels, one checkpoint each, bits charged exactly once.
        assert result.extra_bits == pytest.approx(2 * 6000 * 8)

    def test_energy_accumulates_via_feedback(self):
        controller = FixedController(get_device("desktop"), tier="dcSR-1")
        policy = LadderControllerPolicy(controller, self._manifest())
        result = simulate_session(_ladder(), policy, constant_trace(8e6))
        assert result.energy_joules > 0.0
        assert controller.energy_spent_j == pytest.approx(
            result.energy_joules)

