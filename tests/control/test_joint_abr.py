"""Joint-choice plumbing through the ABR simulator, and the
tier/precision-aware ``extra_bits`` fix in :class:`DcsrAwareAbr`."""

import numpy as np
import pytest

from repro.abr import (
    AbrPolicy,
    BitrateLadder,
    DcsrAwareAbr,
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

    def __init__(self, labels, tiers=None, sizes=None, quantization=None):
        self._labels = list(labels)
        self.tiers = tiers or {}
        self._sizes = sizes or {}
        self._quantization = quantization or {}

    def label_sequence(self):
        return list(self._labels)

    def model_size_for(self, label, precision="fp32"):
        record = self._quantization.get(label, {}).get(precision)
        return record if record is not None else self._sizes[label]


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


class TestDcsrAwareExtraBits:
    def test_exactly_one_source_required(self):
        quality = np.full((2, 4), 30.0)
        with pytest.raises(ValueError):
            DcsrAwareAbr(quality)
        with pytest.raises(ValueError):
            DcsrAwareAbr(quality, model_bits_by_segment=[0.0] * 4,
                         manifest=_FakeManifest([0] * 4, sizes={0: 1000}))

    def test_manifest_charges_actual_size_at_first_segment(self):
        manifest = _FakeManifest([0, 0, 1, 0], sizes={0: 1000, 1: 2000})
        policy = DcsrAwareAbr(np.full((2, 4), 30.0), manifest=manifest,
                              enhanced_level=1)
        assert policy.model_bits_by_segment == [8000.0, 0.0, 16000.0, 0.0]
        assert policy.extra_bits(0, 1) == 8000.0
        assert policy.extra_bits(0, 0) == 0.0   # only the enhanced level

    def test_manifest_precision_shrinks_budget(self):
        manifest = _FakeManifest(
            [0, 1], sizes={0: 1000, 1: 2000},
            quantization={0: {"int8": 300}, 1: {"int8": 500}})
        policy = DcsrAwareAbr(np.full((2, 2), 30.0), manifest=manifest,
                              precision="int8")
        assert policy.model_bits_by_segment == [2400.0, 4000.0]
