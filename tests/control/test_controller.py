"""Unit tests for the joint (rung, tier, SR-mode) control plane.

Everything here runs on synthetic contexts and hand-built tier tables —
no package build, no training — so the whole module stays in the tier-1
fast gate.
"""

import pytest

from repro.control import (
    CONTROLLER_NAMES,
    SR_OFF,
    ControlContext,
    FixedController,
    GreedyKnapsackController,
    JointController,
    SrOption,
    build_controller,
    segment_energy,
    tier_options,
)
from repro.core.manifest import ModelTierRecord
from repro.devices import get_device

JETSON = get_device("jetson")
LAPTOP = get_device("laptop")


def ctx(throughput_bps=8e6, buffer_s=10.0, options=(SR_OFF,), segment=1,
        rung_bits=(4e6, 2e6, 1e6), rung_quality_db=(40.0, 36.0, 32.0),
        n_inferences=2, segment_seconds=2.0):
    return ControlContext(
        segment=segment, segment_seconds=segment_seconds,
        throughput_bps=throughput_bps, buffer_s=buffer_s,
        rung_bits=rung_bits, rung_quality_db=rung_quality_db,
        sr_options=tuple(options), n_inferences=n_inferences)


def sr_option(tier="dcSR-2", precision="fp32", gain_db=1.5,
              model_bits=8e4, flops=2e8):
    return SrOption(tier=tier, precision=precision, gain_db=gain_db,
                    model_bits=model_bits, flops_per_inference=flops)


class TestValidation:
    def test_negative_model_bits_rejected(self):
        with pytest.raises(ValueError):
            SrOption(tier="t", model_bits=-1.0)

    def test_negative_flops_rejected(self):
        with pytest.raises(ValueError):
            SrOption(tier="t", flops_per_inference=-1.0)

    def test_zero_segment_seconds_rejected(self):
        with pytest.raises(ValueError):
            ctx(segment_seconds=0.0)

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError):
            ctx(rung_bits=(), rung_quality_db=())

    def test_misaligned_rungs_rejected(self):
        with pytest.raises(ValueError):
            ctx(rung_bits=(1e6,), rung_quality_db=(30.0, 20.0))

    def test_nonpositive_power_budget_rejected(self):
        with pytest.raises(ValueError):
            JointController(JETSON, power_budget_w=0.0)

    def test_negative_feedback_rejected(self):
        controller = JointController(JETSON)
        with pytest.raises(ValueError):
            controller.feedback(-1.0, 2.0)

    def test_bad_safety_rejected(self):
        with pytest.raises(ValueError):
            GreedyKnapsackController(JETSON, safety=0.0)
        with pytest.raises(ValueError):
            FixedController(JETSON, safety=1.5)


class TestSegmentEnergy:
    def test_zero_length_segment_raises(self):
        with pytest.raises(ValueError):
            segment_energy(JETSON, 0.0)

    def test_negative_inferences_raise(self):
        with pytest.raises(ValueError):
            segment_energy(JETSON, 2.0, 1e8, -1)

    def test_off_energy_is_baseline(self):
        e = segment_energy(JETSON, 2.0)
        assert e.energy_j == pytest.approx(
            (JETSON.power_idle_w + JETSON.power_decode_w) * 2.0)
        assert e.sr_j == 0.0

    def test_sr_adds_energy(self):
        off = segment_energy(JETSON, 2.0)
        on = segment_energy(JETSON, 2.0, 2e8, 2)
        assert on.energy_j > off.energy_j
        assert on.sr_j > 0.0

    def test_deterministic(self):
        a = segment_energy(LAPTOP, 2.0, 3e8, 4)
        b = segment_energy(LAPTOP, 2.0, 3e8, 4)
        assert a.energy_j == b.energy_j


class TestGreedy:
    def test_unconstrained_takes_best_rung_sr_off(self):
        decision = GreedyKnapsackController(JETSON).decide(ctx())
        assert decision.level == 0 and not decision.sr_enabled

    def test_positive_gain_turns_sr_on(self):
        option = sr_option(gain_db=2.0)
        decision = GreedyKnapsackController(JETSON).decide(
            ctx(options=(SR_OFF, option)))
        assert decision.sr_enabled and decision.tier == "dcSR-2"
        assert decision.quality_db == pytest.approx(42.0)

    def test_negative_gain_keeps_sr_off(self):
        option = sr_option(gain_db=-0.5)
        decision = GreedyKnapsackController(JETSON).decide(
            ctx(options=(SR_OFF, option)))
        assert not decision.sr_enabled

    def test_bandwidth_budget_excludes_big_models(self):
        # 1.2 Mbit/s * 0.85 * 2 s barely fits the 2 Mbit rung; the model
        # bits push the (rung 1, SR) pair over budget, so SR rides the
        # cheapest rung instead.
        option = sr_option(gain_db=2.0, model_bits=5e5)
        decision = GreedyKnapsackController(JETSON).decide(
            ctx(throughput_bps=1.2e6, options=(SR_OFF, option)))
        assert decision.download_bits <= 0.85 * 1.2e6 * 2.0

    def test_power_budget_excludes_sr(self):
        # Budget just above the idle+decode floor: any SR joules break it.
        floor_w = JETSON.power_idle_w + JETSON.power_decode_w
        controller = GreedyKnapsackController(
            JETSON, power_budget_w=floor_w + 0.01)
        decision = controller.decide(
            ctx(options=(SR_OFF, sr_option(gain_db=3.0, flops=8e11))))
        assert not decision.sr_enabled

    def test_panic_buffer_forces_worst_rung_sr_off(self):
        decision = GreedyKnapsackController(JETSON).decide(
            ctx(buffer_s=0.5, options=(SR_OFF, sr_option(gain_db=3.0))))
        assert decision.level == 2 and not decision.sr_enabled

    def test_first_segment_never_panics(self):
        decision = GreedyKnapsackController(JETSON).decide(
            ctx(segment=0, buffer_s=0.0))
        assert decision.level == 0

    def test_nothing_affordable_falls_back_to_worst_rung(self):
        decision = GreedyKnapsackController(JETSON).decide(
            ctx(throughput_bps=1e3))
        assert decision.level == 2 and not decision.sr_enabled

    def test_densest_upgrade_wins(self):
        cheap = sr_option(tier="dcSR-1", gain_db=1.0, flops=1e8)
        dear = sr_option(tier="dcSR-3", gain_db=1.2, flops=8e11)
        decision = GreedyKnapsackController(JETSON).decide(
            ctx(options=(SR_OFF, cheap, dear)))
        assert decision.tier == "dcSR-1"     # ~same gain, far fewer joules

    def test_feedback_tracks_mean_power(self):
        controller = GreedyKnapsackController(JETSON)
        controller.feedback(10.0, 2.0)
        controller.feedback(6.0, 2.0)
        assert controller.mean_power_w == pytest.approx(4.0)
        controller.reset()
        assert controller.mean_power_w == 0.0 and not controller.decisions


class TestFixed:
    def test_off_matches_throughput_abr(self):
        decision = FixedController(JETSON).decide(ctx(throughput_bps=1.5e6))
        assert decision.level == 1 and not decision.sr_enabled

    def test_pinned_tier_always_on(self):
        option = sr_option(gain_db=-2.0)      # even a harmful tier stays on
        decision = FixedController(JETSON, tier="dcSR-2").decide(
            ctx(options=(SR_OFF, option)))
        assert decision.sr_enabled
        assert decision.quality_db == pytest.approx(38.0)

    def test_unpublished_tier_falls_back_to_off(self):
        decision = FixedController(JETSON, tier="dcSR-9").decide(
            ctx(options=(SR_OFF, sr_option())))
        assert not decision.sr_enabled


class TestFactory:
    def test_names(self):
        assert CONTROLLER_NAMES == ("greedy", "fixed", "off")

    def test_build(self):
        assert isinstance(build_controller("greedy", JETSON),
                          GreedyKnapsackController)
        fixed = build_controller("fixed", JETSON, tier="dcSR-1")
        assert isinstance(fixed, FixedController) and fixed.tier == "dcSR-1"
        assert build_controller("off", JETSON) is None
        for unknown in ("mpc", "none"):     # one spelling of "off"
            with pytest.raises(ValueError):
                build_controller(unknown, JETSON)


class _FakeManifest:
    """Duck-typed manifest: just the attributes tier_options reads."""

    width = 64
    height = 48

    def __init__(self, tiers):
        self.tiers = tiers


def _record(tier, precision, size, gain=1.0, delta=0.0):
    return ModelTierRecord(precision=precision, size_bytes=size,
                           delta_db=delta, tier=tier, n_resblocks=1,
                           n_filters=6, gain_db=gain)


class TestTierOptions:
    def _manifest(self):
        return _FakeManifest({0: {
            "dcSR-2": {"fp32": _record("dcSR-2", "fp32", 15000),
                       "int8": _record("dcSR-2", "int8", 5000, delta=0.1)},
            "dcSR-1": {"fp32": _record("dcSR-1", "fp32", 6000)},
        }})

    def test_off_first_then_ascending_size(self):
        options = tier_options(self._manifest(), 0)
        assert options[0] is SR_OFF
        assert [(o.tier, o.precision) for o in options[1:]] == [
            ("dcSR-1", "fp32"), ("dcSR-2", "fp32"), ("dcSR-2", "int8")]

    def test_bits_and_net_gain(self):
        options = tier_options(self._manifest(), 0)
        by_key = {(o.tier, o.precision): o for o in options[1:]}
        assert by_key[("dcSR-1", "fp32")].model_bits == 6000 * 8
        # int8's gain is net of its quantization delta.
        assert by_key[("dcSR-2", "int8")].gain_db == pytest.approx(0.9)

    def test_cached_checkpoints_owe_nothing(self):
        options = tier_options(self._manifest(), 0,
                               cached={("dcSR-2", "int8")})
        by_key = {(o.tier, o.precision): o for o in options[1:]}
        assert by_key[("dcSR-2", "int8")].model_bits == 0.0
        assert by_key[("dcSR-2", "fp32")].model_bits == 15000 * 8

    def test_unpublished_label_is_off_only(self):
        assert tier_options(self._manifest(), 7) == (SR_OFF,)

    def test_flops_positive_and_memoized(self):
        a = tier_options(self._manifest(), 0)
        b = tier_options(self._manifest(), 0)
        assert a[1].flops_per_inference > 0
        assert a[1].flops_per_inference == b[1].flops_per_inference
