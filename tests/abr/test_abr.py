"""Tests for the ABR extension: traces, ladders, policies, simulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abr import (
    BitrateLadder,
    BufferAbr,
    DcsrAwareAbr,
    QualityLevel,
    ThroughputAbr,
    constant_trace,
    qoe_score,
    random_walk_trace,
    simulate_session,
    step_trace,
)
from repro.abr.simulate import MAX_BUFFER_S


def _ladder(n_segments=6, seconds=2.0):
    """Three-rung synthetic ladder: 4 / 2 / 1 Mbit segments."""
    levels = []
    for i, (mbit, quality) in enumerate([(4.0, 40.0), (2.0, 34.0), (1.0, 28.0)]):
        levels.append(QualityLevel(
            level=i, crf=20 + i * 10,
            segment_bits=[int(mbit * 1e6)] * n_segments,
            segment_quality=[quality] * n_segments))
    return BitrateLadder(levels=levels,
                         segment_seconds=[seconds] * n_segments)


class TestTrace:
    def test_constant(self):
        trace = constant_trace(1e6)
        assert trace.bandwidth_at(0) == 1e6
        assert trace.bandwidth_at(100) == 1e6

    def test_download_time_constant(self):
        trace = constant_trace(1e6)
        assert np.isclose(trace.download_time(2e6, 0.0), 2.0)

    def test_download_time_across_step(self):
        trace = step_trace([(0.0, 1e6), (1.0, 2e6)])
        # 1 Mbit in the first second, remaining 2 Mbit at 2 Mbit/s -> 2 s.
        assert np.isclose(trace.download_time(3e6, 0.0), 2.0)

    def test_bandwidth_at_steps(self):
        trace = step_trace([(0.0, 1e6), (5.0, 4e6)])
        assert trace.bandwidth_at(4.9) == 1e6
        assert trace.bandwidth_at(5.0) == 4e6

    def test_zero_bits(self):
        assert constant_trace(1e6).download_time(0, 3.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            step_trace([])
        with pytest.raises(ValueError):
            step_trace([(1.0, 1e6)])  # must start at 0
        with pytest.raises(ValueError):
            step_trace([(0.0, -5.0)])

    def test_random_walk_properties(self):
        trace = random_walk_trace(2e6, 60.0, seed=1)
        assert np.all(trace.bandwidth_bps > 0)
        # Log-centred around the mean: geometric mean within 2x.
        geo = np.exp(np.mean(np.log(trace.bandwidth_bps)))
        assert 1e6 < geo < 4e6

    def test_random_walk_deterministic(self):
        a = random_walk_trace(1e6, 30.0, seed=5)
        b = random_walk_trace(1e6, 30.0, seed=5)
        np.testing.assert_array_equal(a.bandwidth_bps, b.bandwidth_bps)

    @given(st.floats(1e5, 1e8), st.floats(0.1, 100.0))
    @settings(max_examples=30, deadline=None)
    def test_property_download_time_linear(self, rate, mbits):
        trace = constant_trace(rate)
        t = trace.download_time(mbits * 1e6, 0.0)
        assert np.isclose(t, mbits * 1e6 / rate, rtol=1e-6)


class TestLadder:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BitrateLadder(levels=[], segment_seconds=[2.0])
        bad = QualityLevel(level=0, crf=20, segment_bits=[1], segment_quality=[30.0])
        with pytest.raises(ValueError):
            BitrateLadder(levels=[bad], segment_seconds=[2.0, 2.0])

    def test_order_validation(self):
        low = QualityLevel(0, 40, [100], [20.0])
        high = QualityLevel(1, 10, [400], [40.0])
        with pytest.raises(ValueError):
            BitrateLadder(levels=[low, high], segment_seconds=[2.0])

    def test_bitrate(self):
        ladder = _ladder(seconds=2.0)
        assert np.isclose(ladder.bitrate_bps(0, 0), 2e6)  # 4 Mbit / 2 s

    def test_built_from_codec(self):
        """build_ladder measures real sizes: better CRF = bigger + better."""
        from repro.abr import build_ladder
        from repro.video import detect_segments, make_video
        clip = make_video("abr", "news", seed=2, size=(32, 48),
                          duration_seconds=3.0, fps=10)
        segments = detect_segments(clip.frames)
        ladder = build_ladder(clip, segments, crfs=[20, 40, 51])
        assert ladder.n_levels == 3
        assert ladder.levels[0].total_bits > ladder.levels[1].total_bits
        assert ladder.levels[0].mean_quality > ladder.levels[2].mean_quality


class TestPolicies:
    def test_throughput_picks_best_affordable(self):
        ladder = _ladder()
        policy = ThroughputAbr()
        # Level 0 needs 2 Mbit/s (4 Mbit / 2 s), level 1 1 Mbit/s; 85% of
        # 2.5 Mbit/s affords level 0, 85% of 1.3 Mbit/s level 1.
        assert policy.choose(ladder, 0, 2.5e6, 0.0) == 0
        assert policy.choose(ladder, 0, 1.3e6, 0.0) == 1
        assert policy.choose(ladder, 0, 0.1e6, 0.0) == 2

    def test_throughput_safety(self):
        """A rung needs its bitrate within 85% of the estimate: 2.1 Mbit/s
        does not afford the 2 Mbit/s top rung."""
        assert ThroughputAbr().choose(_ladder(), 0, 2.1e6, 0.0) == 1

    def test_buffer_policy_thresholds(self):
        ladder = _ladder()
        policy = BufferAbr(reservoir_s=4.0, cushion_s=12.0)
        assert policy.choose(ladder, 0, 0, 1.0) == 2   # low buffer -> worst
        assert policy.choose(ladder, 0, 0, 20.0) == 0  # deep buffer -> best
        mid = policy.choose(ladder, 0, 0, 8.0)
        assert 0 <= mid <= 2

    def test_buffer_validation(self):
        with pytest.raises(ValueError):
            BufferAbr(reservoir_s=5.0, cushion_s=4.0)

    def test_dcsr_aware_prefers_cheaper_rung_at_target(self):
        ladder = _ladder()
        # dcSR lifts the lowest rung from 28 dB to 35 dB.
        enhanced = np.array([[40.0] * 6, [36.0] * 6, [35.0] * 6])
        policy = DcsrAwareAbr(enhanced_quality=enhanced,
                              model_bits_by_segment=[0.0] * 6,
                              target_quality_db=34.0)
        # Plenty of throughput: plain ABR would take level 0; dcSR-aware
        # takes the cheapest rung that clears the target after enhancement.
        assert policy.choose(ladder, 0, 10e6, 0.0) == 2

    def test_dcsr_aware_budgets_model_bits(self):
        ladder = _ladder()
        # Bottom rung enhanced to 35 dB, but its micro model is huge at
        # segment 0, making that rung unaffordable there.
        enhanced = np.array([[40.0] * 6, [36.0] * 6, [35.0] * 6])
        policy = DcsrAwareAbr(enhanced_quality=enhanced,
                              model_bits_by_segment=[8e6] + [0.0] * 5,
                              target_quality_db=34.0)
        # Segment 0: the enhanced rung costs model + video > budget, so the
        # policy falls back to the cheapest un-enhanced rung meeting the
        # target (level 1).  Segment 1: model already cached -> bottom rung.
        assert policy.choose(ladder, 0, 2.1e6, 0.0) == 1
        assert policy.choose(ladder, 1, 2.1e6, 0.0) == 2

    def test_dcsr_aware_charges_model_only_on_enhanced_rung(self):
        enhanced = np.array([[40.0] * 6, [36.0] * 6, [35.0] * 6])
        policy = DcsrAwareAbr(enhanced_quality=enhanced,
                              model_bits_by_segment=[1e6] * 6,
                              target_quality_db=34.0)
        assert policy.extra_bits(0, 2) == 1e6
        assert policy.extra_bits(0, 0) == 0.0
        assert policy.extra_bits(0, 1) == 0.0


class TestSimulation:
    def test_fast_link_picks_top_quality(self):
        ladder = _ladder()
        result = simulate_session(ladder, ThroughputAbr(), constant_trace(20e6))
        assert all(lvl == 0 for lvl in result.levels[1:])
        assert result.rebuffer_seconds == 0.0

    def test_slow_link_picks_bottom_and_may_stall(self):
        ladder = _ladder()
        result = simulate_session(ladder, ThroughputAbr(),
                                  constant_trace(0.3e6))
        assert all(lvl == 2 for lvl in result.levels[1:])

    def test_rebuffering_on_bandwidth_drop(self):
        ladder = _ladder(n_segments=10)
        trace = step_trace([(0.0, 10e6), (6.0, 0.2e6)])
        result = simulate_session(ladder, ThroughputAbr(), trace)
        assert result.rebuffer_seconds > 0.0

    def test_bits_accounted(self):
        ladder = _ladder()
        result = simulate_session(ladder, ThroughputAbr(), constant_trace(20e6))
        expected = sum(ladder.levels[lvl].segment_bits[i]
                       for i, lvl in enumerate(result.levels))
        assert np.isclose(result.video_bits, expected)

    def test_quality_table_override(self):
        ladder = _ladder()
        table = np.full((3, 6), 33.0)
        result = simulate_session(ladder, ThroughputAbr(),
                                  constant_trace(20e6), quality_table=table)
        assert np.isclose(result.mean_quality, 33.0)

    def test_switch_counting(self):
        ladder = _ladder(n_segments=16)
        trace = step_trace([(0.0, 20e6), (4.0, 0.2e6)])
        result = simulate_session(ladder, ThroughputAbr(), trace)
        assert result.switches >= 1
        # After the estimate converges the policy must have shifted down.
        assert result.levels[-1] > result.levels[0]

    def test_oversized_segment_clamps_drain_and_books_rebuffer(self):
        """Regression: a segment longer than the buffer cap used to drive
        the buffer negative in the buffer-full wait and feed that negative
        value to the policy.  The drain must clamp to the buffered amount,
        the remainder must surface as rebuffering, and the policy must
        never see a negative buffer."""
        seen_buffers = []

        class SpyAbr(ThroughputAbr):
            def choose(self, ladder, segment, estimate, buffer_s):
                seen_buffers.append(buffer_s)
                return super().choose(ladder, segment, estimate, buffer_s)

        seg_s, max_buffer = 10.0, MAX_BUFFER_S
        ladder = _ladder(n_segments=4, seconds=seg_s)
        result = simulate_session(ladder, SpyAbr(), constant_trace(50e6))
        assert all(b >= 0.0 for b in seen_buffers)
        # Every steady-state segment forces at least (seg_s - max_buffer)
        # of stall: even a full drain cannot make room for an oversized
        # segment, so the wait always outlives the buffer.
        n_steady = ladder.n_segments - 1
        assert result.rebuffer_seconds >= n_steady * (seg_s - max_buffer)

    def test_qoe_penalises_rebuffering(self):
        good = simulate_session(_ladder(), ThroughputAbr(), constant_trace(20e6))
        bad = simulate_session(_ladder(), ThroughputAbr(), constant_trace(0.3e6))
        assert qoe_score(good) > qoe_score(bad)

    def test_dcsr_aware_same_quality_less_bits(self):
        """The paper's pitch: with enhancement credited, dcSR-aware ABR
        delivers the target quality with fewer bits."""
        ladder = _ladder(n_segments=10)
        enhanced = np.array([
            [40.0] * 10,   # level 0 enhanced
            [37.0] * 10,
            [34.5] * 10,   # bottom rung enhanced to near-top quality
        ])
        trace = constant_trace(3e6)
        plain = simulate_session(ladder, ThroughputAbr(), trace)
        aware = simulate_session(
            ladder,
            DcsrAwareAbr(enhanced_quality=enhanced,
                         model_bits_by_segment=[2e5] + [0.0] * 9,
                         target_quality_db=34.0),
            trace, quality_table=enhanced)
        assert aware.total_bits < plain.total_bits
        assert aware.mean_quality >= 34.0
