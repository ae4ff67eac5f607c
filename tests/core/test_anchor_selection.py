"""Tests for NEMO-style adaptive anchor selection."""

import numpy as np
import pytest

from repro.core import (
    play_nemo,
    play_nemo_adaptive,
    select_anchors,
)
from repro.core.baselines import BigModelBaseline
from repro.core.client import enhance_yuv_frame
from repro.sr import EDSR, InferenceEngine
from repro.video import psnr_yuv, rgb_to_yuv420
from repro.video.codec import Decoder
from repro.video.frame import YuvFrame


def _quality_with(encoded, model, reference_frames, anchors):
    """Mean luma PSNR of the whole video decoded with ``anchors`` enhanced:
    every frame counts once, as in the selection's frame-weighted mean."""
    engine = InferenceEngine(model)

    def hook(frame, display, ftype):
        return enhance_yuv_frame(engine, frame) if display in anchors else None

    decoded = Decoder(anchor_hook=hook).decode_video(encoded)
    return float(np.mean([psnr_yuv(rgb_to_yuv420(reference_frames[t]), frame)
                          for t, frame in enumerate(decoded.frames)]))


@pytest.fixture(scope="module")
def big_for_anchors(package, small_clip, small_config):
    """A trained model reused across the anchor tests."""
    from repro.core import train_big_model
    from repro.sr import EdsrConfig, SrTrainConfig
    return train_big_model(
        package, small_clip.frames, EdsrConfig(n_resblocks=2, n_filters=10),
        SrTrainConfig(epochs=15, steps_per_epoch=10, batch_size=8,
                      patch_size=16, learning_rate=5e-3, lr_decay_epochs=6))


class TestAnchorHook:
    def test_hook_sees_i_and_p_frames(self, package):
        seen = []

        def hook(frame, display, ftype):
            seen.append(ftype)
            return None

        Decoder(anchor_hook=hook).decode_video(package.encoded)
        assert "I" in seen and "P" in seen
        assert "B" not in seen

    def test_returning_none_changes_nothing(self, package):
        plain = Decoder().decode_video(package.encoded)
        hooked = Decoder(anchor_hook=lambda f, d, t: None).decode_video(
            package.encoded)
        assert all(a == b for a, b in zip(plain.frames, hooked.frames))
        assert hooked.hook_invocations == 0

    def test_both_hooks_rejected(self):
        with pytest.raises(ValueError):
            Decoder(i_frame_hook=lambda f, d: f,
                    anchor_hook=lambda f, d, t: None)

    def test_enhancing_p_anchor_propagates(self, package):
        """Brightening one P anchor brightens later frames in its segment."""
        decoded = Decoder().decode_video(package.encoded)
        p_anchor = next(i for i, t in enumerate(decoded.frame_types)
                        if t == "P")

        def brighten(frame, display, ftype):
            if display == p_anchor:
                return YuvFrame(
                    np.clip(frame.y.astype(np.int16) + 40, 0, 255).astype(np.uint8),
                    frame.u, frame.v)
            return None

        hooked = Decoder(anchor_hook=brighten).decode_video(package.encoded)
        delta = (hooked.frames[p_anchor].y.astype(np.int64).mean()
                 - decoded.frames[p_anchor].y.astype(np.int64).mean())
        assert delta > 30
        # Frames before the anchor are untouched.
        assert hooked.frames[0] == decoded.frames[0]


@pytest.mark.tier2
class TestSelection:
    def test_empty_budget_selects_nothing(self, package, small_clip,
                                          big_for_anchors):
        plan = select_anchors(package.encoded, big_for_anchors.model,
                              small_clip.frames, budget_per_segment=0)
        assert plan.anchors == set()

    def test_selection_respects_budget(self, package, small_clip,
                                       big_for_anchors):
        plan = select_anchors(package.encoded, big_for_anchors.model,
                              small_clip.frames, budget_per_segment=1)
        per_segment = {}
        for seg in package.encoded.segments:
            hits = [a for a in plan.anchors
                    if seg.start <= a < seg.start + seg.n_frames]
            per_segment[seg.index] = len(hits)
        assert all(count <= 1 for count in per_segment.values())

    def test_anchors_are_reference_frames(self, package, small_clip,
                                          big_for_anchors):
        plan = select_anchors(package.encoded, big_for_anchors.model,
                              small_clip.frames, budget_per_segment=2)
        decoded = Decoder().decode_video(package.encoded)
        for anchor in plan.anchors:
            assert decoded.frame_types[anchor] in ("I", "P")

    def test_greedy_improves_monotonically(self, package, small_clip,
                                           big_for_anchors):
        plan = select_anchors(package.encoded, big_for_anchors.model,
                              small_clip.frames, budget_per_segment=3)
        # History records only accepted (strictly improving) steps.
        assert len(plan.history) == len(plan.anchors)

    def test_evaluate_matches_selection_quality(self, package, small_clip,
                                                big_for_anchors):
        plan = select_anchors(package.encoded, big_for_anchors.model,
                              small_clip.frames, budget_per_segment=1)
        independent = _quality_with(
            package.encoded, big_for_anchors.model, small_clip.frames,
            plan.anchors)
        assert np.isclose(independent, plan.quality_db, atol=1e-6)

    def test_selected_beats_empty(self, package, small_clip, big_for_anchors):
        plan = select_anchors(package.encoded, big_for_anchors.model,
                              small_clip.frames, budget_per_segment=2)
        baseline = _quality_with(
            package.encoded, big_for_anchors.model, small_clip.frames, set())
        if plan.anchors:
            assert plan.quality_db > baseline

    def test_invalid_budget(self, package, small_clip, big_for_anchors):
        with pytest.raises(ValueError):
            select_anchors(package.encoded, big_for_anchors.model,
                           small_clip.frames, budget_per_segment=-1)


@pytest.mark.tier2
class TestAdaptivePlayback:
    def test_adaptive_at_least_matches_i_frame_nemo(self, package, small_clip,
                                                    big_for_anchors):
        """Greedy selection with budget >= 1 should not lose to the paper's
        'I frames only' simplification by more than noise."""
        simple = play_nemo(package, big_for_anchors, small_clip.frames)
        adaptive = play_nemo_adaptive(package, big_for_anchors,
                                      small_clip.frames,
                                      budget_per_segment=2)
        assert adaptive.mean_psnr >= simple.mean_psnr - 0.1

    def test_adaptive_counts_inferences(self, package, small_clip,
                                        big_for_anchors):
        adaptive = play_nemo_adaptive(package, big_for_anchors,
                                      small_clip.frames,
                                      budget_per_segment=1)
        assert adaptive.sr_inferences <= package.manifest.n_segments
