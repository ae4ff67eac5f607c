"""End-to-end tests for the dcSR server pipeline and client playback."""

import numpy as np
import pytest

from repro.core import (
    DcsrClient,
    ModelCache,
    ServerConfig,
    bandwidth_of,
    build_package,
    normalized_usage,
    play_low,
    play_nas,
    play_nemo,
    train_big_model,
)
from repro.features import VaeTrainConfig
from repro.sr import QUALITY_BIG_CONFIG, EdsrConfig, SrTrainConfig
from repro.video import make_video
from repro.video.codec import CodecConfig


class TestServerPipeline:
    def test_package_structure(self, package):
        assert package.manifest.n_segments == len(package.segments)
        assert package.n_models == package.selection.k
        assert package.features.shape[0] == package.manifest.n_segments
        assert len(package.encoded.segments) == package.manifest.n_segments

    def test_every_segment_has_model(self, package):
        for seg in package.manifest.segments:
            assert seg.model_label in package.models

    def test_model_sizes_recorded(self, package):
        for label, model in package.models.items():
            assert package.manifest.model_sizes[label] == model.size_bytes()

    def test_k_respects_budget(self, package, small_config):
        from repro.clustering import max_k_for_budget
        from repro.sr import EDSR
        budget = max_k_for_budget(
            EDSR(QUALITY_BIG_CONFIG).size_bytes(),
            EDSR(small_config.micro_config).size_bytes())
        assert 1 <= package.selection.k <= budget

    def test_micro_total_within_big_budget(self, package, small_config):
        """Eq. 3's purpose: deployed micro models never exceed one big model."""
        from repro.sr import EDSR
        big = EDSR(QUALITY_BIG_CONFIG).size_bytes()
        assert package.manifest.total_model_bytes <= big

    def test_recurring_scenes_share_models(self, small_clip, package):
        """The synthetic video revisits scenes, so at least two segments
        must map to the same micro model (the premise of caching)."""
        labels = package.manifest.label_sequence()
        assert len(labels) > len(set(labels))

    def test_clusters_follow_scene_identity(self, small_clip, package):
        """Segments showing the same ground-truth scene get the same label."""
        by_scene = {}
        for seg, record in zip(package.segments, package.manifest.segments):
            scene = int(small_clip.scene_ids[seg.start])
            by_scene.setdefault(scene, set()).add(record.model_label)
        consistent = sum(1 for labels in by_scene.values() if len(labels) == 1)
        assert consistent >= len(by_scene) - 1

    def test_k_override(self, small_clip, small_config):
        from dataclasses import replace
        config = replace(small_config, k_override=2)
        package = build_package(small_clip, config)
        assert package.selection.k == 2
        assert package.n_models == 2

    def test_fixed_segmentation_mode(self, small_clip, small_config):
        from dataclasses import replace
        config = replace(small_config, fixed_segment_len=20)
        package = build_package(small_clip, config)
        assert all(s.n_frames <= 20 for s in package.segments)


class TestClientPlayback:
    def test_plays_all_frames(self, package, small_clip):
        result = DcsrClient(package).play(small_clip.frames)
        assert len(result.frames) == small_clip.n_frames
        assert len(result.psnr_per_frame) == small_clip.n_frames

    def test_downloads_match_distinct_labels(self, package, small_clip):
        result = DcsrClient(package).play()
        labels = package.manifest.label_sequence()
        assert result.model_downloads == sorted(
            set(labels), key=labels.index)
        assert result.cache_stats.downloads == len(set(labels))

    def test_model_bytes_are_downloaded_sizes(self, package):
        result = DcsrClient(package).play()
        expected = sum(package.manifest.model_sizes[l]
                       for l in set(package.manifest.label_sequence()))
        assert result.model_bytes == expected

    def test_video_bytes_match_encoded(self, package):
        result = DcsrClient(package).play()
        assert result.video_bytes == package.encoded.total_bytes

    def test_sr_applied_once_per_i_frame(self, package):
        result = DcsrClient(package).play()
        n_i = sum(1 for t in result.frame_types if t == "I")
        assert result.sr_inferences == n_i

    def test_enhances_i_frames_over_low(self, package, small_clip):
        """dcSR's I frames must beat the unenhanced decode's I frames."""
        dcsr = DcsrClient(package).play(small_clip.frames)
        low = play_low(package, small_clip.frames)
        def i_mean(res):
            vals = [p for t, p in zip(res.frame_types, res.psnr_per_frame)
                    if t == "I"]
            return float(np.mean(vals))
        assert i_mean(dcsr) > i_mean(low) + 0.5

    def test_bounded_cache_still_plays(self, package, small_clip):
        result = DcsrClient(package, model_cache=ModelCache(capacity=1)
                            ).play(small_clip.frames)
        assert len(result.frames) == small_clip.n_frames
        assert result.cache_stats.downloads >= package.n_models

    def test_quality_without_reference_is_empty(self, package):
        result = DcsrClient(package).play()
        assert result.psnr_per_frame == []
        # Unmeasured quality reads as nan, never as "perfect".
        assert np.isnan(result.mean_psnr)
        assert np.isnan(result.mean_ssim)


class TestBaselines:
    @pytest.fixture(scope="class")
    def big(self, package, small_clip):
        return train_big_model(
            package, small_clip.frames,
            EdsrConfig(n_resblocks=2, n_filters=12),
            SrTrainConfig(epochs=30, steps_per_epoch=10, batch_size=8,
                          patch_size=16, learning_rate=5e-3,
                          lr_decay_epochs=12))

    def test_nas_enhances_every_frame(self, package, small_clip, big):
        result = play_nas(package, big, small_clip.frames)
        assert result.sr_inferences == small_clip.n_frames
        assert result.model_bytes == big.size_bytes

    def test_nemo_enhances_only_i_frames(self, package, small_clip, big):
        result = play_nemo(package, big, small_clip.frames)
        n_i = sum(1 for t in result.frame_types if t == "I")
        assert result.sr_inferences == n_i

    def test_low_downloads_no_model(self, package, small_clip):
        result = play_low(package, small_clip.frames)
        assert result.model_bytes == 0
        assert result.sr_inferences == 0

    def test_nas_beats_low(self, package, small_clip, big):
        nas = play_nas(package, big, small_clip.frames)
        low = play_low(package, small_clip.frames)
        assert nas.mean_psnr > low.mean_psnr

    def test_bandwidth_ordering(self, package, small_clip, small_config):
        """Figure 10's shape: LOW < dcSR < NAS = NEMO.

        Bandwidth depends only on model *sizes*, so the big model here uses
        the real budget config (untrained — quality is irrelevant).
        """
        from repro.core import BigModelBaseline
        from repro.sr import EDSR
        big = BigModelBaseline(model=EDSR(QUALITY_BIG_CONFIG))
        dcsr = DcsrClient(package).play()
        nas = play_nas(package, big)
        nemo = play_nemo(package, big)
        low = play_low(package)
        usages = {name: bandwidth_of(name, res) for name, res in
                  [("NAS", nas), ("NEMO", nemo), ("dcSR", dcsr), ("LOW", low)]}
        norm = normalized_usage(usages)
        assert norm["NAS"] == 1.0
        assert norm["NEMO"] == 1.0
        assert norm["LOW"] < norm["dcSR"] < 1.0

    def test_normalized_usage_validation(self):
        from repro.core import BandwidthUsage
        with pytest.raises(KeyError):
            normalized_usage({"dcSR": BandwidthUsage("dcSR", 1, 1)})


class TestStartupDelay:
    def test_formula(self):
        from repro.core import startup_delay
        # 1 Mbit/s, 125 KB total -> 1 second.
        assert np.isclose(startup_delay(1e6, 100_000, 25_000), 1.0)

    def test_bandwidth_validation(self):
        from repro.core import startup_delay
        with pytest.raises(ValueError):
            startup_delay(0.0, 1000, 0)

    def test_dcsr_starts_faster_than_big_model_methods(self, package,
                                                       small_config):
        """dcSR needs only the first micro model up front; NAS/NEMO the
        whole big model — the startup ordering the paper motivates."""
        from repro.core import startup_comparison
        from repro.sr import EDSR
        big_bytes = EDSR(QUALITY_BIG_CONFIG).size_bytes()
        delays = startup_comparison(package, big_bytes, bandwidth_bps=1e6)
        assert delays["LOW"] <= delays["dcSR"] < delays["NAS"]
        assert delays["NAS"] == delays["NEMO"]


class TestInLoopValidation:
    def test_manifest_records_flag(self, package):
        assert isinstance(package.manifest.enhance_in_loop, bool)

    def test_display_only_never_below_low(self, package, small_clip):
        """Display-only enhancement is a drift-free floor: every frame is
        either untouched or an enhanced I frame."""
        from repro.core import DcsrClient, play_low
        manifest = package.manifest
        saved = manifest.enhance_in_loop
        try:
            manifest.enhance_in_loop = False
            dcsr = DcsrClient(package).play(small_clip.frames)
        finally:
            manifest.enhance_in_loop = saved
        low = play_low(package, small_clip.frames)
        # Non-I frames are bit-identical to the plain decode.
        for ftype, a, b in zip(dcsr.frame_types, dcsr.frames, low.frames):
            if ftype != "I":
                np.testing.assert_array_equal(a, b)
        assert dcsr.mean_psnr >= low.mean_psnr

    def test_validation_picks_winner(self, package, small_clip):
        """The recorded mode scores at least as well as the alternative."""
        from repro.core import DcsrClient
        manifest = package.manifest
        saved = manifest.enhance_in_loop
        try:
            scores = {}
            for mode in (True, False):
                manifest.enhance_in_loop = mode
                scores[mode] = DcsrClient(package).play(small_clip.frames).mean_psnr
        finally:
            manifest.enhance_in_loop = saved
        assert scores[saved] >= scores[not saved] - 1e-9

    def test_validation_can_be_disabled(self, small_clip, small_config):
        from dataclasses import replace
        from repro.core import build_package
        config = replace(small_config, validate_in_loop=False)
        pkg = build_package(small_clip, config)
        assert pkg.manifest.enhance_in_loop is True  # the default, unvalidated
