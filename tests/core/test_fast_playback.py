"""Fast-path playback: prefetch pipeline equivalence and telemetry.

The contract: the :class:`FastPathConfig` knobs (tiles, worker threads,
prefetch) are purely a *performance* change — frames, quality metrics,
byte accounting, and degradation semantics must match the serial
session on the default engine, which is what a client given no config
plays.  Prefetch vs no-prefetch is asserted bitwise; tiled vs whole-frame
at the uint8 level with a 1-LSB tolerance (float32 reassociation can flip
a quantization boundary).
"""

import numpy as np
import pytest

from repro.core import (
    DcsrClient,
    DownloadError,
    FastPathConfig,
    NetworkConfig,
    RetryPolicy,
    ServerConfig,
    SimulatedNetwork,
    build_package,
)
from repro.features import VaeTrainConfig
from repro.sr import EdsrConfig, SrTrainConfig
from repro.video import make_video
from repro.video.codec import CodecConfig


@pytest.fixture(scope="module")
def static_package():
    """A static camera, one model, three segments of several I frames
    each (``extra_i_interval=1``): the one shape on which temporal reuse
    fires inside a session — default GOPs carry one I frame per segment
    and the cache resets at every segment boundary."""
    clip = make_video("static", "news", seed=5, size=(48, 64),
                      duration_seconds=2.4, fps=10, n_distinct_scenes=2)
    return build_package(clip, ServerConfig(
        codec=CodecConfig(crf=45, extra_i_interval=1), max_segment_len=8,
        k_override=1,
        vae_train=VaeTrainConfig(epochs=2, batch_size=4),
        sr_train=SrTrainConfig(epochs=2, steps_per_epoch=4, batch_size=4,
                               patch_size=16, lr_decay_epochs=2),
        micro_config=EdsrConfig(n_resblocks=1, n_filters=4),
        validate_in_loop=False))


def _play(package, frames, fast=None, network=None, fallback=False,
          retries=0):
    client = DcsrClient(package, network=network,
                        retry=RetryPolicy(retries=retries, backoff_s=0.0),
                        fallback=fallback, fast_path=fast)
    return client.play(frames)


def _lossy_net(seed=11, fail_rate=0.4):
    return SimulatedNetwork(NetworkConfig(fail_rate=fail_rate, seed=seed))


class TestFastPathConfig:
    def test_validation(self, package):
        with pytest.raises(ValueError):
            DcsrClient(package, fast_path=FastPathConfig(prefetch=-1))

    def test_no_fast_path_plays_the_default_engine(self, package,
                                                    small_clip):
        """A client given no config plays ``FastPathConfig(calibrate=
        False)``: same frames bit for bit, same engine telemetry."""
        plain = _play(package, small_clip.frames)
        default = _play(package, small_clip.frames,
                        FastPathConfig(calibrate=False))
        assert len(plain.frames) == len(default.frames) == small_clip.n_frames
        for a, b in zip(plain.frames, default.frames):
            assert np.array_equal(a, b)
        assert plain.psnr_per_frame == default.psnr_per_frame
        for t in (plain.telemetry, default.telemetry):
            assert t.tile_count == plain.sr_inferences > 0
            assert t.sr_gflops > 0
            assert t.fast_path_speedup == 0      # uncalibrated


class TestOneInferencePath:
    def test_nothing_runs_the_training_forward(self, package, small_clip,
                                               monkeypatch):
        """Sessions, both baselines, anchor selection and the min-model
        score enhance through ``InferenceEngine``: none reaches the
        layers' caching ``EDSR.forward``."""
        from repro.core import (BigModelBaseline, play_nas, play_nemo,
                                select_anchors)
        from repro.sr import EDSR, evaluate_sr

        def training_only(model, x):
            raise AssertionError("EDSR.forward ran outside training")

        model = package.models[package.manifest.model_label_for(0)]
        monkeypatch.setattr(EDSR, "forward", training_only)
        frames = small_clip.frames
        played = DcsrClient(package).play(frames)
        assert played.sr_inferences > 0
        baseline = BigModelBaseline(model=model)
        assert play_nemo(package, baseline, frames).sr_inferences > 0
        assert play_nas(package, baseline, frames).sr_inferences \
            == len(frames)
        select_anchors(package.encoded, model, frames, budget_per_segment=1)
        assert evaluate_sr(model, frames[:2], frames[:2])["psnr"] > 0


class TestPrefetchEquivalence:
    def test_prefetch_bitwise_equals_serial_fast(self, package, small_clip):
        fast0 = _play(package, small_clip.frames,
                      FastPathConfig(tile=24, sr_threads=2, prefetch=0))
        fastp = _play(package, small_clip.frames,
                      FastPathConfig(tile=24, sr_threads=2, prefetch=2))
        assert len(fast0.frames) == len(fastp.frames) == small_clip.n_frames
        assert fast0.frame_types == fastp.frame_types
        for a, b in zip(fast0.frames, fastp.frames):
            assert np.array_equal(a, b)
        assert fast0.psnr_per_frame == fastp.psnr_per_frame
        assert fast0.video_bytes == fastp.video_bytes
        assert fast0.model_bytes == fastp.model_bytes

    def test_prefetch_lossy_preserves_concealment(self, package, small_clip):
        serial = _play(package, small_clip.frames,
                       FastPathConfig(tile=24, prefetch=0),
                       network=_lossy_net(), fallback=True)
        pre = _play(package, small_clip.frames,
                    FastPathConfig(tile=24, prefetch=3),
                    network=_lossy_net(), fallback=True)
        assert serial.skipped_segments == pre.skipped_segments
        assert serial.fallback_segments == pre.fallback_segments
        assert serial.frame_types == pre.frame_types
        for a, b in zip(serial.frames, pre.frames):
            assert np.array_equal(a, b)
        assert serial.total_bytes == pre.total_bytes

    def test_fast_path_matches_reference_engine(self, package, small_clip):
        ref = _play(package, small_clip.frames)
        fast = _play(package, small_clip.frames,
                     FastPathConfig(tile=20, sr_threads=2, prefetch=2))
        assert ref.frame_types == fast.frame_types
        assert ref.video_bytes == fast.video_bytes
        assert ref.model_bytes == fast.model_bytes
        for a, b in zip(ref.frames, fast.frames):
            # uint8 YUV after float32-reassociated SR: at most 1 LSB apart
            assert np.abs(a.astype(np.int16) - b.astype(np.int16)).max() <= 1
        assert abs(ref.mean_psnr - fast.mean_psnr) < 0.05

    def test_strict_mode_raises_through_prefetch(self, package, small_clip):
        network = SimulatedNetwork(NetworkConfig(fail_rate=1.0, seed=0))
        client = DcsrClient(package, network=network,
                            retry=RetryPolicy(retries=0, backoff_s=0.0),
                            fallback=False,
                            fast_path=FastPathConfig(prefetch=2))
        with pytest.raises(DownloadError):
            client.play(small_clip.frames)
        # the generator still finalized its accounting
        assert client.last_result.telemetry is not None

    def test_bounded_memory_with_prefetch(self, package, small_clip):
        depth = 2
        client = DcsrClient(package,
                            fast_path=FastPathConfig(tile=24,
                                                     prefetch=depth))
        for _ in client.iter_frames():
            pass
        peak = client.last_result.telemetry.peak_resident_frames
        longest = max(seg.n_frames for seg in package.segments)
        # prefetch holds at most `depth` extra decoded segments
        assert 0 < peak <= (depth + 1) * longest + 1
        assert peak < small_clip.n_frames or \
            small_clip.n_frames <= (depth + 1) * longest + 1

    def test_abandoned_prefetch_generator_finalizes(self, package):
        client = DcsrClient(package,
                            fast_path=FastPathConfig(prefetch=2))
        gen = client.iter_frames()
        next(gen)
        gen.close()
        assert client.last_result.telemetry is not None
        assert client.last_result.model_bytes > 0


class TestQuantizedGatedPlayback:
    """PR-7 knobs: precision, skip gate, and the sr_batch worker pool."""

    def test_validation(self, package):
        with pytest.raises(ValueError):
            FastPathConfig(precision="int4")
        with pytest.raises(ValueError):
            FastPathConfig(skip_gate=-0.5)
        with pytest.raises(ValueError):
            FastPathConfig(sr_batch=0)

    def test_sr_batch_bitwise_equals_prefetch(self, package, small_clip):
        """``sr_batch`` composes with any ``prefetch``, 0 included: the
        pool runs whenever ``prefetch + sr_batch > 1``."""
        base = _play(package, small_clip.frames,
                     FastPathConfig(tile=24, prefetch=2))
        for prefetch, sr_batch in ((2, 2), (2, 3), (0, 2)):
            batched = _play(package, small_clip.frames,
                            FastPathConfig(tile=24, prefetch=prefetch,
                                           sr_batch=sr_batch))
            assert base.frame_types == batched.frame_types
            for a, b in zip(base.frames, batched.frames):
                assert np.array_equal(a, b)
            assert base.psnr_per_frame == batched.psnr_per_frame
            assert base.total_bytes == batched.total_bytes

    def test_sr_batch_int8_bitwise_equals_serial(self, package, small_clip):
        """Which I-frames happen to merge is a thread-timing accident; with
        the int8 activation scale taken per frame it no longer shows in
        the output (a batch-wide scale made some repeats differ)."""
        serial = _play(package, small_clip.frames,
                       FastPathConfig(tile=24, precision="int8"))
        for _ in range(5):
            batched = _play(package, small_clip.frames,
                            FastPathConfig(tile=24, prefetch=2, sr_batch=2,
                                           precision="int8"))
            for a, b in zip(serial.frames, batched.frames):
                assert np.array_equal(a, b)
            assert serial.psnr_per_frame == batched.psnr_per_frame

    def test_sr_batch_lossy_preserves_concealment(self, package, small_clip):
        serial = _play(package, small_clip.frames,
                       FastPathConfig(tile=24, prefetch=2),
                       network=_lossy_net(), fallback=True)
        batched = _play(package, small_clip.frames,
                        FastPathConfig(tile=24, prefetch=2, sr_batch=2),
                        network=_lossy_net(), fallback=True)
        assert serial.skipped_segments == batched.skipped_segments
        assert serial.fallback_segments == batched.fallback_segments
        for a, b in zip(serial.frames, batched.frames):
            assert np.array_equal(a, b)
        assert serial.total_bytes == batched.total_bytes

    def test_sr_batch_strict_mode_raises(self, package, small_clip):
        network = SimulatedNetwork(NetworkConfig(fail_rate=1.0, seed=0))
        client = DcsrClient(package, network=network,
                            retry=RetryPolicy(retries=0, backoff_s=0.0),
                            fallback=False,
                            fast_path=FastPathConfig(prefetch=2, sr_batch=2))
        with pytest.raises(DownloadError):
            client.play(small_clip.frames)
        assert client.last_result.telemetry is not None

    def test_precision_shrinks_model_bytes(self, package, small_clip):
        """Quantized checkpoints flow through the byte accounting: the
        manifest's per-precision sizes are what the client downloads."""
        by_precision = {
            p: _play(package, small_clip.frames,
                     FastPathConfig(tile=24, precision=p))
            for p in ("fp32", "fp16", "int8")
        }
        sizes = {p: r.model_bytes for p, r in by_precision.items()}
        assert sizes["int8"] < sizes["fp16"] < sizes["fp32"]
        # video bytes are untouched by model precision
        assert len({r.video_bytes for r in by_precision.values()}) == 1

    def test_fp32_knobs_off_bitwise_identical(self, package, small_clip):
        plain = _play(package, small_clip.frames,
                      FastPathConfig(tile=24, prefetch=2))
        explicit = _play(package, small_clip.frames,
                         FastPathConfig(tile=24, prefetch=2,
                                        precision="fp32", skip_gate=None))
        for a, b in zip(plain.frames, explicit.frames):
            assert np.array_equal(a, b)
        assert plain.model_bytes == explicit.model_bytes

    def test_quantized_playback_within_budget(self, package, small_clip):
        """End-to-end PSNR cost of int8 playback stays within the 0.3 dB
        shipping budget the build-time calibration asserts."""
        fp32 = _play(package, small_clip.frames, FastPathConfig(tile=24))
        int8 = _play(package, small_clip.frames,
                     FastPathConfig(tile=24, precision="int8"))
        assert abs(fp32.mean_psnr - int8.mean_psnr) <= 0.3

    def test_skip_gate_counts_surface_in_telemetry(self, package,
                                                   small_clip):
        aggressive = _play(package, small_clip.frames,
                           FastPathConfig(tile=16, skip_gate=1e6))
        t = aggressive.telemetry
        # A huge threshold gates every tile to bicubic.
        assert t.skipped_tiles > 0
        assert t.tile_count == 0
        assert any("gated to bicubic" in line for line in t.summary_lines())
        off = _play(package, small_clip.frames, FastPathConfig(tile=16))
        assert off.telemetry.skipped_tiles == 0


class TestFastPathTelemetry:
    def test_fields_populated(self, package, small_clip):
        client = DcsrClient(package,
                            fast_path=FastPathConfig(tile=16, sr_threads=2,
                                                     prefetch=1))
        result = client.play(small_clip.frames)
        t = result.telemetry
        assert t.tile_count > 0
        assert t.sr_gflops > 0
        assert t.fast_path_speedup > 0          # calibration ran
        assert t.prefetch_overlap_seconds >= 0
        assert any("fastpath" in line and "x vs default engine" in line
                   for line in t.summary_lines())

    def test_calibration_can_be_disabled(self, package, small_clip):
        result = _play(package, small_clip.frames,
                       FastPathConfig(tile=16, calibrate=False))
        assert result.telemetry.fast_path_speedup == 0

    def test_uncalibrated_summary_claims_no_speedup(self, package,
                                                    small_clip):
        """Nothing was measured, so no "0.0x vs default engine"."""
        result = _play(package, small_clip.frames,
                       FastPathConfig(tile=16, calibrate=False))
        [line] = [line for line in result.telemetry.summary_lines()
                  if "fastpath" in line]
        assert "GFLOP/s, overlap" in line
        assert "vs default engine" not in line

    def test_whole_frame_counts_one_tile_per_inference(self, package,
                                                       small_clip):
        result = _play(package, small_clip.frames, FastPathConfig())
        assert result.telemetry.tile_count == result.sr_inferences


class TestTemporalReusePlayback:
    def test_exact_reuse_is_bitwise_invisible(self, package, small_clip):
        """`--reuse` in exact mode never changes a played frame: outputs
        equal the reuse-free fast path bit for bit, whether or not any
        tile actually rode the cache."""
        plain = _play(package, small_clip.frames, FastPathConfig())
        reused = _play(package, small_clip.frames,
                       FastPathConfig(reuse=True))
        assert len(plain.frames) == len(reused.frames)
        for ours, theirs in zip(reused.frames, plain.frames):
            assert np.array_equal(ours, theirs)

    def test_reuse_off_matches_default_fast_path(self, package, small_clip):
        """reuse=None and reuse=False are the PR-7 engine, bit for bit."""
        base = _play(package, small_clip.frames, FastPathConfig())
        for off in (None, False):
            out = _play(package, small_clip.frames,
                        FastPathConfig(reuse=off))
            assert out.telemetry.reused_tiles == 0
            for ours, theirs in zip(out.frames, base.frames):
                assert np.array_equal(ours, theirs)

    def test_blocked_kernel_playback_matches_shift(self, package,
                                                   small_clip):
        """Kernel choice is a scheduling knob: blocked GEMM playback
        agrees with the shift kernel at the uint8 level (1-LSB slack for
        float reassociation at quantization boundaries)."""
        shift = _play(package, small_clip.frames, FastPathConfig())
        blocked = _play(package, small_clip.frames,
                        FastPathConfig(kernel="blocked"))
        for ours, theirs in zip(blocked.frames, shift.frames):
            diff = np.abs(ours.astype(np.int16) - theirs.astype(np.int16))
            assert diff.max() <= 1

    def test_segment_boundary_resets_the_cache(self, static_package):
        """A segment boundary is a GOP boundary (and where seeks and
        concealment land): a session's reuse starts over there even when
        the next segment opens on the very content — and the very model —
        the last one closed on."""
        from repro.sr import InferenceEngine
        from repro.video import rgb_to_yuv420, yuv420_to_rgb
        from repro.video.codec import Decoder

        package = static_package

        def reused_per_segment(reset):
            """The session's decode replayed on one engine by hand."""
            model = package.models[package.manifest.model_label_for(0)]
            engine = InferenceEngine(model, tile=16, reuse=True)
            decoder = Decoder(
                hook_display_only=not package.manifest.enhance_in_loop)
            rows = []

            def hook(frame, display):
                enhanced = engine.enhance(yuv420_to_rgb(frame))
                rows[-1] += engine.stats.reused_tiles
                return rgb_to_yuv420(enhanced)

            decoder.i_frame_hook = hook
            for payload in package.encoded.segments:
                if reset:
                    engine.reset_reuse()
                rows.append(0)
                decoder.decode_segment(payload, package.encoded.width,
                                       package.encoded.height)
            return rows

        session = _play(package, None, FastPathConfig(tile=16, reuse=True))
        played = [s.sr_reused_tiles for s in session.telemetry.segments]
        assert played == reused_per_segment(reset=True)
        # The boundary coincidence is real: an engine that is never reset
        # replays tiles across it.
        assert sum(reused_per_segment(reset=False)) > sum(played) > 0

    def test_reuse_composes_with_segment_workers(self, static_package):
        """``reuse`` x ``sr_batch > 1`` used to raise.  A worker decodes
        whole segments in order on its own engine, so exact reuse under
        two workers replays the tiles the serial reuse session replays
        and emits the frames of a session without reuse."""
        plain = _play(static_package, None, FastPathConfig(tile=16))
        serial = _play(static_package, None,
                       FastPathConfig(tile=16, reuse=True))
        pooled = _play(static_package, None,
                       FastPathConfig(tile=16, reuse=True, prefetch=2,
                                      sr_batch=2))
        assert serial.telemetry.reused_tiles > 0
        assert [s.sr_reused_tiles for s in pooled.telemetry.segments] \
            == [s.sr_reused_tiles for s in serial.telemetry.segments]
        assert len(pooled.frames) == len(plain.frames)
        for ours, theirs in zip(pooled.frames, plain.frames):
            assert np.array_equal(ours, theirs)

    def test_reuse_telemetry_rolls_up(self, package, small_clip):
        result = _play(package, small_clip.frames,
                       FastPathConfig(reuse=True))
        t = result.telemetry
        assert t.reused_tiles == sum(s.sr_reused_tiles for s in t.segments)
        # The three-way partition holds at session scope too.
        assert t.tile_count + t.skipped_tiles + t.reused_tiles > 0

    def test_reuse_validation(self):
        with pytest.raises(TypeError, match="reuse must be"):
            FastPathConfig(reuse=-0.5)
