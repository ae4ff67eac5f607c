"""Tests for the in-loop deblocking filter."""

import numpy as np
import pytest

from repro.video import detect_segments, make_video, psnr_yuv, rgb_to_yuv420
from repro.video.codec import CodecConfig, Decoder, Encoder
from repro.video.codec.deblock import deblock_plane, deblock_strength

from . import scalar_reference as ref


class TestDeblockPlane:
    def test_requires_uint8(self):
        with pytest.raises(ValueError):
            deblock_plane(np.zeros((16, 16), np.float32), 30)

    def test_flat_plane_unchanged(self):
        plane = np.full((16, 16), 100, dtype=np.uint8)
        np.testing.assert_array_equal(deblock_plane(plane, 40), plane)

    def test_smooths_blocking_step(self):
        """A small step at a block boundary shrinks."""
        plane = np.full((16, 16), 100, dtype=np.uint8)
        plane[:, 8:] = 108  # step at the 8-pixel boundary
        out = deblock_plane(plane, 40).astype(np.int64)
        boundary_step = abs(int(out[4, 8]) - int(out[4, 7]))
        assert boundary_step < 8

    def test_preserves_strong_edges(self):
        """A large step (a real image edge) survives the filter."""
        plane = np.full((16, 16), 30, dtype=np.uint8)
        plane[:, 8:] = 220
        out = deblock_plane(plane, 40).astype(np.int64)
        boundary_step = int(out[4, 8]) - int(out[4, 7])
        assert boundary_step > 150

    def test_low_qp_filters_gently(self):
        """Threshold shrinks with QP: at high quality nothing changes."""
        plane = np.full((16, 16), 100, dtype=np.uint8)
        plane[:, 8:] = 108
        gentle = deblock_plane(plane, 0).astype(np.int64)
        strong = deblock_plane(plane, 48).astype(np.int64)
        step_gentle = abs(int(gentle[4, 8]) - int(gentle[4, 7]))
        step_strong = abs(int(strong[4, 8]) - int(strong[4, 7]))
        assert step_strong <= step_gentle

    def test_strength_monotone_in_qp(self):
        alphas = [deblock_strength(qp)[0] for qp in (0, 20, 40, 51)]
        assert all(a < b for a, b in zip(alphas[:-1], alphas[1:]))

    def test_horizontal_boundaries_filtered_too(self):
        plane = np.full((16, 16), 100, dtype=np.uint8)
        plane[8:, :] = 108
        out = deblock_plane(plane, 40).astype(np.int64)
        assert abs(int(out[8, 4]) - int(out[7, 4])) < 8

    def test_output_dtype_and_shape(self):
        plane = np.random.default_rng(0).integers(
            0, 255, size=(24, 32)).astype(np.uint8)
        out = deblock_plane(plane, 30)
        assert out.dtype == np.uint8
        assert out.shape == plane.shape


def _content(kind: str, shape, rng) -> np.ndarray:
    """A flat plane, 8x8 blocks of near-equal levels with a little noise
    (the artifact the filter smooths), or uniform noise."""
    if kind == "flat":
        return np.full(shape, 117, dtype=np.uint8)
    if kind == "random":
        return rng.integers(0, 256, shape).astype(np.uint8)
    rows, cols = -(-shape[0] // 8), -(-shape[1] // 8)
    levels = np.repeat(np.repeat(rng.integers(96, 128, (rows, cols)), 8, 0),
                       8, 1)[:shape[0], :shape[1]]
    return (levels + rng.integers(-2, 3, shape)).astype(np.uint8)


class TestDeblockMatchesScalarReference:
    """``deblock_plane`` filters every edge of an axis through strided views
    of the plane; ``scalar_reference.deblock_plane`` filters one edge at a
    time.  Bit for bit the same at every size, QP and kind of content —
    17x25 and 9x9 put edges on the last line and column, where q0 stands
    in for the missing q1."""

    @pytest.mark.parametrize("shape", [(9, 9), (17, 25), (48, 64),
                                       (176, 320), (352, 640)],
                             ids=lambda shape: f"{shape[0]}x{shape[1]}")
    def test_equals_the_per_edge_filter(self, shape):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        changed = 0
        for kind in ("flat", "blocky", "random"):
            plane = _content(kind, shape, rng)
            for qp in [*range(0, 51, 3), 51]:
                got = deblock_plane(plane, qp)
                assert got.dtype == np.uint8
                assert np.array_equal(got, ref.deblock_plane(plane, qp)), (
                    kind, qp)
                changed += not np.array_equal(got, plane)
        assert changed      # the sweep reaches the filter, not only its test


class TestDeblockInLoop:
    @pytest.fixture(scope="class")
    def clip(self):
        return make_video("db", "documentary", seed=5, size=(32, 48),
                          duration_seconds=2.0, fps=10)

    def test_improves_quality_at_high_crf(self, clip):
        segs = detect_segments(clip.frames)
        orig = [rgb_to_yuv420(f) for f in clip.frames]
        scores = {}
        for deblock in (False, True):
            # half_pel off isolates the filter's own contribution.
            enc = Encoder(CodecConfig(crf=50, deblock=deblock,
                                      half_pel=False)).encode(
                clip.frames, segs, fps=clip.fps)
            dec = Decoder().decode_video(enc)
            scores[deblock] = float(np.mean(
                [psnr_yuv(a, b) for a, b in zip(orig, dec.frames)]))
        assert scores[True] > scores[False] + 0.5

    def test_flag_travels_in_bitstream(self, clip):
        """The decoder learns the deblock setting from the stream itself."""
        segs = detect_segments(clip.frames)
        enc_on = Encoder(CodecConfig(crf=45, deblock=True)).encode(
            clip.frames, segs, fps=clip.fps)
        enc_off = Encoder(CodecConfig(crf=45, deblock=False)).encode(
            clip.frames, segs, fps=clip.fps)
        dec_on = Decoder().decode_video(enc_on)
        dec_off = Decoder().decode_video(enc_off)
        # Different reconstruction despite the same decoder instance type.
        assert any(a != b for a, b in zip(dec_on.frames, dec_off.frames))

    def test_encoder_decoder_stay_in_sync(self, clip):
        """With deblocked references, long P chains must not drift: decode
        twice and compare (closed loop implies determinism)."""
        segs = detect_segments(clip.frames)
        enc = Encoder(CodecConfig(crf=45, deblock=True, n_b_frames=0)).encode(
            clip.frames, segs, fps=clip.fps)
        a = Decoder().decode_video(enc)
        b = Decoder().decode_video(enc)
        assert all(x == y for x, y in zip(a.frames, b.frames))


class TestDeblockProperties:
    def test_idempotent_on_flat_regions(self):
        """Filtering an already-smooth plane twice equals filtering once."""
        from scipy.ndimage import gaussian_filter
        rng = np.random.default_rng(20)
        plane = gaussian_filter(rng.uniform(0, 255, size=(32, 32)), 3)
        plane = plane.astype(np.uint8)
        once = deblock_plane(plane, 30)
        twice = deblock_plane(once, 30)
        assert np.max(np.abs(once.astype(int) - twice.astype(int))) <= 2

    def test_bounded_correction(self):
        """No sample moves further than the filter's correction caps allow."""
        rng = np.random.default_rng(21)
        plane = rng.integers(0, 255, size=(32, 32)).astype(np.uint8)
        for qp in (10, 30, 50):
            out = deblock_plane(plane, qp)
            _, tc = deblock_strength(qp)
            max_move = np.max(np.abs(out.astype(int) - plane.astype(int)))
            # Each sample receives at most the edge correction plus the
            # second-tap correction from both the vertical and the
            # horizontal pass.
            assert max_move <= 2 * (tc + tc / 2) + 1

    def test_mean_preserving_on_interior(self):
        """The filter redistributes values across edges; the plane mean
        stays nearly constant."""
        rng = np.random.default_rng(22)
        plane = rng.integers(0, 255, size=(64, 64)).astype(np.uint8)
        out = deblock_plane(plane, 40)
        assert abs(float(out.mean()) - float(plane.mean())) < 1.0
