"""Tests for half-pel motion estimation and compensation."""

import numpy as np
import pytest

from repro.video import detect_segments, make_video, psnr_yuv, rgb_to_yuv420
from repro.video.codec import CodecConfig, Decoder, Encoder
from .scalar_reference import (
    chroma_vector_halfpel,
    compensate,
    compensate_halfpel,
    motion_search_halfpel,
)


class TestCompensateHalfpel:
    def test_even_vector_matches_integer(self):
        rng = np.random.default_rng(0)
        ref = rng.uniform(0, 255, size=(48, 48))
        a = compensate_halfpel(ref, 16, 16, 4, -6, 16, 16)
        b = compensate(ref, 16, 16, 2, -3, 16, 16)
        np.testing.assert_array_equal(a, b)

    def test_half_position_is_average(self):
        ref = np.zeros((32, 32))
        ref[10, :] = 100.0
        ref[11, :] = 200.0
        block = compensate_halfpel(ref, 10, 0, 1, 0, 1, 16)
        np.testing.assert_allclose(block, 150.0)

    def test_horizontal_half_position(self):
        ref = np.zeros((32, 32))
        ref[:, 8] = 40.0
        ref[:, 9] = 80.0
        block = compensate_halfpel(ref, 0, 8, 0, 1, 16, 1)
        np.testing.assert_allclose(block, 60.0)

    def test_diagonal_half_is_four_tap_average(self):
        ref = np.array([[0.0, 10.0], [20.0, 30.0]])
        big = np.zeros((18, 18))
        big[:2, :2] = ref
        block = compensate_halfpel(big, 0, 0, 1, 1, 1, 1)
        np.testing.assert_allclose(block, 15.0)

    def test_out_of_bounds_raises(self):
        ref = np.zeros((32, 32))
        with pytest.raises(ValueError):
            compensate_halfpel(ref, 16, 16, 1, 0, 16, 16)  # needs row 33

    def test_negative_half_vector(self):
        rng = np.random.default_rng(1)
        ref = rng.uniform(0, 255, size=(48, 48))
        block = compensate_halfpel(ref, 16, 16, -1, 0, 16, 16)
        expected = 0.5 * (ref[15:31, 16:32] + ref[16:32, 16:32])
        np.testing.assert_allclose(block, expected)


class TestSearchHalfpel:
    def test_finds_integer_shift_exactly(self):
        rng = np.random.default_rng(2)
        ref = rng.integers(0, 255, size=(64, 64)).astype(np.uint8)
        target = np.zeros_like(ref)
        target[16:32, 16:32] = ref[19:35, 14:30]
        dy, dx, sad = motion_search_halfpel(ref, target, 16, 16)
        assert (dy, dx) == (6, -4)  # half-pel units
        assert sad == 0.0

    def test_finds_half_shift(self):
        """A target built at a half-pel offset is matched with SAD 0."""
        rng = np.random.default_rng(3)
        ref = rng.uniform(0, 255, size=(64, 64))
        shifted = 0.5 * (ref[16:33, 16:32][:-1] + ref[17:34, 16:32][:-1])
        target = np.zeros_like(ref)
        target[16:32, 16:32] = shifted
        dy, dx, sad = motion_search_halfpel(ref, target, 16, 16)
        assert (dy, dx) == (1, 0)
        assert sad < 1e-6

    def test_never_worse_than_integer_search(self):
        from .scalar_reference import motion_search
        rng = np.random.default_rng(4)
        ref = rng.integers(0, 255, size=(64, 64)).astype(np.uint8)
        target = rng.integers(0, 255, size=(64, 64)).astype(np.uint8)
        _, _, sad_int = motion_search(ref, target, 16, 16)
        _, _, sad_half = motion_search_halfpel(ref, target, 16, 16)
        assert sad_half <= sad_int


class TestChromaHalfpel:
    def test_quarter_rounding(self):
        assert chroma_vector_halfpel(4, -4) == (2, -2)
        assert chroma_vector_halfpel(5, -5) == (2, -3)
        assert chroma_vector_halfpel(1, 3) == (0, 1)


class TestHalfpelInLoop:
    @pytest.fixture(scope="class")
    def clip(self):
        return make_video("hp", "documentary", seed=5, size=(32, 48),
                          duration_seconds=2.0, fps=10)

    def test_flag_in_bitstream_roundtrip(self, clip):
        segs = detect_segments(clip.frames)
        for hp in (False, True):
            enc = Encoder(CodecConfig(crf=40, half_pel=hp)).encode(
                clip.frames, segs, fps=clip.fps)
            decoded = Decoder().decode_video(enc)
            assert decoded.n_frames == clip.n_frames

    def test_halfpel_improves_smooth_motion(self, clip):
        """On panning content half-pel prediction beats integer-pel."""
        segs = detect_segments(clip.frames)
        orig = [rgb_to_yuv420(f) for f in clip.frames]
        scores = {}
        for hp in (False, True):
            enc = Encoder(CodecConfig(crf=50, deblock=False,
                                      half_pel=hp)).encode(
                clip.frames, segs, fps=clip.fps)
            dec = Decoder().decode_video(enc)
            scores[hp] = float(np.mean(
                [psnr_yuv(a, b) for a, b in zip(orig, dec.frames)]))
        assert scores[True] > scores[False]

    def test_decode_deterministic_with_halfpel(self, clip):
        segs = detect_segments(clip.frames)
        enc = Encoder(CodecConfig(crf=45, half_pel=True)).encode(
            clip.frames, segs, fps=clip.fps)
        a = Decoder().decode_video(enc)
        b = Decoder().decode_video(enc)
        assert all(x == y for x, y in zip(a.frames, b.frames))
