"""Tests for frame containers and color conversion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.video import (
    YuvFrame,
    downsample_chroma,
    rgb_float_to_uint8,
    rgb_to_yuv420,
    rgb_uint8_to_float,
    upsample_chroma,
    validate_rgb,
    yuv420_to_rgb,
)


class TestYuvFrame:
    def test_valid_construction(self):
        f = YuvFrame(np.zeros((4, 6)), np.zeros((2, 3)), np.zeros((2, 3)))
        assert f.height == 4 and f.width == 6
        assert f.size == (4, 6)

    def test_odd_luma_raises(self):
        with pytest.raises(ValueError):
            YuvFrame(np.zeros((5, 6)), np.zeros((2, 3)), np.zeros((2, 3)))

    def test_wrong_chroma_raises(self):
        with pytest.raises(ValueError):
            YuvFrame(np.zeros((4, 6)), np.zeros((2, 2)), np.zeros((2, 3)))

    def test_copy_is_deep(self):
        f = YuvFrame(np.zeros((2, 2)), np.zeros((1, 1)), np.zeros((1, 1)))
        g = f.copy()
        g.y[0, 0] = 255
        assert f.y[0, 0] == 0

    def test_equality(self):
        f = YuvFrame(np.zeros((2, 2)), np.zeros((1, 1)), np.zeros((1, 1)))
        assert f == f.copy()
        g = f.copy()
        g.y[0, 0] = 1
        assert f != g

    def test_nbytes(self):
        f = YuvFrame(np.zeros((4, 4)), np.zeros((2, 2)), np.zeros((2, 2)))
        assert f.nbytes() == 16 + 4 + 4

    def test_dtype_coerced(self):
        f = YuvFrame(np.zeros((2, 2), np.float64), np.zeros((1, 1)), np.zeros((1, 1)))
        assert f.y.dtype == np.uint8


class TestValidateRgb:
    def test_accepts_valid(self):
        rgb = np.random.default_rng(0).uniform(size=(4, 4, 3)).astype(np.float32)
        out = validate_rgb(rgb)
        assert out.dtype == np.float32

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            validate_rgb(np.zeros((4, 4)))

    def test_rejects_wrong_channels(self):
        with pytest.raises(ValueError):
            validate_rgb(np.zeros((4, 4, 4)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            validate_rgb(np.full((2, 2, 3), 2.0))

    def test_clips_epsilon_overshoot(self):
        out = validate_rgb(np.full((2, 2, 3), 1.0005))
        assert out.max() <= 1.0


class TestUint8Conversion:
    def test_roundtrip(self):
        rgb = np.random.default_rng(1).uniform(size=(4, 4, 3)).astype(np.float32)
        back = rgb_uint8_to_float(rgb_float_to_uint8(rgb))
        np.testing.assert_allclose(back, rgb, atol=1.0 / 255.0)

    def test_uint8_to_float_rejects_float(self):
        with pytest.raises(ValueError):
            rgb_uint8_to_float(np.zeros((2, 2, 3), np.float32))


class TestChroma:
    def test_downsample_constant(self):
        plane = np.full((4, 4), 7.0)
        np.testing.assert_allclose(downsample_chroma(plane), 7.0)

    def test_downsample_averages(self):
        plane = np.array([[0, 4], [8, 12]], dtype=np.float32)
        np.testing.assert_allclose(downsample_chroma(plane), [[6.0]])

    def test_downsample_odd_raises(self):
        with pytest.raises(ValueError):
            downsample_chroma(np.zeros((3, 4)))

    def test_upsample_shape(self):
        assert upsample_chroma(np.zeros((2, 3))).shape == (4, 6)

    def test_up_down_roundtrip(self):
        plane = np.random.default_rng(2).uniform(0, 255, size=(4, 5))
        np.testing.assert_allclose(downsample_chroma(upsample_chroma(plane)), plane)


class TestYuvRgbConversion:
    def test_gray_maps_to_neutral_chroma(self):
        rgb = np.full((4, 4, 3), 0.5, dtype=np.float32)
        yuv = rgb_to_yuv420(rgb)
        assert np.all(np.abs(yuv.u.astype(int) - 128) <= 1)
        assert np.all(np.abs(yuv.v.astype(int) - 128) <= 1)
        assert np.all(np.abs(yuv.y.astype(int) - 128) <= 1)

    def test_black_and_white(self):
        black = rgb_to_yuv420(np.zeros((2, 2, 3), dtype=np.float32))
        white = rgb_to_yuv420(np.ones((2, 2, 3), dtype=np.float32))
        assert np.all(black.y == 0)
        assert np.all(white.y == 255)

    def test_roundtrip_smooth_image(self):
        """Conversion round-trip error is small on chroma-smooth content."""
        rng = np.random.default_rng(3)
        base = rng.uniform(0.2, 0.8, size=(1, 1, 3)).astype(np.float32)
        grad = np.linspace(0, 0.2, 16, dtype=np.float32)[:, None, None]
        rgb = np.clip(base + grad + np.zeros((16, 16, 3), np.float32), 0, 1)
        back = yuv420_to_rgb(rgb_to_yuv420(rgb))
        assert np.max(np.abs(back - rgb)) < 0.03

    def test_luma_independent_of_chroma_subsampling(self):
        """Y plane carries full resolution: a luma-only pattern survives."""
        rgb = np.zeros((8, 8, 3), dtype=np.float32)
        rgb[::2] = 1.0  # horizontal stripes, gray-scale
        yuv = rgb_to_yuv420(rgb)
        assert np.all(yuv.y[0] == 255) and np.all(yuv.y[1] == 0)
        back = yuv420_to_rgb(yuv)
        assert abs(float(back[0].mean()) - 1.0) < 0.02
        assert float(back[1].mean()) < 0.02

    def test_yuv_to_rgb_is_the_out_of_place_formula_without_its_copies(self):
        """The result is scaled and clipped in place; dtype and values are
        those of the ``np.clip(stack / 255).astype(float32)`` it replaced,
        out-of-gamut samples included, and the planes are left alone."""
        rng = np.random.default_rng(8)
        yuv = YuvFrame(rng.integers(0, 256, (16, 24)),
                       rng.integers(0, 256, (8, 12)),
                       rng.integers(0, 256, (8, 12)))
        before = yuv.copy()
        y = yuv.y.astype(np.float32)
        cb = upsample_chroma(yuv.u.astype(np.float32)) - 128.0
        cr = upsample_chroma(yuv.v.astype(np.float32)) - 128.0
        r = y + 2.0 * (1.0 - 0.299) * cr
        b = y + 2.0 * (1.0 - 0.114) * cb
        g = (y - 0.299 * r - 0.114 * b) / 0.587
        expected = np.clip(np.stack([r, g, b], axis=-1) / 255.0,
                           0.0, 1.0).astype(np.float32)
        got = yuv420_to_rgb(yuv)
        assert got.dtype == np.float32 and got.flags.c_contiguous
        assert got.flags.owndata and got.flags.writeable
        assert (expected == 0.0).any() and (expected == 1.0).any()
        assert np.array_equal(got, expected)
        assert yuv == before

    @given(hnp.arrays(np.float32, (4, 4, 3),
                      elements=st.floats(0, 1, width=32)))
    @settings(max_examples=25, deadline=None)
    def test_property_output_in_range(self, rgb):
        back = yuv420_to_rgb(rgb_to_yuv420(rgb))
        assert back.min() >= 0.0 and back.max() <= 1.0

    def test_primary_colors_recoverable(self):
        """Solid primaries survive the 4:2:0 round trip."""
        for color in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]):
            rgb = np.tile(np.array(color, np.float32), (8, 8, 1))
            back = yuv420_to_rgb(rgb_to_yuv420(rgb))
            assert np.max(np.abs(back - rgb)) < 0.02, color
