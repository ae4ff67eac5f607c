"""Tests for resampling and quality metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.video import downscale, mse, psnr, resize, ssim, upscale
from repro.video.sampling import cubic_kernel


class TestCubicKernel:
    def test_value_at_zero(self):
        assert np.isclose(cubic_kernel(np.array([0.0]))[0], 1.0)

    def test_zero_at_integers(self):
        vals = cubic_kernel(np.array([1.0, 2.0, -1.0]))
        np.testing.assert_allclose(vals, 0.0, atol=1e-12)

    def test_support(self):
        assert cubic_kernel(np.array([2.5]))[0] == 0.0

    def test_symmetric(self):
        x = np.linspace(0, 2, 20)
        np.testing.assert_allclose(cubic_kernel(x), cubic_kernel(-x))


class TestResize:
    def test_identity(self):
        img = np.random.default_rng(0).uniform(size=(8, 10)).astype(np.float32)
        np.testing.assert_allclose(resize(img, (8, 10)), img, atol=1e-5)

    def test_constant_preserved(self):
        img = np.full((8, 8), 0.5, dtype=np.float32)
        out = resize(img, (16, 16))
        np.testing.assert_allclose(out, 0.5, atol=1e-5)

    def test_constant_preserved_downscale(self):
        img = np.full((16, 16), 0.25, dtype=np.float32)
        np.testing.assert_allclose(resize(img, (4, 4)), 0.25, atol=1e-5)

    def test_multichannel(self):
        img = np.random.default_rng(1).uniform(size=(8, 8, 3)).astype(np.float32)
        out = resize(img, (16, 12))
        assert out.shape == (16, 12, 3)

    def test_clip_bounds(self):
        img = np.zeros((8, 8), dtype=np.float32)
        img[4, 4] = 1.0
        out = resize(img, (16, 16))
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_wrong_rank(self):
        with pytest.raises(ValueError):
            resize(np.zeros(4, np.float32), (2, 2))

    def test_gradient_preserved_on_upscale(self):
        """A linear ramp stays (approximately) linear under bicubic."""
        ramp = np.tile(np.linspace(0.1, 0.9, 16, dtype=np.float32), (8, 1))
        up = resize(ramp, (8, 32))
        row = up[4]
        diffs = np.diff(row[4:-4])
        assert np.all(diffs > 0)

    def test_downscale_upscale_recovers_smooth(self):
        yy, xx = np.mgrid[0:32, 0:32] / 31.0
        smooth = (0.5 + 0.3 * np.sin(2 * np.pi * yy) * np.cos(np.pi * xx)).astype(np.float32)
        rec = upscale(downscale(smooth, 2), 2)
        assert psnr(smooth, rec) > 30.0

    def test_downscale_indivisible_raises(self):
        with pytest.raises(ValueError):
            downscale(np.zeros((9, 8), np.float32), 2)


class TestPsnr:
    def test_identical_is_inf(self):
        a = np.random.default_rng(2).uniform(size=(8, 8))
        assert psnr(a, a) == float("inf")

    def test_known_value(self):
        a = np.zeros((4, 4))
        b = np.full((4, 4), 0.1)
        assert np.isclose(psnr(a, b), 20.0)

    def test_data_range(self):
        a = np.zeros((4, 4))
        b = np.full((4, 4), 25.5)
        assert np.isclose(psnr(a, b, data_range=255.0), 20.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.zeros(3), np.zeros(4))

    @given(st.floats(0.01, 0.5))
    @settings(max_examples=20, deadline=None)
    def test_property_monotone_in_noise(self, amp):
        rng = np.random.default_rng(3)
        a = rng.uniform(0.3, 0.7, size=(16, 16))
        noise = rng.normal(0, 1, size=(16, 16))
        low = psnr(a, np.clip(a + amp * 0.5 * noise, 0, 1))
        high = psnr(a, np.clip(a + amp * noise, 0, 1))
        assert low >= high - 1e-9


class TestSsim:
    def test_identical_is_one(self):
        a = np.random.default_rng(4).uniform(size=(32, 32))
        assert np.isclose(ssim(a, a), 1.0)

    def test_range(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(size=(32, 32))
        b = rng.uniform(size=(32, 32))
        val = ssim(a, b)
        assert -1.0 <= val <= 1.0

    def test_noise_lowers_ssim(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(0.3, 0.7, size=(32, 32))
        b = np.clip(a + rng.normal(0, 0.2, size=(32, 32)), 0, 1)
        assert ssim(a, b) < 0.95

    def test_symmetric(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(size=(32, 32))
        b = np.clip(a + rng.normal(0, 0.05, size=(32, 32)), 0, 1)
        assert np.isclose(ssim(a, b), ssim(b, a), atol=1e-10)

    def test_multichannel_averages(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(size=(16, 16, 3))
        per_channel = np.mean([ssim(a[..., c], a[..., c]) for c in range(3)])
        assert np.isclose(ssim(a, a), per_channel)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((4, 4)), np.zeros((4, 5)))

    def test_blur_vs_noise_ordering(self):
        """SSIM penalises structural loss: strong noise scores below mild blur."""
        from scipy.ndimage import gaussian_filter
        rng = np.random.default_rng(9)
        yy, xx = np.mgrid[0:64, 0:64] / 63.0
        img = 0.5 + 0.25 * np.sin(8 * np.pi * xx) * np.sin(6 * np.pi * yy)
        blurred = gaussian_filter(img, 0.6)
        noisy = np.clip(img + rng.normal(0, 0.25, img.shape), 0, 1)
        assert ssim(img, blurred) > ssim(img, noisy)


class TestMse:
    def test_zero(self):
        assert mse(np.ones(4), np.ones(4)) == 0.0

    def test_value(self):
        assert np.isclose(mse(np.zeros(2), np.array([1.0, 1.0])), 1.0)
