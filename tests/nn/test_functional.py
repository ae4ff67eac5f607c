"""Unit tests for repro.nn.functional primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F


class TestPad:
    def test_pad_unpad_roundtrip(self):
        x = np.arange(24, dtype=np.float32).reshape(1, 2, 3, 4)
        assert np.array_equal(F.unpad2d(F.pad2d(x, 2), 2), x)

    def test_pad_zero_is_identity(self):
        x = np.ones((1, 1, 2, 2), dtype=np.float32)
        assert F.pad2d(x, 0) is x

    def test_pad_shape(self):
        x = np.ones((2, 3, 4, 5), dtype=np.float32)
        assert F.pad2d(x, 1).shape == (2, 3, 6, 7)


class TestConvForward:
    def test_identity_kernel(self):
        """A centred delta kernel reproduces the input."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 1, 6, 6)).astype(np.float32)
        w = np.zeros((1, 1, 3, 3), dtype=np.float32)
        w[0, 0, 1, 1] = 1.0
        y = F.conv2d_forward(x, w, None, stride=1, padding=1)
        np.testing.assert_allclose(y, x, atol=1e-6)

    def test_averaging_kernel(self):
        x = np.ones((1, 1, 4, 4), dtype=np.float32)
        w = np.full((1, 1, 3, 3), 1.0 / 9.0, dtype=np.float32)
        y = F.conv2d_forward(x, w, None, stride=1, padding=0)
        np.testing.assert_allclose(y, np.ones((1, 1, 2, 2)), atol=1e-6)

    def test_bias_added(self):
        x = np.zeros((1, 2, 4, 4), dtype=np.float32)
        w = np.zeros((3, 2, 1, 1), dtype=np.float32)
        b = np.array([1.0, -2.0, 0.5], dtype=np.float32)
        y = F.conv2d_forward(x, w, b, stride=1, padding=0)
        for c, val in enumerate(b):
            np.testing.assert_allclose(y[:, c], val)

    def test_stride_downsamples(self):
        x = np.ones((1, 1, 8, 8), dtype=np.float32)
        w = np.ones((1, 1, 3, 3), dtype=np.float32)
        y = F.conv2d_forward(x, w, None, stride=2, padding=1)
        assert y.shape == (1, 1, 4, 4)

    def test_channel_mismatch_raises(self):
        x = np.ones((1, 2, 4, 4), dtype=np.float32)
        w = np.ones((1, 3, 3, 3), dtype=np.float32)
        with pytest.raises(ValueError):
            F.conv2d_forward(x, w, None)

    def test_matches_naive_conv(self):
        """Cross-check against a direct nested-loop implementation."""
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 7, 6)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        b = rng.normal(size=(4,)).astype(np.float32)
        for stride, padding in [(1, 0), (1, 1), (2, 1), (2, 0)]:
            y = F.conv2d_forward(x, w, b, stride=stride, padding=padding)
            ref = _naive_conv(x, w, b, stride, padding)
            np.testing.assert_allclose(y, ref, atol=1e-4)


def _naive_conv(x, w, b, stride, padding):
    xp = F.pad2d(x, padding)
    n, cin, h, wd = xp.shape
    cout, _, kh, kw = w.shape
    oh = (h - kh) // stride + 1
    ow = (wd - kw) // stride + 1
    out = np.zeros((n, cout, oh, ow), dtype=np.float64)
    for ni in range(n):
        for co in range(cout):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[ni, :, i * stride:i * stride + kh,
                               j * stride:j * stride + kw]
                    out[ni, co, i, j] = np.sum(patch * w[co]) + b[co]
    return out.astype(np.float32)


class TestConvBackward:
    def test_grad_shapes(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        w = rng.normal(size=(5, 3, 3, 3)).astype(np.float32)
        y = F.conv2d_forward(x, w, np.zeros(5, np.float32), stride=2, padding=1)
        gx, gw, gb = F.conv2d_backward(x, w, np.ones_like(y), stride=2, padding=1)
        assert gx.shape == x.shape
        assert gw.shape == w.shape
        assert gb.shape == (5,)

    def test_no_input_grad(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 1, 4, 4)).astype(np.float32)
        w = rng.normal(size=(1, 1, 3, 3)).astype(np.float32)
        y = F.conv2d_forward(x, w, None, padding=1)
        gx, _, _ = F.conv2d_backward(x, w, np.ones_like(y), padding=1,
                                     need_input_grad=False)
        assert gx is None

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0), (3, 1)])
    def test_input_grad_numerical(self, stride, padding):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 2, 7, 7)).astype(np.float32)
        w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        gout = rng.normal(
            size=F.conv2d_forward(x, w, None, stride=stride, padding=padding).shape
        ).astype(np.float32)
        gx, _, _ = F.conv2d_backward(x, w, gout, stride=stride, padding=padding)

        def f(xv):
            return float(np.sum(F.conv2d_forward(xv, w, None, stride=stride,
                                                 padding=padding) * gout))

        num = _numgrad(f, x)
        np.testing.assert_allclose(gx, num, atol=2e-2, rtol=2e-2)

    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1)])
    def test_weight_grad_numerical(self, stride, padding):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 2, 6, 6)).astype(np.float32)
        w = rng.normal(size=(2, 2, 3, 3)).astype(np.float32)
        gout = rng.normal(
            size=F.conv2d_forward(x, w, None, stride=stride, padding=padding).shape
        ).astype(np.float32)
        _, gw, _ = F.conv2d_backward(x, w, gout, stride=stride, padding=padding)

        def f(wv):
            return float(np.sum(F.conv2d_forward(x, wv, None, stride=stride,
                                                 padding=padding) * gout))

        num = _numgrad(f, w)
        np.testing.assert_allclose(gw, num, atol=2e-2, rtol=2e-2)


def _numgrad(f, x, eps=1e-3):
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        p = f(x)
        flat[i] = orig - eps
        m = f(x)
        flat[i] = orig
        gf[i] = (p - m) / (2 * eps)
    return g


class TestPixelShuffle:
    def test_shape(self):
        x = np.zeros((2, 8, 3, 4), dtype=np.float32)
        assert F.pixel_shuffle(x, 2).shape == (2, 2, 6, 8)

    def test_roundtrip(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 12, 5, 7)).astype(np.float32)
        y = F.pixel_unshuffle(F.pixel_shuffle(x, 2), 2)
        np.testing.assert_array_equal(x, y)

    def test_reverse_roundtrip(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, 3, 6, 8)).astype(np.float32)
        y = F.pixel_shuffle(F.pixel_unshuffle(x, 2), 2)
        np.testing.assert_array_equal(x, y)

    def test_invalid_channels(self):
        with pytest.raises(ValueError):
            F.pixel_shuffle(np.zeros((1, 3, 2, 2), np.float32), 2)

    def test_invalid_spatial(self):
        with pytest.raises(ValueError):
            F.pixel_unshuffle(np.zeros((1, 1, 3, 4), np.float32), 2)

    def test_energy_preserved(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 16, 4, 4)).astype(np.float32)
        y = F.pixel_shuffle(x, 4)
        assert np.isclose(np.sum(x * x), np.sum(y * y))

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_property_roundtrip(self, c, r, hw):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(1, c * r * r, hw, hw)).astype(np.float32)
        y = F.pixel_unshuffle(F.pixel_shuffle(x, r), r)
        np.testing.assert_array_equal(x, y)


class TestUpsample:
    def test_nearest_upsample_values(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32)
        y = F.nearest_upsample(x, 2)
        assert y.shape == (1, 1, 4, 4)
        np.testing.assert_array_equal(y[0, 0, :2, :2], 1.0)
        np.testing.assert_array_equal(y[0, 0, 2:, 2:], 4.0)

    def test_upsample_grad_adjoint(self):
        """<up(x), g> == <x, down_grad(g)> (adjoint property)."""
        rng = np.random.default_rng(9)
        x = rng.normal(size=(1, 2, 3, 3)).astype(np.float32)
        g = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
        lhs = float(np.sum(F.nearest_upsample(x, 2) * g))
        rhs = float(np.sum(x * F.nearest_downsample_grad(g, 2)))
        assert np.isclose(lhs, rhs, rtol=1e-5)
