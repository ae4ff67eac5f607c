"""Gradient-check every layer and verify layer semantics."""

import numpy as np
import pytest

from repro import nn
from repro.nn.gradcheck import check_layer_gradients


RNG = np.random.default_rng(1234)


def _x(shape):
    return RNG.normal(size=shape).astype(np.float32)


class TestGradients:
    """Analytic vs numerical gradients for each layer type."""

    def test_conv_same(self):
        layer = nn.Conv2d(2, 3, 3, rng=np.random.default_rng(0))
        check_layer_gradients(layer, _x((2, 2, 5, 5)), RNG)

    def test_conv_stride2(self):
        layer = nn.Conv2d(2, 2, 3, stride=2, padding=1, rng=np.random.default_rng(1))
        check_layer_gradients(layer, _x((1, 2, 6, 6)), RNG)

    def test_conv_one_input_channel(self):
        layer = nn.Conv2d(1, 2, 3, rng=np.random.default_rng(2))
        check_layer_gradients(layer, _x((1, 1, 5, 5)), RNG)

    def test_dense(self):
        layer = nn.Dense(6, 4, rng=np.random.default_rng(3))
        check_layer_gradients(layer, _x((3, 6)), RNG)

    def test_relu(self):
        check_layer_gradients(nn.ReLU(), _x((2, 3, 4, 4)) + 0.05, RNG)

    def test_sigmoid(self):
        check_layer_gradients(nn.Sigmoid(), _x((2, 5)), RNG)

    def test_tanh(self):
        check_layer_gradients(nn.Tanh(), _x((2, 5)), RNG)

    def test_flatten(self):
        check_layer_gradients(nn.Flatten(), _x((2, 2, 3, 3)), RNG)

    def test_reshape(self):
        check_layer_gradients(nn.Reshape((2, 2, 2)), _x((3, 8)), RNG)

    def test_pixel_shuffle(self):
        check_layer_gradients(nn.PixelShuffle(2), _x((1, 8, 3, 3)), RNG)

    def test_nearest_upsample(self):
        check_layer_gradients(nn.NearestUpsample(2), _x((1, 2, 3, 3)), RNG)

    def test_scale(self):
        check_layer_gradients(nn.Scale(0.3), _x((2, 4)), RNG)

    def test_sequential(self):
        layer = nn.Sequential(
            nn.Conv2d(1, 2, 3, rng=np.random.default_rng(4)),
            nn.ReLU(),
            nn.Conv2d(2, 1, 3, rng=np.random.default_rng(5)),
        )
        check_layer_gradients(layer, _x((1, 1, 5, 5)), RNG)

    def test_residual_block(self):
        layer = nn.ResidualBlock(2, res_scale=0.5, rng=np.random.default_rng(6))
        check_layer_gradients(layer, _x((1, 2, 5, 5)), RNG)

    def test_upsampler_x2(self):
        layer = nn.Upsampler(2, 2, rng=np.random.default_rng(7))
        check_layer_gradients(layer, _x((1, 2, 3, 3)), RNG)

    def test_global_skip(self):
        layer = nn.GlobalSkip(nn.Conv2d(2, 2, 3, rng=np.random.default_rng(8)))
        check_layer_gradients(layer, _x((1, 2, 4, 4)), RNG)


class TestSemantics:
    def test_relu_clamps_negative(self):
        y = nn.ReLU().forward(np.array([[-1.0, 2.0]], dtype=np.float32))
        np.testing.assert_array_equal(y, [[0.0, 2.0]])

    def test_sigmoid_range(self):
        y = nn.Sigmoid().forward(np.array([[-100.0, 0.0, 100.0]], dtype=np.float32))
        assert np.all(y >= 0) and np.all(y <= 1)
        assert np.isclose(y[0, 1], 0.5)

    def test_conv_same_preserves_shape(self):
        layer = nn.Conv2d(3, 8, 3)
        assert layer.forward(_x((2, 3, 9, 11))).shape == (2, 8, 9, 11)

    def test_conv_even_kernel_same_raises(self):
        with pytest.raises(ValueError):
            nn.Conv2d(1, 1, 4, padding="same")

    def test_conv_backward_before_forward_raises(self):
        layer = nn.Conv2d(1, 1, 3)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 1, 3, 3), np.float32))

    def test_dense_shapes(self):
        layer = nn.Dense(4, 7)
        assert layer.forward(_x((5, 4))).shape == (5, 7)

    def test_sequential_iteration(self):
        seq = nn.Sequential(nn.ReLU(), nn.Tanh())
        assert len(seq) == 2
        assert isinstance(list(seq)[0], nn.ReLU)

    def test_sequential_append(self):
        seq = nn.Sequential()
        seq.append(nn.ReLU())
        assert len(seq) == 1

    def test_num_parameters(self):
        layer = nn.Conv2d(2, 3, 3)  # 3*2*3*3 + 3 = 57
        assert sum(p.size for p in layer.parameters()) == 57

    def test_zero_grad(self):
        layer = nn.Dense(3, 3)
        layer.forward(_x((2, 3)))
        layer.backward(_x((2, 3)))
        assert np.any(layer.weight.grad != 0)
        layer.zero_grad()
        assert np.all(layer.weight.grad == 0)

    def test_residual_block_zero_body_is_identity(self):
        block = nn.ResidualBlock(2, rng=np.random.default_rng(9))
        for p in block.parameters():
            p.data[...] = 0.0
        x = _x((1, 2, 4, 4))
        np.testing.assert_array_equal(block.forward(x), x)

    def test_upsampler_scale1_is_noop(self):
        up = nn.Upsampler(4, 1)
        x = _x((1, 4, 3, 3))
        np.testing.assert_array_equal(up.forward(x), x)

    def test_upsampler_x4_shape(self):
        up = nn.Upsampler(2, 4, rng=np.random.default_rng(10))
        assert up.forward(_x((1, 2, 3, 3))).shape == (1, 2, 12, 12)

    def test_upsampler_x3_shape(self):
        up = nn.Upsampler(2, 3, rng=np.random.default_rng(11))
        assert up.forward(_x((1, 2, 3, 3))).shape == (1, 2, 9, 9)

    def test_upsampler_bad_scale(self):
        with pytest.raises(ValueError):
            nn.Upsampler(2, 5)

    def test_parameter_shape_check(self):
        p = nn.Parameter(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            p.accumulate(np.zeros((3, 3), dtype=np.float32))

    def test_deterministic_init(self):
        a = nn.Conv2d(2, 2, 3, rng=np.random.default_rng(7))
        b = nn.Conv2d(2, 2, 3, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(a.weight.data, b.weight.data)
