"""Inference kernels, packed-weight cache, zero retention.

The contract under test: the NHWC shift kernel matches the training conv
``conv2d_forward`` within float32 reassociation (epilogues included),
packed weights invalidate when a Parameter updates, and the inference
engine retains nothing while leaving the training path untouched.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.gradcheck import check_layer_gradients


def _conv_case(rng, cin, cout, k, h, w, n=2, bias=True):
    x = rng.standard_normal((n, cin, h, w)).astype(np.float32)
    weight = (rng.standard_normal((cout, cin, k, k)) * 0.3).astype(np.float32)
    b = rng.standard_normal(cout).astype(np.float32) if bias else None
    return x, weight, b


class TestShiftNhwc:
    @pytest.mark.parametrize("cin,cout,k", [(3, 8, 3), (8, 8, 1), (4, 6, 5)])
    def test_matches_reference_within_reassociation(self, cin, cout, k):
        rng = np.random.default_rng(4)
        x, weight, bias = _conv_case(rng, cin, cout, k, 10, 12)
        ref = F.conv2d_forward(x, weight, bias, padding=k // 2)
        packed = F.pack_conv_weight(weight, bias)
        out = F.conv2d_shift_nhwc(x.transpose(0, 2, 3, 1), packed)
        assert np.abs(out.transpose(0, 3, 1, 2) - ref).max() < 1e-5

    def test_no_bias(self):
        rng = np.random.default_rng(1)
        x, weight, _ = _conv_case(rng, 4, 4, 3, 8, 8, bias=False)
        ref = F.conv2d_forward(x, weight, None, padding=1)
        out = F.conv2d_shift_nhwc(x.transpose(0, 2, 3, 1),
                                  F.pack_conv_weight(weight, None))
        assert np.abs(out.transpose(0, 3, 1, 2) - ref).max() < 1e-5

    def test_fused_relu_epilogue(self):
        rng = np.random.default_rng(2)
        x, weight, bias = _conv_case(rng, 4, 6, 3, 8, 8)
        packed = F.pack_conv_weight(weight, bias)
        ref = np.maximum(F.conv2d_forward(x, weight, bias, padding=1), 0.0)
        out = F.conv2d_shift_nhwc(x.transpose(0, 2, 3, 1), packed, relu=True)
        assert np.abs(out.transpose(0, 3, 1, 2) - ref).max() < 1e-5
        assert out.min() == 0.0

    def test_fused_residual_epilogue(self):
        rng = np.random.default_rng(3)
        x, weight, bias = _conv_case(rng, 6, 6, 3, 8, 8)
        packed = F.pack_conv_weight(weight, bias)
        res = rng.standard_normal(x.shape).astype(np.float32)
        scale = np.float32(0.1)
        ref = res + F.conv2d_forward(x, weight, bias, padding=1) * scale
        out = F.conv2d_shift_nhwc(x.transpose(0, 2, 3, 1), packed,
                                  residual=res.transpose(0, 2, 3, 1),
                                  res_scale=scale)
        assert np.abs(out.transpose(0, 3, 1, 2) - ref).max() < 1e-5

    def test_fused_epilogues(self):
        rng = np.random.default_rng(5)
        x, weight, bias = _conv_case(rng, 6, 6, 3, 9, 9)
        packed = F.pack_conv_weight(weight, bias)
        res = rng.standard_normal(x.shape).astype(np.float32)
        ref = res + np.maximum(
            F.conv2d_forward(x, weight, bias, padding=1), 0.0) * 0.2
        relu_only = F.conv2d_shift_nhwc(
            x.transpose(0, 2, 3, 1), packed, relu=True,
            residual=res.transpose(0, 2, 3, 1), res_scale=0.2)
        assert np.abs(relu_only.transpose(0, 3, 1, 2) - ref).max() < 1e-5

    def test_pixel_shuffle_nhwc_matches_nchw(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 4, 5, 12)).astype(np.float32)
        ref = F.pixel_shuffle(x.transpose(0, 3, 1, 2), 2)
        out = F.pixel_shuffle_nhwc(x, 2)
        assert np.array_equal(out.transpose(0, 3, 1, 2), ref)


class TestPackedCacheInvalidation:
    def test_parameter_version_bumps_on_assignment(self):
        p = nn.Parameter(np.zeros((2, 2), dtype=np.float32), name="p")
        v0 = p.version
        p.data = np.ones((2, 2), dtype=np.float32)
        assert p.version == v0 + 1
        p.data -= 0.5                      # in-place op goes through setter
        assert p.version == v0 + 2

    def test_conv_repacks_after_update(self):
        conv = nn.Conv2d(3, 4, 3, rng=np.random.default_rng(7))
        p1 = conv.packed()
        assert conv.packed() is p1         # cached while weights unchanged
        conv.weight.data -= 0.1
        p2 = conv.packed()
        assert p2 is not p1
        assert not np.array_equal(p1.taps, p2.taps)

    def test_pack_does_not_alias_live_weight(self):
        conv = nn.Conv2d(3, 4, 3, rng=np.random.default_rng(8))
        p1 = conv.packed()
        before = p1.taps.copy()
        conv.weight.data -= 1.0
        assert np.array_equal(p1.taps, before)  # old pack frozen

    def test_optimizer_step_invalidates(self):
        conv = nn.Conv2d(3, 4, 3, rng=np.random.default_rng(9))
        x = np.random.default_rng(10).standard_normal(
            (1, 3, 6, 6)).astype(np.float32)
        p1 = conv.packed()
        out = conv.forward(x)
        conv.backward(np.ones_like(out))
        nn.Adam(conv.parameters(), lr=0.1).step()
        assert conv.packed() is not p1
        out_after = F.conv2d_shift_nhwc(x.transpose(0, 2, 3, 1),
                                        conv.packed())
        ref_after = F.conv2d_forward(x, conv.weight.data, conv.bias.data,
                                     stride=conv.stride,
                                     padding=conv.padding)
        assert np.abs(out_after.transpose(0, 3, 1, 2)
                      - ref_after).max() < 1e-5


class TestZeroRetention:
    """Inference retains nothing: the engine runs packed weights through
    the NHWC kernels and never calls a layer's caching ``forward``."""

    def test_conv_inference_caches_nothing(self):
        from repro.sr import EDSR, EdsrConfig, InferenceEngine

        model = EDSR(EdsrConfig(n_resblocks=1, n_filters=4), seed=11)
        frame = np.random.default_rng(12).random((6, 6, 3), dtype=np.float32)
        InferenceEngine(model, tile=4).enhance(frame)
        layers = list(_walk(model))
        convs = [layer for layer in layers if isinstance(layer, nn.Conv2d)]
        assert len(convs) == 5                  # head, 2 in the block, 2 tail
        assert all(conv._x is None for conv in convs)
        relus = [layer for layer in layers if isinstance(layer, nn.ReLU)]
        assert relus and not any(hasattr(relu, "_mask") for relu in relus)

    def test_training_path_untouched_after_inference(self):
        """Gradcheck still passes after interleaved inference calls —
        the fast path must not perturb cached activations."""
        rng = np.random.default_rng(14)
        conv = nn.Conv2d(2, 3, 3, rng=rng)
        x = rng.standard_normal((2, 2, 5, 5)).astype(np.float32)
        F.conv2d_shift_nhwc(
            rng.standard_normal((1, 7, 7, 2)).astype(np.float32),
            conv.packed())
        check_layer_gradients(conv, x, rng)

    def test_sigmoid_single_exp_matches_reference(self):
        x = np.array([[-120.0, -60.0, -3.0, 0.0, 3.0, 60.0, 120.0]],
                     dtype=np.float32)
        # the pre-fix formulation, computed directly
        e = np.exp(np.clip(x, -60.0, 60.0))
        ref = (e / (1.0 + e)).astype(np.float32)
        out = nn.Sigmoid().forward(x)
        assert np.array_equal(out, ref)
        assert out.min() > 0.0               # never exactly 0 (no overflow)


def _walk(layer):
    """Every layer of a model, depth first."""
    yield layer
    for child in vars(layer).values():
        if isinstance(child, nn.Layer):
            yield from _walk(child)
        elif isinstance(child, list):
            for item in child:
                if isinstance(item, nn.Layer):
                    yield from _walk(item)
