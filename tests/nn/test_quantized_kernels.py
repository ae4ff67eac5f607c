"""Reduced-precision packs: fp16/int8 weights dequantized once, through
the engine's two kernels.

Two layers of contract:

- **Pack semantics** — a reduced precision packs the weights its
  checkpoint carries: fp16 rounds weights and bias to half; int8 keeps
  per-output-channel symmetric codes (round to nearest, clipped at ±127)
  times their scale and a float32 bias, rebuilt deterministically from the
  fp32 weights.  The operands are float32, so every conv runs the fp32
  kernels on them — a wide int8 conv is as welcome as a narrow one.
- **Kernel parity** — the blocked im2col GEMM and the tap-decomposed
  NHWC shift kernel compute the same function at every precision, to
  fp32 reassociation noise (the two sum partial products in different
  orders), and a batch is its frames, bit for bit.
"""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.layers import Conv2d

from ..sr.reference_checkpoint import checkpoint, reconstruct


def _rand_case(seed, n=2, h=6, w=7, cin=3, cout=4, k=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, cin, h, w)).astype(np.float32)
    weight = rng.normal(scale=0.3, size=(cout, cin, k, k)).astype(np.float32)
    bias = rng.normal(size=(cout,)).astype(np.float32)
    return x, weight, bias


def _to_nhwc(x):
    return np.ascontiguousarray(np.transpose(x, (0, 2, 3, 1)))


class TestQuantizeConvWeight:
    def test_fp16_rounds_to_half_grid(self):
        """Weights and bias alike: an fp16 checkpoint ships every
        parameter at 2 bytes."""
        _, weight, bias = _rand_case(0)
        qw = F.pack_conv_weight(weight, bias, "fp16")
        assert qw.precision == "fp16"
        for arr in (qw.taps, qw.mat_t, qw.bias):
            assert arr.dtype == np.float32
            assert np.array_equal(arr,
                                  arr.astype(np.float16).astype(np.float32))
        assert not np.array_equal(qw.bias, bias)

    def test_int8_per_channel_symmetric(self):
        _, weight, bias = _rand_case(1)
        qw = F.pack_conv_weight(weight, bias, "int8")
        cout = weight.shape[0]
        flat = weight.reshape(cout, -1)
        scales = (np.abs(flat).max(axis=1) / 127.0).astype(np.float32)
        # Every weight is an integer code in [-127, 127] times its
        # channel's scale (mat_t is (Cin*KH*KW, Cout)), to the rounding of
        # that product …
        codes = qw.mat_t.T / scales[:, None]
        np.testing.assert_allclose(codes, np.rint(codes), rtol=0, atol=1e-4)
        assert np.rint(np.abs(codes)).max() == 127.0
        # … within half a step of the fp32 weight, and the bias is the
        # float32 bias the checkpoint ships.
        assert np.all(np.abs(qw.mat_t.T - flat)
                      <= 0.5 * scales[:, None] + 1e-7)
        assert np.array_equal(qw.bias, bias)

    def test_int8_zero_channel_safe(self):
        _, weight, bias = _rand_case(2)
        weight[1] = 0.0
        qw = F.pack_conv_weight(weight, bias, "int8")
        assert np.all(qw.mat_t.T[1] == 0.0)
        assert np.isfinite(qw.mat_t).all()

    def test_wide_int8_conv_meets_the_oracle(self):
        """128 -> 16, 3x3: a reduction depth of 1152, past the 1040 the
        old exact-integer accumulation allowed.  The int8 conv is the fp32
        conv on the weights its checkpoint reconstructs, bit for bit."""
        rng = np.random.default_rng(6)
        conv = Conv2d(128, 16, 3, rng=rng)
        conv.bias.data = rng.standard_normal(16).astype(np.float32)
        shipped = checkpoint(conv, "int8")
        assert [a.dtype for arrays in shipped.values() for a in arrays] == [
            np.int8, np.float32, np.float32]
        weight, bias = reconstruct(shipped).values()
        oracle = F.pack_conv_weight(weight, bias)
        x = rng.standard_normal((2, 9, 11, 128)).astype(np.float32)
        res = rng.standard_normal((2, 9, 11, 16)).astype(np.float32)
        for kernel in (F.conv2d_shift_nhwc, F.conv2d_im2col_nhwc):
            out = kernel(x, conv.packed("int8"), relu=True, residual=res,
                         res_scale=0.5)
            expected = kernel(x, oracle, relu=True, residual=res,
                              res_scale=0.5)
            assert np.array_equal(out.view(np.uint32),
                                  expected.view(np.uint32))

    def test_unknown_precision_raises(self):
        _, weight, bias = _rand_case(3)
        with pytest.raises(ValueError):
            F.pack_conv_weight(weight, bias, "int4")

    def test_fp32_pack_is_the_weight_itself(self):
        _, weight, bias = _rand_case(5)
        packed = F.pack_conv_weight(weight, bias)
        assert packed.precision == "fp32"
        assert np.array_equal(packed.mat_t, weight.reshape(4, -1).T)
        assert np.array_equal(packed.taps, weight.transpose(2, 3, 1, 0))
        assert np.array_equal(packed.bias, bias)

    def test_reconstruction_is_deterministic(self):
        """Clients rebuild the pack from the checkpoint: same input, same
        operands, bit for bit."""
        _, weight, bias = _rand_case(4)
        for precision in F.PRECISIONS:
            a = F.pack_conv_weight(weight, bias, precision)
            b = F.pack_conv_weight(weight.copy(), bias.copy(), precision)
            for name in ("taps", "mat_t", "bias"):
                assert np.array_equal(getattr(a, name).view(np.uint32),
                                      getattr(b, name).view(np.uint32))


class TestKernelParity:
    """The blocked GEMM and the shift kernel agree to reassociation noise
    at every precision: both run fp32 arithmetic on the packed weights."""

    @pytest.mark.parametrize("precision", ["fp16", "int8"])
    @pytest.mark.parametrize("relu", [False, True])
    def test_gemm_matches_shift(self, precision, relu):
        x, weight, bias = _rand_case(10)
        qw = F.pack_conv_weight(weight, bias, precision)
        gemm = F.conv2d_im2col_nhwc(_to_nhwc(x), qw, relu=relu)
        shift = F.conv2d_shift_nhwc(_to_nhwc(x), qw, relu=relu)
        np.testing.assert_allclose(gemm, shift, atol=1e-5, rtol=1e-5)

    @pytest.mark.parametrize("precision", ["fp16", "int8"])
    def test_residual_epilogue_matches(self, precision):
        x, weight, bias = _rand_case(11)
        res = np.random.default_rng(12).normal(
            size=(2, 4, 6, 7)).astype(np.float32)
        qw = F.pack_conv_weight(weight, bias, precision)
        gemm = F.conv2d_im2col_nhwc(_to_nhwc(x), qw, residual=_to_nhwc(res),
                                    res_scale=0.5)
        shift = F.conv2d_shift_nhwc(_to_nhwc(x), qw, residual=_to_nhwc(res),
                                    res_scale=0.5)
        np.testing.assert_allclose(gemm, shift, atol=1e-5, rtol=1e-5)

    def test_fp16_close_to_fp32(self):
        x, weight, bias = _rand_case(13)
        x = _to_nhwc(x)
        ref = F.conv2d_shift_nhwc(x, F.pack_conv_weight(weight, bias))
        out = F.conv2d_shift_nhwc(x, F.pack_conv_weight(weight, bias, "fp16"))
        # Weight and bias rounding only: error bounded by a few
        # half-precision ulps through a depth-27 accumulation.
        assert np.max(np.abs(out - ref)) < 2e-2

    def test_int8_error_bounded_by_scales(self):
        x, weight, bias = _rand_case(14)
        x = _to_nhwc(x)
        ref = F.conv2d_shift_nhwc(x, F.pack_conv_weight(weight, bias))
        out = F.conv2d_shift_nhwc(x, F.pack_conv_weight(weight, bias, "int8"))
        rel = np.max(np.abs(out - ref)) / max(np.max(np.abs(ref)), 1e-6)
        assert rel < 0.05


class TestInt8BatchInvariance:
    """An int8 pack scales no activation, so an ``(N, ...)`` call is N
    single-frame calls, bit for bit, in every kernel."""

    def _frames(self):
        # Frames of very different range — a batch-wide activation scale
        # would crush the quiet frame onto a handful of codes.
        x, weight, bias = _rand_case(20, n=3)
        x[1] *= 0.01
        x[2] *= 30.0
        return x, F.pack_conv_weight(weight, bias, "int8")

    def test_gemm(self):
        """The unblocked GEMM (one matmul per image) with a fused ReLU."""
        x, packed = self._frames()
        x = _to_nhwc(x)
        batch = F.conv2d_im2col_nhwc(x, packed, relu=True, block_rows=0)
        for i in range(len(x)):
            single = F.conv2d_im2col_nhwc(x[i:i + 1], packed, relu=True,
                                          block_rows=0)
            assert np.array_equal(batch[i], single[0])

    @pytest.mark.parametrize("kernel", [F.conv2d_shift_nhwc,
                                        F.conv2d_im2col_nhwc])
    def test_nhwc_kernels(self, kernel):
        x, packed = self._frames()
        x = _to_nhwc(x)
        batch = kernel(x, packed)
        for i in range(len(x)):
            assert np.array_equal(batch[i], kernel(x[i:i + 1], packed)[0])

    def test_all_zero_frame_in_a_batch(self):
        x, packed = self._frames()
        x[0] = 0.0
        out = F.conv2d_shift_nhwc(_to_nhwc(x), packed)
        assert np.array_equal(out[0], np.broadcast_to(packed.bias,
                                                      out[0].shape))


class TestPackedPrecisionCache:
    def test_versions_keyed_per_precision(self):
        conv = Conv2d(3, 4, 3, rng=np.random.default_rng(0))
        p32 = conv.packed()
        p8 = conv.packed("int8")
        p16 = conv.packed("fp16")
        assert conv.packed() is p32
        assert conv.packed("int8") is p8
        assert conv.packed("fp16") is p16
        assert (p32.precision, p8.precision, p16.precision) == (
            "fp32", "int8", "fp16")

    def test_weight_update_invalidates_all_precisions(self):
        conv = Conv2d(3, 4, 3, rng=np.random.default_rng(0))
        stale8 = conv.packed("int8")
        conv.weight.data = conv.weight.data * 0.5
        fresh8 = conv.packed("int8")
        assert fresh8 is not stale8
        assert np.array_equal(fresh8.taps, 0.5 * stale8.taps)

    def test_invalid_precision_raises(self):
        conv = Conv2d(3, 4, 3, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            conv.packed("bf16")
