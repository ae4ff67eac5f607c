"""Reduced-precision convolution: fp16/int8 packed weights through the
engine's two kernels.

Two layers of contract:

- **Kernel parity** — the blocked im2col GEMM and the tap-decomposed
  NHWC shift kernel compute the same quantized function: *exactly* for int8
  (integer-valued float32 operands make the accumulation order
  irrelevant below the exact-accumulate bound), and to fp32
  reassociation noise for fp16 (operands are rounded once up front, but
  the two kernels sum partial products in different orders).
- **Quantization semantics** — per-output-channel symmetric scales,
  round-to-nearest clipping at ±127, deterministic reconstruction from
  the fp32 weights (scales never ship), and the ``2^24`` exact-
  accumulation depth guard.
"""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.layers import Conv2d


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
        _, weight, bias = _rand_case(0)
        qw = F.pack_conv_weight(weight, bias, "fp16")
        assert qw.precision == "fp16"
        assert qw.scales is None
        for arr in (qw.taps, qw.mat_t):
            assert np.array_equal(arr,
                                  arr.astype(np.float16).astype(np.float32))

    def test_int8_per_channel_symmetric(self):
        _, weight, bias = _rand_case(1)
        qw = F.pack_conv_weight(weight, bias, "int8")
        assert qw.scales.shape == (weight.shape[0],)
        # Stored codes are integers in [-127, 127] …
        assert np.array_equal(qw.mat_t, np.rint(qw.mat_t))
        assert np.abs(qw.mat_t).max() <= 127.0
        # … and dequantization reproduces the fp32 weights to within
        # half a step of each channel's scale (mat_t is (Cin*KH*KW, Cout)).
        cout = weight.shape[0]
        dq = qw.mat_t.T * qw.scales[:, None]
        flat = weight.reshape(cout, -1)
        assert np.all(np.abs(dq - flat) <= 0.5 * qw.scales[:, None] + 1e-7)

    def test_int8_zero_channel_safe(self):
        _, weight, bias = _rand_case(2)
        weight[1] = 0.0
        qw = F.pack_conv_weight(weight, bias, "int8")
        assert qw.scales[1] == 1.0
        assert np.all(qw.mat_t.T[1] == 0.0)

    def test_depth_guard_raises(self):
        # Cin*KH*KW*127*127 >= 2^24 would overflow exact fp32 accumulation.
        cin = F.INT8_EXACT_ACC_BOUND // (127 * 127 * 9) + 1
        weight = np.ones((1, cin, 3, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="overflows exact"):
            F.pack_conv_weight(weight, None, "int8")

    def test_unknown_precision_raises(self):
        _, weight, bias = _rand_case(3)
        with pytest.raises(ValueError):
            F.pack_conv_weight(weight, bias, "int4")

    def test_fp32_pack_is_the_weight_itself(self):
        _, weight, bias = _rand_case(5)
        packed = F.pack_conv_weight(weight, bias)
        assert packed.precision == "fp32" and packed.scales is None
        assert np.array_equal(packed.mat_t, weight.reshape(4, -1).T)
        assert np.array_equal(packed.taps, weight.transpose(2, 3, 1, 0))

    def test_reconstruction_is_deterministic(self):
        """Clients rebuild scales from fp32 weights: same input, same
        quantized kernel, bit for bit."""
        _, weight, bias = _rand_case(4)
        a = F.pack_conv_weight(weight, bias, "int8")
        b = F.pack_conv_weight(weight.copy(), bias.copy(), "int8")
        assert np.array_equal(a.taps, b.taps)
        assert np.array_equal(a.scales, b.scales)
        assert np.array_equal(a.mat_t, b.mat_t)


class TestKernelParity:
    """The blocked GEMM and the shift kernel agree: exactly at int8, to
    reassociation noise at fp16."""

    @pytest.mark.parametrize("precision", ["fp16", "int8"])
    @pytest.mark.parametrize("relu", [False, True])
    def test_gemm_matches_shift(self, precision, relu):
        x, weight, bias = _rand_case(10)
        qw = F.pack_conv_weight(weight, bias, precision)
        gemm = F.conv2d_im2col_nhwc(_to_nhwc(x), qw, relu=relu)
        shift = F.conv2d_shift_nhwc(_to_nhwc(x), qw, relu=relu)
        if precision == "int8":
            assert np.array_equal(gemm, shift)
        else:
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
        if precision == "int8":
            assert np.array_equal(gemm, shift)
        else:
            np.testing.assert_allclose(gemm, shift, atol=1e-5, rtol=1e-5)

    def test_fp16_close_to_fp32(self):
        x, weight, bias = _rand_case(13)
        x = _to_nhwc(x)
        ref = F.conv2d_shift_nhwc(x, F.pack_conv_weight(weight, bias))
        out = F.conv2d_shift_nhwc(x, F.pack_conv_weight(weight, bias, "fp16"))
        # Operand rounding only: error bounded by a few half-precision ulps
        # through a depth-27 accumulation.
        assert np.max(np.abs(out - ref)) < 2e-2

    def test_int8_error_bounded_by_scales(self):
        x, weight, bias = _rand_case(14)
        x = _to_nhwc(x)
        ref = F.conv2d_shift_nhwc(x, F.pack_conv_weight(weight, bias))
        out = F.conv2d_shift_nhwc(x, F.pack_conv_weight(weight, bias, "int8"))
        rel = np.max(np.abs(out - ref)) / max(np.max(np.abs(ref)), 1e-6)
        assert rel < 0.05


class TestInt8BatchInvariance:
    """The int8 activation scale is per frame: an ``(N, ...)`` call is N
    single-frame calls, bit for bit, in every kernel."""

    def _frames(self):
        # Frames of very different range — one batch-wide scale would
        # crush the quiet frame onto a handful of codes.
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
        assert p32.scales is None and p16.scales is None

    def test_weight_update_invalidates_all_precisions(self):
        conv = Conv2d(3, 4, 3, rng=np.random.default_rng(0))
        stale8 = conv.packed("int8")
        conv.weight.data = conv.weight.data * 0.5
        fresh8 = conv.packed("int8")
        assert fresh8 is not stale8
        assert not np.array_equal(fresh8.scales, stale8.scales)

    def test_invalid_precision_raises(self):
        conv = Conv2d(3, 4, 3, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            conv.packed("bf16")
