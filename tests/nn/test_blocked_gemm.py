"""Cache-blocked im2col GEMM: equality to the unblocked path and to the
shift kernel, across block sizes, epilogues, and precisions.

The blocking is a pure scheduling change — each row block is an
independent ``np.matmul`` over the same K extent — but BLAS picks fp32
sgemm kernels *by M*, so blocked fp32/fp16 output matches unblocked
within reassociation tolerance (<= 1e-5 here), not bitwise.  int8 output
accumulates integer-exactly below 2^24, which IS order-independent, so
int8 blocked output is asserted bitwise-equal at every block size.  The
scratch sizing helper is checked against its budget arithmetic.
"""

import numpy as np
import pytest

from repro.nn import functional as F

from ..sr.reference_forward import reference_enhance


def _case(rng, cin, cout, k, h, w, n=1):
    x = rng.standard_normal((n, h, w, cin)).astype(np.float32)
    weight = (rng.standard_normal((cout, cin, k, k)) * 0.3).astype(np.float32)
    bias = rng.standard_normal(cout).astype(np.float32)
    return x, weight, bias


class TestBlockedEqualsUnblocked:
    @pytest.mark.parametrize("cin,cout,k,h,w", [
        (3, 8, 3, 17, 23),
        (8, 8, 3, 16, 16),
        (4, 6, 1, 9, 31),
        (3, 5, 5, 20, 12),
    ])
    def test_tolerance_across_block_sizes(self, cin, cout, k, h, w):
        rng = np.random.default_rng(0)
        x, weight, bias = _case(rng, cin, cout, k, h, w)
        packed = F.pack_conv_weight(weight, bias)
        whole = F.conv2d_im2col_nhwc(x, packed, block_rows=0)
        for block_rows in (1, 2, 3, 7, h, h + 5, None):
            blocked = F.conv2d_im2col_nhwc(x, packed, block_rows=block_rows)
            assert blocked.dtype == np.float32
            # BLAS sgemm output is M-dependent (kernel selection), so
            # bitwise equality across block sizes is not guaranteed.
            assert np.abs(blocked - whole).max() <= 1e-5, block_rows

    def test_bitwise_equals_shift_kernel(self):
        """Same packed weights, same fp32 accumulation order per output
        element: the blocked GEMM and the tap-decomposed shift kernel
        may differ by reassociation, but both must match the NCHW
        training conv; blocked must match its own unblocked run bitwise."""
        rng = np.random.default_rng(1)
        x, weight, bias = _case(rng, 8, 8, 3, 24, 24, n=2)
        packed = F.pack_conv_weight(weight, bias)
        blocked = F.conv2d_im2col_nhwc(x, packed, block_rows=5)
        ref = F.conv2d_forward(x.transpose(0, 3, 1, 2), weight, bias,
                               padding=1).transpose(0, 2, 3, 1)
        assert np.abs(blocked - ref).max() <= 1e-5

    def test_fused_epilogues_match_shift_kernel(self):
        rng = np.random.default_rng(2)
        x, weight, bias = _case(rng, 6, 6, 3, 15, 19)
        packed = F.pack_conv_weight(weight, bias)
        res = rng.standard_normal(x.shape[:3] + (6,)).astype(np.float32)
        for kwargs in ({"relu": True},
                       {"residual": res, "res_scale": 0.1},
                       {"relu": True, "residual": res}):
            blocked = F.conv2d_im2col_nhwc(x, packed, block_rows=4, **kwargs)
            shift = F.conv2d_shift_nhwc(x, packed, **kwargs)
            assert np.abs(blocked - shift).max() <= 1e-5, kwargs
            unblocked = F.conv2d_im2col_nhwc(x, packed, block_rows=0,
                                             **kwargs)
            assert np.abs(blocked - unblocked).max() <= 1e-5, kwargs


class TestQuantizedBlocked:
    def test_int8_blocked_is_bitwise_equal_to_int8_shift(self):
        """int8 accumulates exactly in int32 — no reassociation slack, so
        the blocked and shift int8 kernels agree bit for bit."""
        rng = np.random.default_rng(3)
        x, weight, bias = _case(rng, 8, 8, 3, 18, 22)
        x = np.abs(x) % 1.0
        qw = F.pack_conv_weight(weight, bias, "int8")
        blocked = F.conv2d_im2col_nhwc(x, qw, block_rows=3)
        shift = F.conv2d_shift_nhwc(x, qw)
        assert np.array_equal(blocked, shift)

    @pytest.mark.parametrize("precision", ["fp16", "int8"])
    def test_blocked_equals_unblocked_per_precision(self, precision):
        rng = np.random.default_rng(4)
        x, weight, bias = _case(rng, 4, 8, 3, 14, 26)
        qw = F.pack_conv_weight(weight, bias, precision)
        whole = F.conv2d_im2col_nhwc(x, qw, block_rows=0)
        for block_rows in (1, 4, 9, None):
            blocked = F.conv2d_im2col_nhwc(x, qw, block_rows=block_rows)
            if precision == "int8":        # exact integer accumulation
                assert np.array_equal(blocked, whole), block_rows
            else:                          # fp16 accumulates general fp32
                assert np.abs(blocked - whole).max() <= 1e-5, block_rows

    def test_int8_bitwise_at_full_frame_scale(self):
        """The bitwise guarantee must hold where it matters — at a
        352x640 activation whose budget-derived block is a single row,
        deep inside the BLAS small-M regime where fp32 already drifts."""
        rng = np.random.default_rng(7)
        x = rng.random((1, 352, 640, 8), dtype=np.float32)
        weight = (rng.standard_normal((8, 8, 3, 3)) * 0.3).astype(np.float32)
        qw = F.pack_conv_weight(weight, None, "int8")
        whole = F.conv2d_im2col_nhwc(x, qw, block_rows=0)
        for block_rows in (1, 64, None):
            blocked = F.conv2d_im2col_nhwc(x, qw, block_rows=block_rows)
            assert np.array_equal(blocked, whole), block_rows

    def test_quant_epilogues(self):
        rng = np.random.default_rng(5)
        x, weight, bias = _case(rng, 6, 6, 3, 12, 16)
        qw = F.pack_conv_weight(weight, bias, "int8")
        res = rng.standard_normal(x.shape[:3] + (6,)).astype(np.float32)
        blocked = F.conv2d_im2col_nhwc(x, qw, block_rows=2, relu=True,
                                       residual=res, res_scale=0.5)
        shift = F.conv2d_shift_nhwc(x, qw, relu=True, residual=res,
                                    res_scale=0.5)
        assert np.array_equal(blocked, shift)


class TestScratchSizing:
    def test_block_rows_fit_the_budget(self):
        """block_rows * row_bytes <= budget wherever a single row fits."""
        for (w, cin, kh, kw) in [(64, 8, 3, 3), (640, 8, 3, 3),
                                 (1920, 16, 5, 5), (8, 3, 1, 1)]:
            rows = F.im2col_block_rows(w, cin, kh, kw)
            assert rows >= 1
            row_bytes = w * cin * kh * kw * 4
            if row_bytes <= F.IM2COL_SCRATCH_BYTES:
                assert rows * row_bytes <= F.IM2COL_SCRATCH_BYTES
                assert (rows + 1) * row_bytes > F.IM2COL_SCRATCH_BYTES
            else:
                assert rows == 1           # floor: always make progress

    def test_custom_budget(self):
        # 16 float32s per im2col row -> 64 bytes; 256-byte budget -> 4.
        assert F.im2col_block_rows(16, 1, 1, 1, scratch_bytes=256) == 4

    def test_rejects_negative_block_rows(self):
        rng = np.random.default_rng(6)
        x, weight, bias = _case(rng, 3, 4, 3, 8, 8)
        packed = F.pack_conv_weight(weight, bias)
        with pytest.raises(ValueError, match="block_rows"):
            F.conv2d_im2col_nhwc(x, packed, block_rows=-1)


class TestEngineKernelSelection:
    def test_blocked_engine_matches_reference_forward(self):
        from repro.sr import EDSR, EdsrConfig, InferenceEngine

        model = EDSR(EdsrConfig(n_resblocks=2, n_filters=8), seed=9)
        frame = np.random.default_rng(10).random((30, 40, 3),
                                                 dtype=np.float32)
        ref = reference_enhance(model, frame)
        out = InferenceEngine(model, kernel="blocked").enhance(frame)
        assert np.abs(out - ref).max() <= 2e-5

    def test_blocked_engine_composes_with_quant_gate_and_reuse(self):
        from repro.sr import EDSR, EdsrConfig, InferenceEngine

        model = EDSR(EdsrConfig(n_resblocks=2, n_filters=8), seed=11)
        frame = np.random.default_rng(12).random((48, 64, 3),
                                                 dtype=np.float32)
        engine = InferenceEngine(model, tile=16, kernel="blocked",
                                 precision="int8", reuse=True,
                                 skip_gate=1e-6)
        first = engine.enhance(frame)
        second = engine.enhance(frame)
        assert engine.stats.reused_tiles == 12
        assert np.array_equal(first, second)
