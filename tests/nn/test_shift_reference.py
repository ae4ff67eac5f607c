"""The padded-stride shift kernel held to the per-row kernel it replaced.

``conv2d_shift_nhwc`` used to issue one ``np.matmul`` per tap on a shifted
4-D view (``N * H`` row GEMMs) and sum the taps through a scratch; it now
lays activations out with the padding inside the row stride and lets BLAS
accumulate one sgemm per tap in place.  Three things hold it to the old
behaviour:

- ``reference_shift.conv2d_shift_nhwc`` keeps the old body verbatim; over a
  seeded sweep of shapes, channel counts, kernel sizes, precisions and
  epilogues the new kernel must return the same float32s (``array_equal``,
  not ``allclose``).  One documented exception: with ``Cout = 1`` numpy
  routed the old per-row product to sgemv, whose rounding depends on the
  row count, so fp32/fp16 are held to 1e-6 there (int8 stays exact).
- the f2py ``sgemm`` wrapper must work in place on frame-sized taps — it
  silently copies a ``c`` that is not F-contiguous float32, which would
  keep the bits and lose the speed — and must be called ``KH * KW * N``
  times per conv at every size, so a return to per-row dispatch fails on
  a count, not on a stopwatch.
- the pad pixels of every intermediate of an engine forward are zero: the
  next conv's taps and the int8 ``amax`` read them as padding.
"""

import itertools
import os
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.linalg.blas

from repro.nn import functional as F
from repro.sr import EDSR, EdsrConfig, InferenceEngine

from . import reference_shift

CHANNELS = (1, 3, 8, 12)
#: (N, H, W): odd and even sides, single pixels, rows and columns, H < KH.
SHAPES = [(1, 1, 1), (3, 1, 1), (1, 2, 3), (3, 2, 2), (1, 1, 9), (1, 9, 1),
          (1, 7, 10), (3, 9, 8), (1, 30, 41)]
#: Frame-sized: every channel pair below takes the in-place path.
FRAME_SHAPE = (2, 341, 330)
FRAME_CHANNELS = [(3, 12), (12, 12), (12, 3), (8, 8), (1, 12)]


def _packed(rng, cin, cout, k, precision, bias=True):
    weight = (0.2 * rng.standard_normal((cout, cin, k, k))).astype(np.float32)
    b = rng.standard_normal(cout).astype(np.float32) if bias else None
    return F.pack_conv_weight(weight, b, precision)


def _assert_same(new, old, packed):
    assert new.dtype == old.dtype == np.float32
    assert new.shape == old.shape and new.flags.c_contiguous
    if packed.out_channels == 1 and packed.precision != "int8":
        np.testing.assert_allclose(new, old, rtol=1e-6, atol=1e-6)
    else:
        assert np.array_equal(new, old)


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("precision", F.PRECISIONS)
def test_kernel_returns_the_reference_kernels_bits(precision, k):
    rng = np.random.default_rng(100 * k + len(precision))
    for (cin, cout), (n, h, w) in itertools.product(
            itertools.product(CHANNELS, CHANNELS), SHAPES):
        packed = _packed(rng, cin, cout, k, precision, bias=(h + w) % 2 == 0)
        x = rng.standard_normal((n, h, w, cin)).astype(np.float32)
        res = rng.standard_normal((n, h, w, cout)).astype(np.float32)
        for epilogue in ({}, {"relu": True},
                         {"residual": res, "res_scale": 0.1},
                         {"relu": True, "residual": res}):
            _assert_same(F.conv2d_shift_nhwc(x, packed, **epilogue),
                         reference_shift.conv2d_shift_nhwc(
                             x, packed, **epilogue), packed)


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("precision", F.PRECISIONS)
def test_frame_sized_kernel_returns_the_reference_kernels_bits(precision, k):
    rng = np.random.default_rng(200 * k + len(precision))
    n, h, w = FRAME_SHAPE
    for cin, cout in FRAME_CHANNELS:
        assert h * (w + 2 * (k // 2)) * cin * cout > 1_000_000
        packed = _packed(rng, cin, cout, k, precision)
        x = rng.standard_normal((n, h, w, cin)).astype(np.float32)
        res = rng.standard_normal((n, h, w, cout)).astype(np.float32)
        for epilogue in ({"relu": True},
                         {"residual": res, "res_scale": 0.1}):
            _assert_same(F.conv2d_shift_nhwc(x, packed, **epilogue),
                         reference_shift.conv2d_shift_nhwc(
                             x, packed, **epilogue), packed)


@pytest.mark.parametrize("precision", F.PRECISIONS)
def test_zero_frame_inside_a_batch(precision):
    """An all-zero frame has no int8 scale of its own (amax 0 -> scale 1)
    and must not disturb its neighbours' quantizers."""
    rng = np.random.default_rng(7)
    packed = _packed(rng, 8, 12, 3, precision)
    x = rng.standard_normal((3, 9, 11, 8)).astype(np.float32)
    x[1] = 0.0
    _assert_same(F.conv2d_shift_nhwc(x, packed, relu=True),
                 reference_shift.conv2d_shift_nhwc(x, packed, relu=True),
                 packed)


@pytest.mark.parametrize("precision", F.PRECISIONS)
def test_strided_inputs(precision):
    """NCHW-transposed and spatially sliced views (input and residual)."""
    rng = np.random.default_rng(8)
    packed = _packed(rng, 3, 8, 3, precision)
    nchw = rng.standard_normal((2, 3, 20, 26)).astype(np.float32)
    res = rng.standard_normal((2, 8, 20, 26)).astype(np.float32)
    for x, r in ((nchw.transpose(0, 2, 3, 1), res.transpose(0, 2, 3, 1)),
                 (nchw.transpose(0, 2, 3, 1)[:, ::2, 1::3],
                  res.transpose(0, 2, 3, 1)[:, ::2, 1::3])):
        assert not x.flags.c_contiguous
        _assert_same(F.conv2d_shift_nhwc(x, packed, residual=r),
                     reference_shift.conv2d_shift_nhwc(x, packed, residual=r),
                     packed)


@pytest.mark.parametrize("precision", F.PRECISIONS)
def test_float64_input_is_taken_as_float32(precision):
    """The copy into the layout is the cast.  (The old kernel let a float64
    batch through to a float64 GEMM per tap and a float64 int8 scale; no
    caller passes one, and sgemm cannot reproduce that.)"""
    rng = np.random.default_rng(9)
    packed = _packed(rng, 3, 8, 3, precision)
    x64 = rng.standard_normal((2, 6, 7, 3))
    out = F.conv2d_shift_nhwc(x64, packed, relu=True)
    _assert_same(out, reference_shift.conv2d_shift_nhwc(
        x64.astype(np.float32), packed, relu=True), packed)


# ------------------------------------------------------- how BLAS is called

@pytest.fixture
def sgemm_calls(monkeypatch):
    """Every ``sgemm`` call of the kernel, as (c it was given, result)."""
    real, calls = scipy.linalg.blas.sgemm, []

    def wrapped(alpha, a, b, **kwargs):
        result = real(alpha, a, b, **kwargs)
        calls.append((kwargs.get("c"), result))
        return result

    monkeypatch.setattr(scipy.linalg.blas, "sgemm", wrapped)
    return calls


@pytest.mark.parametrize("precision", ["fp32", "int8"])
def test_frame_sized_taps_accumulate_in_place(sgemm_calls, precision):
    """Above ~1e6 multiply-adds per tap BLAS accumulates into the output
    buffer itself: one call per tap and frame, each spanning every pixel
    of the frame (pad pixels included), none through a copy."""
    rng = np.random.default_rng(11)
    n, h, w, k = 2, 100, 110, 3
    packed = _packed(rng, 8, 12, k, precision)
    buf = F.pad_nhwc(rng.standard_normal((n, h, w, 8)), k // 2)
    out = F.conv2d_shift_padded(buf, w, k // 2, packed, relu=True)
    assert len(sgemm_calls) == k * k * n
    for c, result in sgemm_calls:
        assert c.shape == (12, h * (w + 2))
        assert np.shares_memory(result, c) and np.shares_memory(c, out)


def test_tile_sized_taps_are_one_call_each_too(sgemm_calls):
    """Below it numpy adds each tap (OpenBLAS's small-matrix kernel is
    slow at beta=1) — still one GEMM per tap and frame, not one per row."""
    rng = np.random.default_rng(12)
    packed = _packed(rng, 3, 8, 5, "fp32")
    F.conv2d_shift_nhwc(rng.standard_normal((3, 6, 6, 3)), packed)
    assert len(sgemm_calls) == 5 * 5 * 3
    assert all(c is None and result.shape == (8, 6 * 10)
               for c, result in sgemm_calls)


# ------------------------------------------------------ the layout contract

def test_layout_round_trip_and_zero_padding():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((2, 5, 7, 3)).astype(np.float32)
    for pad in (0, 1, 2):
        buf = F.pad_nhwc(x, pad)
        wp = 7 + 2 * pad
        assert buf.shape == (2, 5 * wp + 2 * (pad * wp + pad), 3)
        assert np.array_equal(F.unpad_nhwc(buf, 7, pad), x)
        assert np.shares_memory(F.unpad_nhwc(buf, 7, pad), buf)
        assert np.count_nonzero(buf) == np.count_nonzero(x)


def test_layout_too_narrow_for_the_kernel_is_refused():
    packed = _packed(np.random.default_rng(14), 3, 4, 5, "fp32")
    buf = F.pad_nhwc(np.ones((1, 6, 6, 3), np.float32), 1)
    with pytest.raises(ValueError, match="padded by 1"):
        F.conv2d_shift_padded(buf, 6, 1, packed)


@pytest.mark.parametrize("scale", [1, 2])
@pytest.mark.parametrize("precision", ["fp32", "int8"])
def test_pad_pixels_are_zero_after_every_layer(monkeypatch, precision, scale):
    """Mixed kernels too: a 5x5 body over the upsampler's 3x3 convs shares
    one pad-2 layout."""
    model = EDSR(EdsrConfig(n_resblocks=2, n_filters=8, scale=scale,
                            kernel_size=5, res_scale=0.5), seed=15)
    real, checked = F.conv2d_shift_padded, []

    def checking(buf, w, pad, packed, **epilogue):
        out = real(buf, w, pad, packed, **epilogue)
        outside = out.copy()
        F.unpad_nhwc(outside, w, pad)[...] = 0.0
        assert not outside.any()
        checked.append(pad)
        return out

    monkeypatch.setattr(F, "conv2d_shift_padded", checking)
    frames = np.random.default_rng(16).random((2, 11, 14, 3),
                                              dtype=np.float32)
    InferenceEngine(model, precision=precision).enhance_batch(frames)
    assert checked == [2] * (7 + (scale > 1))


def test_packages_that_run_no_sr_do_not_import_scipy_linalg():
    """``scipy.linalg`` costs ~6 MB of RSS; fleet and origin processes
    never call the kernel and must not pay for it at import."""
    code = ("import sys, repro.serve, repro.core, repro.net; "
            "sys.exit('scipy.linalg' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
    assert proc.returncode == 0


# ------------------------------------------------------------------- timing

@pytest.mark.timing
@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="half the gain is BLAS's own second thread")
def test_kernel_beats_the_reference_kernel_at_frame_size():
    """(1, 352, 640, 12) fp32, pad + crop + ReLU included: measured 18 ms
    against 34 ms for the per-row kernel on two cores.  A GEMM that spans
    the frame is also the first one big enough for BLAS to split across
    its threads; pinned to one (``OPENBLAS_NUM_THREADS=1``) the same pair
    reads 24 ms against 27 ms and this guard does not hold."""
    rng = np.random.default_rng(17)
    packed = _packed(rng, 12, 12, 3, "fp32")
    x = rng.standard_normal((1, 352, 640, 12)).astype(np.float32)

    def best(fn, repeats=5):
        fn(x, packed, relu=True)
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn(x, packed, relu=True)
            times.append(time.perf_counter() - start)
        return min(times)

    new = best(F.conv2d_shift_nhwc)
    old = best(reference_shift.conv2d_shift_nhwc)
    assert old / new >= 1.3, (old, new)
