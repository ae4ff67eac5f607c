"""The compiled shift kernel held to the per-row kernel it replaced.

``conv2d_shift_nhwc`` used to issue one ``np.matmul`` per tap on a shifted
4-D view (``N * H`` row GEMMs) and sum the taps through a scratch; it now
lays activations out with the padding inside the row stride and makes one
call of a compiled kernel per frame, which keeps BLAS's arithmetic: an FMA
chain over ``Cin`` from +0 per tap, the taps added in order, then the
epilogue.  Three things hold it to the old behaviour:

- ``reference_shift.conv2d_shift_nhwc`` keeps the old body verbatim; over a
  seeded sweep of shapes, channel counts, kernel sizes, precisions and
  epilogues the new kernel must return the same float32s (``array_equal``,
  not ``allclose``; where every product is zero, the same bits, sign of
  zero included).  One documented exception: with ``Cout = 1`` numpy
  routed the old per-row product to sgemv, whose rounding depends on the
  row count, so every precision is held to 1e-6 there.
- a conv is one native call per frame at every size, and an engine
  forward calls neither ``sgemm`` nor ``np.matmul``, so a return to a
  per-tap or per-row dispatch fails on a count, not on a stopwatch.
- the pad pixels of every intermediate of an engine forward are zero: the
  next conv's taps read them as padding.
"""

import itertools
import os
import subprocess
import sys
import time
import tracemalloc
import types

import numpy as np
import pytest
import scipy.linalg.blas

from repro import native
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
#: A 128-pixel tile plus the halo of a two-block dcSR model, two frames:
#: the shape the tiled int8 workloads run every conv at.
TILE_SHAPE = (2, 142, 156)
TILE_CHANNELS = [(3, 8), (8, 8), (8, 3)]


def _epilogues(res):
    """Every combination the engine fuses, ``res_scale`` included."""
    return ({}, {"relu": True}, {"residual": res, "res_scale": 0.1},
            {"relu": True, "residual": res})


def _packed(rng, cin, cout, k, precision, bias=True):
    weight = (0.2 * rng.standard_normal((cout, cin, k, k))).astype(np.float32)
    b = rng.standard_normal(cout).astype(np.float32) if bias else None
    return F.pack_conv_weight(weight, b, precision)


def _assert_same(new, old, packed):
    assert new.dtype == old.dtype == np.float32
    assert new.shape == old.shape and new.flags.c_contiguous
    if packed.out_channels == 1:
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
        for epilogue in _epilogues(res):
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
        for epilogue in _epilogues(res):
            _assert_same(F.conv2d_shift_nhwc(x, packed, **epilogue),
                         reference_shift.conv2d_shift_nhwc(
                             x, packed, **epilogue), packed)


@pytest.mark.parametrize("precision", F.PRECISIONS)
def test_tile_sized_kernel_returns_the_reference_kernels_bits(precision):
    """The shapes the tiled workloads run, with and without a bias: the
    epilogue's per-channel vectors repeat across 158-pixel padded rows."""
    rng = np.random.default_rng(300 + len(precision))
    n, h, w = TILE_SHAPE
    for (cin, cout), bias in itertools.product(TILE_CHANNELS, (True, False)):
        packed = _packed(rng, cin, cout, 3, precision, bias=bias)
        x = rng.standard_normal((n, h, w, cin)).astype(np.float32)
        res = rng.standard_normal((n, h, w, cout)).astype(np.float32)
        for epilogue in _epilogues(res):
            _assert_same(F.conv2d_shift_nhwc(x, packed, **epilogue),
                         reference_shift.conv2d_shift_nhwc(
                             x, packed, **epilogue), packed)


@pytest.mark.parametrize("precision", F.PRECISIONS)
def test_zero_frame_inside_a_batch(precision):
    """An all-zero frame between two others: the bias alone, the
    neighbours untouched."""
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


@pytest.mark.parametrize("precision", F.PRECISIONS)
def test_sums_of_zero_products_are_positive_zero(precision):
    """BLAS starts each chain from +0, so a sum of zero products is +0.0
    even where every product is -0.0 (zero input, negative weights, no
    bias); ``array_equal`` cannot see the sign of a zero, uint32 can."""
    rng = np.random.default_rng(10)
    weight = -np.abs(rng.standard_normal((8, 3, 3, 3))).astype(np.float32)
    packed = F.pack_conv_weight(weight, None, precision)
    x = np.zeros((2, 7, 9, 3), np.float32)
    x[1, :, 4:] = rng.standard_normal((7, 5, 3))
    new = F.conv2d_shift_nhwc(x, packed)
    old = reference_shift.conv2d_shift_nhwc(x, packed)
    assert np.array_equal(new.view(np.uint32), old.view(np.uint32))
    assert not np.signbit(new[0]).any()


# ----------------------------------------------- how the kernel is called

def _record_native_calls(monkeypatch) -> list:
    """From here on: every call of the compiled kernel, by its arguments;
    ``sgemm`` and ``np.matmul`` fail the test if anything calls them."""
    real, calls = native.library().shift_conv, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    def no_blas(*args, **kwargs):
        raise AssertionError("the conv path called a BLAS GEMM")

    monkeypatch.setattr(native, "library",
                        lambda: types.SimpleNamespace(shift_conv=counting))
    monkeypatch.setattr(scipy.linalg.blas, "sgemm", no_blas)
    monkeypatch.setattr(np, "matmul", no_blas)
    return calls


@pytest.mark.parametrize("precision", ["fp32", "int8"])
def test_frame_sized_conv_is_one_native_call_per_frame(monkeypatch,
                                                       precision):
    """Each call spans every pixel of its frame; the output pointers
    step one frame apart."""
    rng = np.random.default_rng(11)
    n, h, w, k = 2, 100, 110, 3
    packed = _packed(rng, 8, 12, k, precision)
    buf = F.pad_nhwc(rng.standard_normal((n, h, w, 8)), k // 2)
    calls = _record_native_calls(monkeypatch)
    out = F.conv2d_shift_padded(buf, w, k // 2, packed, relu=True)
    assert len(calls) == n
    assert [call[4] - out.ctypes.data for call in calls] == [
        f * out[0].nbytes for f in range(n)]
    assert all(call[5:8] == (buf.shape[1], w, k // 2) for call in calls)


def test_tile_sized_conv_is_one_native_call_per_frame_too(monkeypatch):
    rng = np.random.default_rng(12)
    packed = _packed(rng, 3, 8, 5, "fp32")
    x = rng.standard_normal((3, 6, 6, 3))
    calls = _record_native_calls(monkeypatch)
    F.conv2d_shift_nhwc(x, packed)
    assert len(calls) == 3


@pytest.mark.parametrize("precision", F.PRECISIONS)
def test_engine_forward_calls_no_blas(monkeypatch, precision):
    """A whole-frame forward of a two-block x2 model (head, four body
    convs, body tail, upsampler, output) over three frames: 8 convs, 24
    native calls, no GEMM."""
    model = EDSR(EdsrConfig(n_resblocks=2, n_filters=8, scale=2), seed=19)
    engine = InferenceEngine(model, precision=precision)
    frames = np.random.default_rng(20).random((3, 12, 14, 3),
                                              dtype=np.float32)
    expected = engine.enhance_batch(frames)
    calls = _record_native_calls(monkeypatch)
    assert np.array_equal(engine.enhance_batch(frames), expected)
    assert len(calls) == 8 * 3


@pytest.mark.parametrize("precision", F.PRECISIONS)
def test_epilogue_of_a_batch_makes_no_copy_of_the_output(precision):
    """Viewed as rows, a whole padded-stride batch is not contiguous, and
    numpy copies a non-contiguous in-place ufunc operand it cannot prove
    free of self-overlap: a frame-sized temporary per pass.  Peak memory
    of a conv over three frames is its output, at every precision: no
    copy of the input either."""
    rng = np.random.default_rng(18)
    n, h, w = 3, 120, 140
    packed = _packed(rng, 8, 12, 3, precision)
    buf = F.pad_nhwc(rng.standard_normal((n, h, w, 8)), 1)
    res = F.pad_nhwc(rng.standard_normal((n, h, w, 12)), 1)
    epilogue = {"relu": True, "residual": res, "res_scale": 0.5}
    F.conv2d_shift_padded(buf, w, 1, packed, **epilogue)
    tracemalloc.start()
    try:
        out = F.conv2d_shift_padded(buf, w, 1, packed, **epilogue)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + out.nbytes // 4, (peak, out.nbytes)


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
                    reason="measured on two cores only")
def test_kernel_beats_the_reference_kernel_at_frame_size():
    """(1, 352, 640, 12) fp32, pad + crop + ReLU included: measured
    10-13 ms against 27-36 ms for the per-row kernel on two cores, with
    one BLAS thread (``OPENBLAS_NUM_THREADS=1``) or two alike — the
    compiled kernel is single-threaded, and the per-row GEMMs are too
    small for BLAS to split."""
    rng = np.random.default_rng(17)
    packed = _packed(rng, 12, 12, 3, "fp32")
    x = rng.standard_normal((1, 352, 640, 12)).astype(np.float32)
    kernels = (F.conv2d_shift_nhwc, reference_shift.conv2d_shift_nhwc)
    # Interleaved, so a burst of load on a shared machine lands on both
    # kernels alike; the best of 15 each is what the kernel can do.
    times = ([], [])
    for kernel in kernels:
        kernel(x, packed, relu=True)
    for _ in range(15):
        for kernel, runs in zip(kernels, times):
            start = time.perf_counter()
            kernel(x, packed, relu=True)
            runs.append(time.perf_counter() - start)
    new, old = min(times[0]), min(times[1])
    assert old / new >= 1.3, (old, new)
