"""Stateless numerical primitives shared by the layers.

All image tensors use the NCHW layout: ``(batch, channels, height, width)``.

The convolution here is implemented with ``sliding_window_view`` plus
``tensordot`` in the forward pass, and with the classic "full convolution of
the (stride-dilated) output gradient with the flipped kernel" in the backward
pass.  Everything is fully vectorised; there are no per-pixel Python loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "pad2d",
    "unpad2d",
    "conv2d_forward",
    "conv2d_backward",
    "conv_output_size",
    "im2col",
    "PackedConvWeight",
    "pack_conv_weight",
    "conv2d_gemm",
    "conv2d_shift_nhwc",
    "conv2d_shift_padded",
    "pad_nhwc",
    "unpad_nhwc",
    "IM2COL_SCRATCH_BYTES",
    "im2col_block_rows",
    "conv2d_im2col_nhwc",
    "PRECISIONS",
    "INT8_EXACT_ACC_BOUND",
    "pixel_shuffle",
    "pixel_unshuffle",
    "pixel_shuffle_nhwc",
    "avg_pool2d_forward",
    "avg_pool2d_backward",
    "nearest_upsample",
    "nearest_downsample_grad",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Output spatial size of a convolution along one axis."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution output size is non-positive: size={size}, "
            f"kernel={kernel}, stride={stride}, padding={padding}"
        )
    return out


def pad2d(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the two trailing (spatial) axes symmetrically."""
    if padding == 0:
        return x
    pad_spec = [(0, 0)] * (x.ndim - 2) + [(padding, padding), (padding, padding)]
    return np.pad(x, pad_spec)


def unpad2d(x: np.ndarray, padding: int) -> np.ndarray:
    """Inverse of :func:`pad2d`: crop the two trailing axes."""
    if padding == 0:
        return x
    return x[..., padding:-padding, padding:-padding]


def _windows(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Strided sliding windows of ``x`` (N, C, H, W) -> (N, C, OH, OW, kh, kw)."""
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))
    return win[:, :, ::stride, ::stride]


def conv2d_forward(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None,
    stride: int = 1, padding: int = 0,
) -> np.ndarray:
    """2-D cross-correlation.

    Parameters
    ----------
    x:
        Input of shape ``(N, Cin, H, W)``.
    weight:
        Kernel of shape ``(Cout, Cin, KH, KW)``.
    bias:
        Optional per-output-channel bias of shape ``(Cout,)``.
    """
    cout, cin, kh, kw = weight.shape
    if x.shape[1] != cin:
        raise ValueError(f"input has {x.shape[1]} channels, kernel expects {cin}")
    xp = pad2d(x, padding)
    win = _windows(xp, kh, kw, stride)  # (N, Cin, OH, OW, KH, KW)
    # Contract over (Cin, KH, KW).
    out = np.tensordot(win, weight, axes=([1, 4, 5], [1, 2, 3]))
    # tensordot leaves (N, OH, OW, Cout): move channels forward.
    out = np.ascontiguousarray(out.transpose(0, 3, 1, 2))
    if bias is not None:
        out += bias[None, :, None, None]
    return out


def _dilate(grad: np.ndarray, stride: int) -> np.ndarray:
    """Insert ``stride - 1`` zeros between spatial elements of ``grad``."""
    if stride == 1:
        return grad
    n, c, h, w = grad.shape
    out = np.zeros((n, c, (h - 1) * stride + 1, (w - 1) * stride + 1),
                   dtype=grad.dtype)
    out[:, :, ::stride, ::stride] = grad
    return out


def conv2d_backward(
    x: np.ndarray, weight: np.ndarray, grad_out: np.ndarray,
    stride: int = 1, padding: int = 0, need_input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of :func:`conv2d_forward`.

    Returns ``(grad_x, grad_weight, grad_bias)``; ``grad_x`` is ``None`` when
    ``need_input_grad`` is false (first layer of a network).
    """
    cout, cin, kh, kw = weight.shape
    xp = pad2d(x, padding)
    win = _windows(xp, kh, kw, stride)  # (N, Cin, OH, OW, KH, KW)

    # d L / d W: correlate input windows with the output gradient.
    grad_w = np.tensordot(grad_out, win, axes=([0, 2, 3], [0, 2, 3]))
    # -> (Cout, Cin, KH, KW) already in kernel layout.
    grad_b = grad_out.sum(axis=(0, 2, 3))

    grad_x = None
    if need_input_grad:
        # Full convolution of the stride-dilated output gradient with the
        # spatially flipped kernel, channels transposed.
        gd = _dilate(grad_out, stride)
        w_flip = weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)  # (Cin, Cout, KH, KW)
        gp = pad2d(gd, 0)
        gp = np.pad(gp, [(0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)])
        gwin = _windows(gp, kh, kw, 1)  # (N, Cout, H', W', KH, KW)
        gx_full = np.tensordot(gwin, w_flip, axes=([1, 4, 5], [1, 2, 3]))
        gx_full = gx_full.transpose(0, 3, 1, 2)  # (N, Cin, H', W')
        # Trim to the padded-input size (the dilated full conv can fall short
        # of covering the last rows/cols the kernel never reached), then crop
        # the padding.
        ph, pw = xp.shape[2], xp.shape[3]
        gx = np.zeros((x.shape[0], cin, ph, pw), dtype=grad_out.dtype)
        gh = min(ph, gx_full.shape[2])
        gw = min(pw, gx_full.shape[3])
        gx[:, :, :gh, :gw] = gx_full[:, :, :gh, :gw]
        grad_x = unpad2d(gx, padding)
        grad_x = np.ascontiguousarray(grad_x)

    return grad_x, np.ascontiguousarray(grad_w), grad_b


# ---------------------------------------------------------------------------
# GEMM inference fast path.
#
# ``conv2d_forward`` stays the reference and training implementation; the
# functions below are the inference-only path.  Three kernels share one
# packed operand (:class:`PackedConvWeight`) and one fused epilogue:
#
# - :func:`conv2d_gemm` — classic im2col + one BLAS matmul over NCHW
#   tensors.  At fp32 it reproduces ``conv2d_forward`` *bitwise* because
#   the packed operands use exactly the ``(Cin, KH, KW)`` contraction order
#   and operand layouts ``tensordot`` reduces to internally, so the same
#   sgemm runs on the same bits.  General stride/padding; used by
#   ``Conv2d`` inference.
# - :func:`conv2d_shift_nhwc` — one GEMM per kernel tap; the KH*KW-times-
#   larger im2col matrix is never built, at the price of a different
#   summation order (float32 reassociation, a few ULP per layer).  Stride
#   1 / 'same' only — the SR engine's kernel.  Activations sit
#   *padded-stride*: pixels are rows of a flat ``(L, C)`` buffer, each
#   image row followed by ``2*pad`` zero pixels, with ``pad*(W+2*pad) +
#   pad`` zero rows before and after — so a tap is one contiguous run for
#   all pixels at once and a conv is KH*KW sgemm calls accumulated in
#   place by BLAS (tile-sized ones by a numpy add), not KH*KW*H row GEMMs
#   plus a frame-sized add pass.  Same bits as that per-row kernel
#   (``tests/nn/reference_shift.py``): same taps, K = Cin in one
#   micro-kernel pass whatever M is, ``C += AB`` rounding as ``acc += tmp``
#   did.  This rests on the BLAS build; the reference sweep and the
#   engine-digest canary pin it.  (Cout = 1 went to sgemv, whose sums
#   depend on the row count: 1e-6-close only.)
# - :func:`conv2d_im2col_nhwc` — the cache-blocked im2col GEMM (below).
#
# Precision rides in the packed weight.  numpy has no int8 GEMM, so both
# reduced precisions run the accumulation through the same float32 sgemm
# as fp32 — but on operands constrained to the reduced-precision grid,
# which makes the arithmetic *bit-exact* to what dedicated hardware
# kernels would produce:
#
# - ``fp16``: weights and activations are rounded to the nearest float16
#   (round-to-nearest-even) and the products accumulate in float32.  Every
#   float16 value is exactly representable in float32, so fp32 sgemm over
#   fp16-rounded operands computes exactly the fp16-multiplicand /
#   fp32-accumulator GEMM of tensor-core style mixed precision.
# - ``int8``: weights use symmetric per-output-channel scales
#   ``s[o] = max|w[o]| / 127`` and activations a dynamic *per-frame* scale
#   ``s_x[n] = max|x[n]| / 127`` (so an ``(N, ...)`` call equals N
#   single-frame calls bit for bit); both are rounded to integer codes in
#   [-127, 127] stored as float32.  Products and partial sums are then
#   integers, and float32 adds integers exactly while the running sum
#   stays below 2^24 — guaranteed by requiring
#   ``Cin*KH*KW * 127^2 < 2^24`` at pack time (Cin*KH*KW <= 1040, ample
#   for micro-EDSR's 3x3/16-filter convs).  The dequantized output
#   ``acc * (s_x[n] * s[o])`` is therefore bitwise what an
#   int8xint8->int32 kernel with per-channel dequant would return.
#
# Every kernel quantizes its input once, runs its GEMMs, dequantizes the
# accumulator, then applies the bias / ReLU / ``res_scale`` / residual
# epilogue in float32 (:func:`_apply_epilogue`) while the activation is
# hot in cache, so residual skip paths never lose precision.

#: Precisions understood by ``pack_conv_weight`` / the inference engine.
PRECISIONS = ("fp32", "fp16", "int8")

#: Largest integer magnitude float32 carries exactly; the int8 reduction
#: ``Cin*KH*KW * 127^2`` must stay strictly below it.
INT8_EXACT_ACC_BOUND = 2 ** 24


@dataclass(frozen=True)
class PackedConvWeight:
    """A conv kernel pre-packed for the GEMM fast path at one precision.

    Built once per weight version (:attr:`~repro.nn.tensor.Parameter.version`)
    and reused across frames; see ``Conv2d.packed``.  Operands are float32
    arrays constrained to ``precision``'s grid (see the comment above).
    """

    #: ``(Cout, Cin*KH*KW)`` — the kernel flattened in im2col K-order.
    mat: np.ndarray
    #: ``(Cin*KH*KW, Cout)`` C-contiguous — the right-hand GEMM operand
    #: (at fp32 the same bits ``tensordot`` feeds to sgemm in
    #: ``conv2d_forward``).
    mat_t: np.ndarray
    #: ``(KH, KW, Cin, Cout)`` — per-tap matrices for the NHWC shift kernel.
    taps: np.ndarray
    #: Bias stays float32 — it is added after dequantization.
    bias: np.ndarray | None
    kernel: tuple[int, int]
    precision: str = "fp32"
    #: ``(Cout,)`` per-output-channel weight scales (int8 only).
    scales: np.ndarray | None = None

    @property
    def out_channels(self) -> int:
        return self.mat.shape[0]

    @property
    def in_channels(self) -> int:
        return self.taps.shape[2]


def pack_conv_weight(weight: np.ndarray, bias: np.ndarray | None,
                     precision: str = "fp32") -> PackedConvWeight:
    """Pack a ``(Cout, Cin, KH, KW)`` kernel for the inference kernels.

    fp16 rounds the weights to the float16 grid; int8 derives symmetric
    per-output-channel scales ``max|w[o]| / 127`` and stores integer codes.
    Raises ``ValueError`` for unknown precisions and when the int8
    reduction depth would overflow exact float32 integer accumulation.
    """
    cout, cin, kh, kw = weight.shape
    scales = None
    # Explicit copy: a view of the live weight would silently track later
    # in-place updates, defeating version-keyed cache invalidation.
    q = weight.astype(np.float32, copy=True)
    if precision == "fp16":
        q = q.astype(np.float16).astype(np.float32)
    elif precision == "int8":
        depth = cin * kh * kw
        if depth * 127 * 127 >= INT8_EXACT_ACC_BOUND:
            raise ValueError(
                f"int8 reduction depth Cin*KH*KW = {depth} overflows exact "
                f"float32 integer accumulation (needs depth * 127^2 < 2^24, "
                f"i.e. depth <= {INT8_EXACT_ACC_BOUND // (127 * 127)})")
        amax = np.abs(q).reshape(cout, -1).max(axis=1)
        scales = np.where(amax > 0.0, amax / 127.0, 1.0).astype(np.float32)
        q = np.clip(np.rint(q / scales[:, None, None, None]), -127.0, 127.0)
    elif precision != "fp32":
        raise ValueError(f"unknown precision {precision!r}; "
                         f"expected one of {PRECISIONS}")
    mat = q.reshape(cout, cin * kh * kw)
    return PackedConvWeight(
        mat=mat,
        mat_t=np.ascontiguousarray(mat.T),
        taps=np.ascontiguousarray(q.transpose(2, 3, 1, 0)),
        bias=None if bias is None else np.ascontiguousarray(
            bias, dtype=np.float32),
        kernel=(kh, kw),
        precision=precision,
        scales=scales,
    )


def _quantize_activations(
        x: np.ndarray, precision: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Constrain an ``(N, ...)`` activation batch to the precision's grid.

    Returns ``(xq, scale)``: fp32 passes through and fp16 rounds, both with
    no scale; int8 returns integer codes plus the dynamic scale of each
    frame, shaped ``(N, 1, ...)`` — one quantizer per frame, so no frame
    of a batch depends on its neighbours.
    """
    if precision == "fp32":
        return x, None
    if precision == "fp16":
        return x.astype(np.float16).astype(np.float32), None
    amax = np.abs(x).reshape(len(x), -1).max(axis=1, initial=0.0)
    amax = amax.astype(np.float64).reshape((-1,) + (1,) * (x.ndim - 1))
    scale = np.where(amax > 0.0, amax / 127.0, 1.0)
    xq = np.rint(x * (1.0 / scale).astype(np.float32))
    return xq, scale.astype(np.float32)


def im2col(x: np.ndarray, kh: int, kw: int, stride: int = 1,
           padding: int = 0) -> tuple[np.ndarray, int, int]:
    """Unfold NCHW ``x`` into a ``(N*OH*OW, Cin*KH*KW)`` patch matrix.

    Column order is ``(Cin, KH, KW)`` — the contraction order of
    ``conv2d_forward`` — so ``col @ packed.mat_t`` matches the reference
    bitwise.  Returns ``(col, OH, OW)``.
    """
    xp = pad2d(x, padding)
    win = _windows(xp, kh, kw, stride)            # (N, Cin, OH, OW, KH, KW)
    n, cin, oh, ow = win.shape[:4]
    col = win.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, cin * kh * kw)
    return col, oh, ow


def _apply_epilogue(out: np.ndarray, packed: PackedConvWeight,
                    x_scale: np.ndarray | None, relu: bool,
                    residual: np.ndarray | None, res_scale: float,
                    channel_axis: int) -> np.ndarray:
    """Fused conv epilogue: int8 dequantization of the accumulator, bias
    add, then ReLU, then ``res_scale`` and the residual skip add — all in
    place on ``out``."""
    shape = [1] * out.ndim
    shape[channel_axis] = packed.out_channels
    if packed.scales is not None:
        out *= x_scale * packed.scales.reshape(shape)
    if packed.bias is not None:
        out += packed.bias.reshape(shape)
    if relu:
        np.maximum(out, 0.0, out=out)
    if res_scale != 1.0:
        out *= res_scale
    if residual is not None:
        out += residual
    return out


def conv2d_gemm(
    x: np.ndarray, packed: PackedConvWeight, stride: int = 1,
    padding: int = 0, relu: bool = False,
    residual: np.ndarray | None = None, res_scale: float = 1.0,
) -> np.ndarray:
    """im2col + single-GEMM convolution over NCHW tensors.

    With an fp32 ``packed`` it is bitwise-equal to ``conv2d_forward``
    followed by the (optional) ReLU / ``residual + res_scale * out``
    epilogue, without retaining anything for a backward pass.
    """
    kh, kw = packed.kernel
    cin = packed.in_channels
    if x.shape[1] != cin:
        raise ValueError(f"input has {x.shape[1]} channels, kernel expects {cin}")
    xq, x_scale = _quantize_activations(x, packed.precision)
    col, oh, ow = im2col(xq, kh, kw, stride, padding)
    out = col @ packed.mat_t                       # (N*OH*OW, Cout)
    out = out.reshape(x.shape[0], oh, ow, packed.out_channels)
    out = np.ascontiguousarray(out.transpose(0, 3, 1, 2))
    return _apply_epilogue(out, packed, x_scale, relu, residual, res_scale,
                           channel_axis=1)


def pad_nhwc(x: np.ndarray, pad: int) -> np.ndarray:
    """Copy an ``(N, H, W, C)`` batch into a zeroed padded-stride float32
    ``(N, L, C)`` buffer (layout: see the comment above)."""
    n, h, w, c = x.shape
    buf = np.zeros((n, (h + 2 * pad) * (w + 2 * pad) + 2 * pad, c),
                   dtype=np.float32)
    unpad_nhwc(buf, w, pad)[...] = x
    return buf


def unpad_nhwc(buf: np.ndarray, w: int, pad: int) -> np.ndarray:
    """The ``(N, H, W, C)`` image inside a padded-stride buffer (a view)."""
    n, length, c = buf.shape
    wp = w + 2 * pad
    lead = pad * wp + pad
    return buf[:, lead:length - lead].reshape(n, -1, wp, c)[:, :, :w]


def conv2d_shift_padded(
    buf: np.ndarray, w: int, pad: int, packed: PackedConvWeight,
    relu: bool = False, residual: np.ndarray | None = None,
    res_scale: float = 1.0,
) -> np.ndarray:
    """Tap-decomposed convolution (stride 1, 'same') from one padded-stride
    buffer of ``w``-pixel image rows to a new one (``residual`` likewise):
    ``KH*KW`` sgemm calls per frame, each over every pixel of the frame.
    The pad pixels of the output rows come out as wrapped-around sums and
    are zeroed again last — the next conv's taps, and its int8 ``amax``,
    read them as padding."""
    # Bound on first use: scipy.linalg costs ~6 MB of RSS at import, which
    # processes that never run SR (fleet, origin) must not pay.
    from scipy.linalg.blas import sgemm
    kh, kw = packed.kernel
    n, length, cin = buf.shape
    if cin != packed.in_channels or pad < max(kh, kw) // 2:
        raise ValueError(f"input has {cin} channels padded by {pad}, kernel "
                         f"expects {packed.in_channels} and {kh}x{kw} taps")
    wp = w + 2 * pad
    lead = pad * wp + pad
    m = length - 2 * lead
    xq, x_scale = _quantize_activations(buf, packed.precision)
    out = np.zeros((n, length, packed.out_channels), dtype=np.float32)
    body = out[:, lead:lead + m]
    # Up to ~1e6 multiply-adds OpenBLAS runs an unpacked small-matrix
    # kernel whose beta=1 form is 2-4x slower than its beta=0 form; there
    # (the activation is cache-resident) numpy adds the tap instead.
    small = m * cin * packed.out_channels <= 1_000_000
    for frame in range(n):
        for i in range(kh):
            for j in range(kw):
                start = lead + (i - kh // 2) * wp + j - kw // 2
                tap, run = packed.taps[i, j].T, xq[frame, start:start + m].T
                if small:
                    body[frame] += sgemm(1.0, tap, run).T
                else:   # F-ordered views: f2py passes pointers, no copies;
                    # beta=0 first spares a read of untouched pages.
                    sgemm(1.0, tap, run, beta=float(i + j > 0),
                          c=body[frame].T, overwrite_c=1)
    if residual is not None:
        residual = residual[:, lead:lead + m]
    _apply_epilogue(body, packed, x_scale, relu, residual, res_scale,
                    channel_axis=2)
    body.reshape(n, -1, wp, packed.out_channels)[:, :, w:] = 0.0
    return out


def conv2d_shift_nhwc(
    x: np.ndarray, packed: PackedConvWeight, relu: bool = False,
    residual: np.ndarray | None = None, res_scale: float = 1.0,
) -> np.ndarray:
    """:func:`conv2d_shift_padded` over plain NHWC tensors (taken as
    float32): pad in, convolve, crop out.  Epilogues are fused as in
    :func:`conv2d_gemm`; the bits are the per-row kernel's (see above)."""
    pad, w = max(packed.kernel) // 2, x.shape[2]
    if residual is not None:
        residual = pad_nhwc(residual, pad)
    out = conv2d_shift_padded(pad_nhwc(x, pad), w, pad, packed, relu,
                              residual, res_scale)
    return np.ascontiguousarray(unpad_nhwc(out, w, pad))


# ---------------------------------------------------------------------------
# Cache-blocked im2col kernel.
#
# The classic im2col trade-off is memory: the patch matrix is KH*KW times
# the activation, and at frame scale it falls out of L2 long before the
# GEMM reads it back.  :func:`conv2d_im2col_nhwc` keeps the im2col GEMM
# shape (one big (M, Cin*KH*KW) @ (Cin*KH*KW, Cout) product, which BLAS
# likes far better than the shift kernel's KH*KW skinny GEMMs) but
# materializes the patch matrix one *row block* at a time, sized so the
# scratch stays inside a fixed budget (:data:`IM2COL_SCRATCH_BYTES`,
# default 256 KiB — comfortably L2-resident).  Each block is an
# independent slice of the same GEMM: the sliding windows of an NHWC
# image flatten in the same ``(Cin, KH, KW)`` K-order ``im2col`` uses,
# against the same ``packed.mat_t`` operand.
#
# Exactness caveat, learned the hard way: BLAS sgemm output *depends on
# M*.  OpenBLAS switches micro-kernel / threading partition below a
# shape threshold (measured: M >= ~2560 for K=72, N=8 lands in one
# regime, smaller M in another), so two fp32 GEMMs over the same operand
# rows can differ in the last ulp when their M differs.  Consequences:
#   - fp32/fp16 blocked output matches unblocked within reassociation
#     tolerance (<= ~5e-6 at unit-scale operands), NOT bitwise in
#     general — asserted at 1e-5 in tests/nn/test_blocked_gemm.py.
#   - int8 blocked output IS bitwise-equal to unblocked (and to the
#     shift kernel) at every block size: integer-valued operands
#     accumulate exactly under 2^24, so summation order cannot matter.

#: Scratch budget (bytes) for the blocked im2col patch matrix; sized to
#: stay L2-resident on commodity cores.
IM2COL_SCRATCH_BYTES = 256 * 1024


def im2col_block_rows(w: int, cin: int, kh: int, kw: int,
                      scratch_bytes: int = IM2COL_SCRATCH_BYTES) -> int:
    """Output rows per im2col block such that the ``(rows*W, Cin*KH*KW)``
    float32 scratch fits in ``scratch_bytes`` (always at least one row)."""
    bytes_per_row = max(1, w * cin * kh * kw * 4)
    return max(1, scratch_bytes // bytes_per_row)


def _im2col_nhwc_blocked(xp: np.ndarray, mat_t: np.ndarray, out: np.ndarray,
                         kh: int, kw: int, block_rows: int) -> None:
    """Blocked ``im2col @ mat_t`` over a padded NHWC batch, into ``out``."""
    n, h, w, cout = out.shape
    cin = xp.shape[3]
    for img in range(n):
        # (H, W, Cin, KH, KW): K-order (Cin, KH, KW) matches ``mat_t``.
        win = sliding_window_view(xp[img], (kh, kw), axis=(0, 1))
        out2d = out[img].reshape(h * w, cout)
        for y0 in range(0, h, block_rows):
            y1 = min(y0 + block_rows, h)
            block = win[y0:y1].reshape((y1 - y0) * w, cin * kh * kw)
            np.matmul(block, mat_t, out=out2d[y0 * w:y1 * w])


def _resolve_block_rows(block_rows: int | None, h: int, w: int, cin: int,
                        kh: int, kw: int) -> int:
    if block_rows is None:
        return im2col_block_rows(w, cin, kh, kw)
    block_rows = int(block_rows)
    if block_rows == 0:
        return h                   # unblocked: whole image in one GEMM
    if block_rows < 0:
        raise ValueError("block_rows must be >= 0 (0 = unblocked) or None")
    return block_rows


def conv2d_im2col_nhwc(
    x: np.ndarray, packed: PackedConvWeight, relu: bool = False,
    residual: np.ndarray | None = None, res_scale: float = 1.0,
    block_rows: int | None = None,
) -> np.ndarray:
    """Cache-blocked im2col convolution over NHWC tensors (stride 1, 'same').

    ``block_rows`` output rows are expanded at a time so the patch matrix
    scratch stays within :data:`IM2COL_SCRATCH_BYTES` (``None`` derives the
    block from the budget; ``0`` disables blocking).  Blocks are disjoint
    row ranges of one GEMM, but BLAS selects M-dependent fp32 kernels, so
    the blocked result matches the unblocked one (and ``conv2d_forward``)
    within reassociation tolerance — not bitwise; see the module comment
    above.  With an int8 ``packed`` the accumulation is exact, so every
    block size is bitwise-identical (and equal to the shift kernel).
    Activations are quantized once per conv and epilogues fused, as in
    :func:`conv2d_shift_nhwc`.
    """
    kh, kw = packed.kernel
    n, h, w, cin = x.shape
    if cin != packed.in_channels:
        raise ValueError(f"input has {cin} channels, kernel expects "
                         f"{packed.in_channels}")
    rows = _resolve_block_rows(block_rows, h, w, cin, kh, kw)
    xq, x_scale = _quantize_activations(x, packed.precision)
    xp = np.pad(xq, [(0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2), (0, 0)])
    out = np.empty((n, h, w, packed.out_channels), dtype=np.float32)
    _im2col_nhwc_blocked(xp, packed.mat_t, out, kh, kw, rows)
    return _apply_epilogue(out, packed, x_scale, relu, residual, res_scale,
                           channel_axis=3)


def pixel_shuffle(x: np.ndarray, scale: int) -> np.ndarray:
    """Rearrange ``(N, C*r^2, H, W)`` to ``(N, C, H*r, W*r)`` (sub-pixel conv)."""
    n, c, h, w = x.shape
    r = scale
    if c % (r * r) != 0:
        raise ValueError(f"channels {c} not divisible by scale^2 = {r * r}")
    cout = c // (r * r)
    x = x.reshape(n, cout, r, r, h, w)
    x = x.transpose(0, 1, 4, 2, 5, 3)  # (N, Cout, H, r, W, r)
    return np.ascontiguousarray(x.reshape(n, cout, h * r, w * r))


def pixel_unshuffle(x: np.ndarray, scale: int) -> np.ndarray:
    """Inverse of :func:`pixel_shuffle`."""
    n, c, hr, wr = x.shape
    r = scale
    if hr % r != 0 or wr % r != 0:
        raise ValueError(f"spatial dims ({hr}, {wr}) not divisible by scale {r}")
    h, w = hr // r, wr // r
    x = x.reshape(n, c, h, r, w, r)
    x = x.transpose(0, 1, 3, 5, 2, 4)  # (N, C, r, r, H, W)
    return np.ascontiguousarray(x.reshape(n, c * r * r, h, w))


def pixel_shuffle_nhwc(x: np.ndarray, scale: int) -> np.ndarray:
    """:func:`pixel_shuffle` for NHWC tensors: ``(N, H, W, C*r^2)`` to
    ``(N, H*r, W*r, C)``, channel-index-compatible with the NCHW version."""
    n, h, w, c = x.shape
    r = scale
    if c % (r * r) != 0:
        raise ValueError(f"channels {c} not divisible by scale^2 = {r * r}")
    cout = c // (r * r)
    x = x.reshape(n, h, w, cout, r, r)
    x = x.transpose(0, 1, 4, 2, 5, 3)  # (N, H, r, W, r, Cout)
    return np.ascontiguousarray(x).reshape(n, h * r, w * r, cout)


def avg_pool2d_forward(x: np.ndarray, kernel: int) -> np.ndarray:
    """Non-overlapping average pooling (stride == kernel)."""
    n, c, h, w = x.shape
    if h % kernel != 0 or w % kernel != 0:
        raise ValueError(f"spatial dims ({h}, {w}) not divisible by pool {kernel}")
    x = x.reshape(n, c, h // kernel, kernel, w // kernel, kernel)
    return x.mean(axis=(3, 5))


def avg_pool2d_backward(grad_out: np.ndarray, kernel: int) -> np.ndarray:
    """Backward of :func:`avg_pool2d_forward`: spread gradient uniformly."""
    scale = 1.0 / (kernel * kernel)
    g = np.repeat(np.repeat(grad_out, kernel, axis=2), kernel, axis=3)
    return g * scale


def nearest_upsample(x: np.ndarray, scale: int) -> np.ndarray:
    """Nearest-neighbour upsampling of the two trailing axes."""
    return np.repeat(np.repeat(x, scale, axis=-2), scale, axis=-1)


def nearest_downsample_grad(grad_out: np.ndarray, scale: int) -> np.ndarray:
    """Backward of :func:`nearest_upsample`: sum each scale x scale block."""
    n, c, hr, wr = grad_out.shape
    h, w = hr // scale, wr // scale
    g = grad_out.reshape(n, c, h, scale, w, scale)
    return g.sum(axis=(3, 5))
