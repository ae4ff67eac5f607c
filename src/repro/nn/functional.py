"""Stateless numerical primitives shared by the layers and the inference
engine.

The layers' tensors use the NCHW layout ``(batch, channels, height,
width)``; the engine's conv kernels (below ``conv2d_backward``) run NHWC.

The convolution here is implemented with ``sliding_window_view`` plus
``tensordot`` in the forward pass, and with the classic "full convolution of
the (stride-dilated) output gradient with the flipped kernel" in the backward
pass.  Everything is fully vectorised; there are no per-pixel Python loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .. import native

__all__ = [
    "pad2d",
    "unpad2d",
    "conv2d_forward",
    "conv2d_backward",
    "PackedConvWeight",
    "pack_conv_weight",
    "conv2d_shift_nhwc",
    "conv2d_shift_padded",
    "pad_nhwc",
    "unpad_nhwc",
    "IM2COL_SCRATCH_BYTES",
    "im2col_block_rows",
    "conv2d_im2col_nhwc",
    "PRECISIONS",
    "pixel_shuffle",
    "pixel_unshuffle",
    "pixel_shuffle_nhwc",
    "nearest_upsample",
    "nearest_downsample_grad",
]


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
# Inference kernels.
#
# ``conv2d_forward`` above is the training conv (and, through
# ``EDSR.forward``, the oracle tests hold the engine to); the functions
# below are the kernels of ``repro.sr.InferenceEngine``, their one caller
# in the library.  Two kernels share one packed operand
# (:class:`PackedConvWeight`) and one fused epilogue — both stride 1 /
# 'same' over NHWC activations, both within float32 reassociation of
# ``conv2d_forward``, neither bitwise-equal to it:
#
# - :func:`conv2d_shift_nhwc` — the taps summed one by one; the KH*KW-
#   times-larger im2col matrix is never built, at the price of a different
#   summation order (float32 reassociation, a few ULP per layer).  The
#   engine's default kernel.  Activations sit
#   *padded-stride*: pixels are rows of a flat ``(L, C)`` buffer, each
#   image row followed by ``2*pad`` zero pixels, with ``pad*(W+2*pad) +
#   pad`` zero rows before and after — so a tap is one contiguous run for
#   all pixels at once.  A conv is one call per frame of a compiled kernel
#   (``_shift_conv.c``, in :mod:`repro.native`'s library) that keeps
#   the arithmetic of the per-tap sgemm sequence it replaced, and so the
#   bits of the per-row kernel before that
#   (``tests/nn/reference_shift.py``): per tap an FMA chain over Cin from
#   +0 — what a BLAS micro-kernel computes for K = Cin — then the taps
#   added in row-major order, one rounding each, then the epilogue below,
#   fused, in :func:`_apply_epilogue`'s order.  The reference sweep and
#   the engine digests pin it.  (Cout = 1 went to sgemv in the per-row
#   kernel, whose sums depend on the row count: 1e-6-close only.)
# - :func:`conv2d_im2col_nhwc` — the cache-blocked im2col GEMM (below).
#
# Precision is a property of the checkpoint a client downloads, not a
# second arithmetic.  :func:`pack_conv_weight` rebuilds from the fp32
# weights what that checkpoint carries (``nn.quantized_size_bytes``
# prices it) — fp16 weights and bias rounded to half; int8 weights as
# per-output-channel codes times their scale, the bias kept in float32 —
# and dequantizes them once, so every conv at every precision runs the
# same float32 kernels on float32 activations.
#
# Every kernel sums its taps, then applies the bias / ReLU / ``res_scale``
# / residual epilogue in float32.  The shift kernel does the epilogue per
# pixel in registers; the im2col kernel in :func:`_apply_epilogue`, whose
# passes run over image rows, ``(rows, width*Cout)``, not the 8- or
# 12-wide channel loops that made it slow.

#: Precisions understood by ``pack_conv_weight`` / the inference engine.
PRECISIONS = ("fp32", "fp16", "int8")


@dataclass(frozen=True)
class PackedConvWeight:
    """A conv kernel pre-packed for the inference kernels at one precision.

    Built once per weight version (:attr:`~repro.nn.tensor.Parameter.version`)
    and reused across frames; see ``Conv2d.packed``.  Operands are float32,
    at a reduced precision already dequantized from what its checkpoint
    ships (see the comment above).  Training never reads it:
    ``conv2d_forward`` takes the live weight.
    """

    #: ``(Cin*KH*KW, Cout)`` C-contiguous — the kernel in im2col K-order,
    #: the right-hand operand of the blocked im2col GEMM.
    mat_t: np.ndarray
    #: ``(KH, KW, Cin, Cout)`` — per-tap matrices for the NHWC shift kernel.
    taps: np.ndarray
    bias: np.ndarray | None
    kernel: tuple[int, int]
    precision: str = "fp32"

    def __post_init__(self):
        object.__setattr__(self, "_rows", {})

    @property
    def out_channels(self) -> int:
        return self.taps.shape[3]

    @property
    def in_channels(self) -> int:
        return self.taps.shape[2]

    def rows(self, width: int) -> np.ndarray | None:
        """The bias repeated across one ``width``-pixel row — the
        epilogue's row view of it, built once per width — or ``None``."""
        if self.bias is None:
            return None
        row = self._rows.get(width)
        if row is None:
            row = self._rows[width] = np.tile(self.bias, width)
        return row


def pack_conv_weight(weight: np.ndarray, bias: np.ndarray | None,
                     precision: str = "fp32") -> PackedConvWeight:
    """Pack a ``(Cout, Cin, KH, KW)`` kernel for the inference kernels.

    A reduced precision packs what a client rebuilds from that precision's
    checkpoint: fp16 rounds the weights and the bias to half; int8 keeps
    ``clip(rint(w / s), -127, 127) * s`` with symmetric per-output-channel
    scales ``s = max|w[o]| / 127`` and a float32 bias.  Raises
    ``ValueError`` for unknown precisions.
    """
    cout, cin, kh, kw = weight.shape
    # Explicit copies: a view of the live weight would silently track
    # later in-place updates, defeating version-keyed cache invalidation.
    q = weight.astype(np.float32, copy=True)
    b = None if bias is None else np.array(bias, dtype=np.float32)
    if precision == "fp16":
        q = q.astype(np.float16).astype(np.float32)
        if b is not None:
            b = b.astype(np.float16).astype(np.float32)
    elif precision == "int8":
        amax = np.abs(q).reshape(cout, -1).max(axis=1)
        scales = np.where(amax > 0.0, amax / 127.0, 1.0).astype(np.float32)
        scales = scales[:, None, None, None]
        codes = np.clip(np.rint(q / scales), -127, 127).astype(np.int8)
        q = codes * scales
    elif precision != "fp32":
        raise ValueError(f"unknown precision {precision!r}; "
                         f"expected one of {PRECISIONS}")
    return PackedConvWeight(
        mat_t=np.ascontiguousarray(q.reshape(cout, cin * kh * kw).T),
        taps=np.ascontiguousarray(q.transpose(2, 3, 1, 0)),
        bias=b,
        kernel=(kh, kw),
        precision=precision,
    )


def _apply_epilogue(out: np.ndarray, packed: PackedConvWeight, relu: bool,
                    residual: np.ndarray | None, res_scale: float,
                    width: int) -> np.ndarray:
    """Fused conv epilogue: bias add, then ReLU, then ``res_scale`` and the
    residual skip add — all in place on ``out``, ``N`` frames of
    ``width``-pixel rows, each viewed as ``(rows, width*Cout)``.  The
    compiled shift kernel runs the same steps in the same order per
    pixel."""
    n = len(out)
    bias = packed.rows(width)
    for f, rows in enumerate(out.reshape(n, -1, width * packed.out_channels)):
        if bias is not None:
            rows += bias
        if relu:
            np.maximum(rows, 0.0, out=rows)
        if res_scale != 1.0:
            rows *= res_scale
        if residual is not None:
            rows += residual[f].reshape(rows.shape)
    return out


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
    one call of the compiled kernel per frame, which sums the taps and
    runs the epilogue.  The pad pixels of the output are zero — the next
    conv's taps read them as padding."""
    kh, kw = packed.kernel
    n, length, cin = buf.shape
    cout = packed.out_channels
    if cin != packed.in_channels or pad < max(kh, kw) // 2:
        raise ValueError(f"input has {cin} channels padded by {pad}, kernel "
                         f"expects {packed.in_channels} and {kh}x{kw} taps")
    wp = w + 2 * pad
    if length < 2 * (pad * wp + pad) or (length - 2 * pad) % wp:
        raise ValueError(f"{length} pixels are no padded-stride frame of "
                         f"{w}-pixel rows padded by {pad}")
    if residual is not None and residual.shape != (n, length, cout):
        raise ValueError(f"residual of shape {residual.shape} for an output "
                         f"of {(n, length, cout)}")
    buf = np.ascontiguousarray(buf, dtype=np.float32)
    out = np.empty((n, length, cout), dtype=np.float32)
    if residual is not None:
        residual = np.ascontiguousarray(residual, dtype=np.float32)
    conv = native.library().shift_conv
    bias = None if packed.bias is None else packed.bias.ctypes.data
    for f in range(n):
        status = conv(buf[f].ctypes.data, packed.taps.ctypes.data, bias,
                      None if residual is None else residual[f].ctypes.data,
                      out[f].ctypes.data, length, w, pad, kh, kw, cin, cout,
                      bool(relu), res_scale)
        if status:
            raise MemoryError("the conv kernel could not allocate its taps")
    return out


def conv2d_shift_nhwc(
    x: np.ndarray, packed: PackedConvWeight, relu: bool = False,
    residual: np.ndarray | None = None, res_scale: float = 1.0,
) -> np.ndarray:
    """:func:`conv2d_shift_padded` over plain NHWC tensors (taken as
    float32): pad in, convolve, crop out, with the same fused epilogues;
    the bits are the per-row kernel's (see above)."""
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
# image flatten in the ``(Cin, KH, KW)`` K-order of ``packed.mat_t``.
#
# Exactness caveat, learned the hard way: BLAS sgemm output *depends on
# M*.  OpenBLAS switches micro-kernel / threading partition below a
# shape threshold (measured: M >= ~2560 for K=72, N=8 lands in one
# regime, smaller M in another), so two fp32 GEMMs over the same operand
# rows can differ in the last ulp when their M differs.  Consequences:
#   blocked output matches unblocked within reassociation tolerance
#   (<= ~5e-6 at unit-scale operands), NOT bitwise in general, at every
#   precision — asserted at 1e-5 in tests/nn/test_blocked_gemm.py.

#: Scratch budget (bytes) for the blocked im2col patch matrix; sized to
#: stay L2-resident on commodity cores.
IM2COL_SCRATCH_BYTES = 256 * 1024


def im2col_block_rows(w: int, cin: int, kh: int, kw: int) -> int:
    """Output rows per im2col block such that the ``(rows*W, Cin*KH*KW)``
    float32 scratch fits in :data:`IM2COL_SCRATCH_BYTES` (always at least
    one row)."""
    bytes_per_row = max(1, w * cin * kh * kw * 4)
    return max(1, IM2COL_SCRATCH_BYTES // bytes_per_row)


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
    above.  Epilogues are fused, as in :func:`conv2d_shift_nhwc`.
    """
    kh, kw = packed.kernel
    n, h, w, cin = x.shape
    if cin != packed.in_channels:
        raise ValueError(f"input has {cin} channels, kernel expects "
                         f"{packed.in_channels}")
    rows = _resolve_block_rows(block_rows, h, w, cin, kh, kw)
    xp = np.pad(x, [(0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2), (0, 0)])
    out = np.empty((n, h, w, packed.out_channels), dtype=np.float32)
    _im2col_nhwc_blocked(xp, packed.mat_t, out, kh, kw, rows)
    return _apply_epilogue(out, packed, relu, residual, res_scale, w)


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


def nearest_upsample(x: np.ndarray, scale: int) -> np.ndarray:
    """Nearest-neighbour upsampling of the two trailing axes."""
    return np.repeat(np.repeat(x, scale, axis=-2), scale, axis=-1)


def nearest_downsample_grad(grad_out: np.ndarray, scale: int) -> np.ndarray:
    """Backward of :func:`nearest_upsample`: sum each scale x scale block."""
    n, c, hr, wr = grad_out.shape
    h, w = hr // scale, wr // scale
    g = grad_out.reshape(n, c, h, scale, w, scale)
    return g.sum(axis=(3, 5))
