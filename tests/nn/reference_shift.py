"""The shift kernel as it was first written: one ``np.matmul`` per tap on a
shifted 4-D view of the ``np.pad``-ded input, summed through a scratch.

This is ``repro.nn.functional.conv2d_shift_nhwc`` (with the two helpers it
calls) verbatim from the commit before the kernel moved onto the
padded-stride layout — ``N * H`` row GEMMs per tap plus an ``acc += tmp``
pass, and the definition of every bit the SR engine's recorded digests
hold.  The padded-stride kernel must return the same float32s;
``test_shift_reference.py`` holds it to that.  Not a second implementation
to keep in step: it never changes.
"""

import numpy as np


def _quantize_activations(
        x: np.ndarray, precision: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Constrain a 4-D activation batch to the precision's grid.

    Returns ``(xq, scale)``: fp32 passes through and fp16 rounds, both with
    no scale; int8 returns integer codes plus the dynamic scale of each
    frame, shaped ``(N, 1, 1, 1)`` — one quantizer per frame, so no frame
    of a batch depends on its neighbours.
    """
    if precision == "fp32":
        return x, None
    if precision == "fp16":
        return x.astype(np.float16).astype(np.float32), None
    amax = np.abs(x).reshape(len(x), -1).max(axis=1, initial=0.0)
    amax = amax.astype(np.float64).reshape(-1, 1, 1, 1)
    scale = np.where(amax > 0.0, amax / 127.0, 1.0)
    xq = np.rint(x * (1.0 / scale).astype(np.float32))
    return xq, scale.astype(np.float32)


def _apply_epilogue(out: np.ndarray, packed,
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


def conv2d_shift_nhwc(
    x: np.ndarray, packed, relu: bool = False,
    residual: np.ndarray | None = None, res_scale: float = 1.0,
) -> np.ndarray:
    """Tap-decomposed convolution over NHWC tensors (stride 1, 'same').

    One ``(W, Cin) @ (Cin, Cout)`` GEMM per kernel tap, accumulated over
    shifted views of the zero-padded input (quantized once per conv at a
    reduced precision).  Epilogues are fused as in :func:`conv2d_gemm`;
    fp32 output differs from the reference only by float32 reassociation
    (a few ULP per layer).
    """
    kh, kw = packed.kernel
    n, h, w, cin = x.shape
    if cin != packed.in_channels:
        raise ValueError(f"input has {cin} channels, kernel expects "
                         f"{packed.in_channels}")
    xq, x_scale = _quantize_activations(x, packed.precision)
    xp = np.pad(xq, [(0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2), (0, 0)])
    taps = packed.taps
    acc = np.empty((n, h, w, packed.out_channels), dtype=np.float32)
    tmp = np.empty_like(acc)
    first = True
    for i in range(kh):
        for j in range(kw):
            np.matmul(xp[:, i:i + h, j:j + w, :], taps[i, j],
                      out=acc if first else tmp)
            if not first:
                acc += tmp
            first = False
    return _apply_epilogue(acc, packed, x_scale, relu, residual, res_scale,
                           channel_axis=3)
