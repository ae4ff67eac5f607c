"""The shift kernel as it was first written: one ``np.matmul`` per tap on a
shifted 4-D view of the ``np.pad``-ded input, summed through a scratch.

This is ``repro.nn.functional.conv2d_shift_nhwc`` (with the helpers it
called) verbatim from the commit before the kernel moved onto the
padded-stride layout — ``N * H`` row GEMMs per tap plus an ``acc += tmp``
pass, and the definition of every bit the SR engine's recorded digests
hold.  The padded-stride kernel must return the same float32s;
``test_shift_reference.py`` holds it to that.  Not a second implementation
to keep in step: it changed once, when reduced precisions stopped
quantizing activations and dequantizing the accumulator (a pack now holds
dequantized weights), which took out its activation quantizer and the
dequant step of its epilogue.
"""

import numpy as np


def _apply_epilogue(out: np.ndarray, packed, relu: bool,
                    residual: np.ndarray | None, res_scale: float,
                    channel_axis: int) -> np.ndarray:
    """Fused conv epilogue: bias add, then ReLU, then ``res_scale`` and the
    residual skip add — all in place on ``out``."""
    shape = [1] * out.ndim
    shape[channel_axis] = packed.out_channels
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
    shifted views of the zero-padded input.  Epilogues are fused (bias,
    ReLU, residual);
    fp32 output differs from ``conv2d_forward`` only by float32
    reassociation (a few ULP per layer).
    """
    kh, kw = packed.kernel
    n, h, w, cin = x.shape
    if cin != packed.in_channels:
        raise ValueError(f"input has {cin} channels, kernel expects "
                         f"{packed.in_channels}")
    xp = np.pad(x, [(0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2), (0, 0)])
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
    return _apply_epilogue(acc, packed, relu, residual, res_scale,
                           channel_axis=3)
