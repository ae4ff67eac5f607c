"""Numpy colour conversion: the formulas ``repro.video.color`` evaluated
before each direction became one pass of a compiled kernel.

Kept verbatim, with the 4:2:0 chroma resampling they used, as the oracle
``test_color_native.py`` holds the kernel to, bit for bit: the float32 RGB
compared as uint32, the YUV planes as uint8.  The one edit splits the
RGB-to-YUV direction before its rounding, so a test can see which samples
sit on a rounding tie.
"""

from __future__ import annotations

import numpy as np

from repro.video.frame import YuvFrame, validate_rgb

# BT.601 full-range ("JPEG") coefficients.
_KR, _KG, _KB = 0.299, 0.587, 0.114


def downsample_chroma(plane: np.ndarray) -> np.ndarray:
    """4:2:0 chroma subsampling: average each 2x2 block."""
    h, w = plane.shape
    if h % 2 or w % 2:
        raise ValueError(f"plane dimensions must be even, got {(h, w)}")
    blocks = plane.astype(np.float32).reshape(h // 2, 2, w // 2, 2)
    return blocks.mean(axis=(1, 3))


def upsample_chroma(plane: np.ndarray) -> np.ndarray:
    """Nearest-neighbour 2x chroma upsampling (decoder-side)."""
    return np.repeat(np.repeat(plane, 2, axis=0), 2, axis=1)


def unrounded_yuv420(rgb: np.ndarray) -> tuple[np.ndarray, ...]:
    """The float32 Y, U and V planes :func:`rgb_to_yuv420` rounds."""
    rgb = validate_rgb(rgb)
    r = rgb[..., 0].astype(np.float32) * 255.0
    g = rgb[..., 1].astype(np.float32) * 255.0
    b = rgb[..., 2].astype(np.float32) * 255.0

    y = _KR * r + _KG * g + _KB * b
    cb = (b - y) / (2.0 * (1.0 - _KB)) + 128.0
    cr = (r - y) / (2.0 * (1.0 - _KR)) + 128.0

    u = downsample_chroma(np.clip(cb, 0, 255))
    v = downsample_chroma(np.clip(cr, 0, 255))
    return y, u, v


def rgb_to_yuv420(rgb: np.ndarray) -> YuvFrame:
    """Convert a float RGB frame in [0, 1] to planar YUV 4:2:0 uint8."""
    y, u, v = unrounded_yuv420(rgb)
    return YuvFrame(
        np.clip(np.rint(y), 0, 255).astype(np.uint8),
        np.clip(np.rint(u), 0, 255).astype(np.uint8),
        np.clip(np.rint(v), 0, 255).astype(np.uint8),
    )


def yuv420_to_rgb(frame: YuvFrame) -> np.ndarray:
    """Convert a planar YUV 4:2:0 frame to a float RGB frame in [0, 1]."""
    y = frame.y.astype(np.float32)
    cb = upsample_chroma(frame.u.astype(np.float32)) - 128.0
    cr = upsample_chroma(frame.v.astype(np.float32)) - 128.0

    r = y + 2.0 * (1.0 - _KR) * cr
    b = y + 2.0 * (1.0 - _KB) * cb
    g = (y - _KR * r - _KB * b) / _KG

    rgb = np.stack([r, g, b], axis=-1)      # float32, and this call's own
    rgb /= 255.0
    return np.clip(rgb, 0.0, 1.0, out=rgb)
