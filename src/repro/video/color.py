"""BT.601 full-range color conversion between RGB and planar YUV 4:2:0.

This is the "YUV to RGB conversion" step of the client-side dcSR pipeline
(Figure 6, steps 2 and 5): I frames live in the decoded-picture buffer in
YUV 4:2:0 and must be converted to RGB for the SR model and back afterwards.
Each direction is one pass of a compiled kernel (``_color.c`` in
:mod:`repro.native`'s library) into a fresh array; chroma is subsampled by
averaging each 2x2 block and upsampled by repeating each sample.
"""

from __future__ import annotations

import numpy as np

from .. import native
from .frame import _RANGE_ERROR, YuvFrame, _as_rgb

__all__ = [
    "rgb_to_yuv420",
    "yuv420_to_rgb",
]


def _status(status: int) -> None:
    if status < 0:
        raise MemoryError("the colour kernel could not allocate its rows")
    if status:
        raise ValueError(_RANGE_ERROR)


def rgb_to_yuv420(rgb: np.ndarray) -> YuvFrame:
    """Convert a float RGB frame in [0, 1] to planar YUV 4:2:0 uint8.

    Checked as :func:`~repro.video.frame.validate_rgb` checks, in the same
    pass: a sample that is NaN or outside [0, 1] by more than 1e-3 raises
    ``ValueError``, smaller overshoots are clipped."""
    rgb = np.ascontiguousarray(_as_rgb(rgb), dtype=np.float32)
    h, w, _ = rgb.shape
    if h % 2 or w % 2:
        raise ValueError(f"plane dimensions must be even, got {(h, w)}")
    y = np.empty((h, w), np.uint8)
    u = np.empty((h // 2, w // 2), np.uint8)
    v = np.empty((h // 2, w // 2), np.uint8)
    _status(native.library().rgb_to_yuv420(
        rgb.ctypes.data, y.ctypes.data, u.ctypes.data, v.ctypes.data, h, w))
    return YuvFrame(y, u, v)


def yuv420_to_rgb(frame: YuvFrame) -> np.ndarray:
    """Convert a planar YUV 4:2:0 frame to a float RGB frame in [0, 1]."""
    h, w = frame.size
    planes = [np.ascontiguousarray(p, dtype=np.uint8)
              for p in (frame.y, frame.u, frame.v)]
    if h % 2 or w % 2 or any(p.shape != (h // 2, w // 2) for p in planes[1:]):
        # YuvFrame checks this when built; its planes may be swapped since.
        raise ValueError(f"not a 4:2:0 frame: planes of shapes "
                         f"{[p.shape for p in planes]}")
    rgb = np.empty((h, w, 3), np.float32)
    _status(native.library().yuv420_to_rgb(
        *(p.ctypes.data for p in planes), rgb.ctypes.data, h, w))
    return rgb
