"""Separable bicubic image resampling.

Implemented as two sparse-ish weight matrices (one per axis) applied with
matrix products, so resizing a frame is two GEMMs per channel — no Python
pixel loops.  Bicubic uses the Catmull-Rom-style kernel with ``a = -0.5``
(the same kernel family FFMPEG and PIL use), and is the substrate for the
bicubic SR baseline and for building low-resolution training inputs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["resize", "cubic_kernel", "downscale", "upscale"]


def cubic_kernel(x: np.ndarray) -> np.ndarray:
    """Cubic convolution kernel (Keys 1981) with free parameter ``a =
    -0.5``."""
    a = -0.5
    x = np.abs(x)
    x2 = x * x
    x3 = x2 * x
    out = np.where(
        x <= 1.0,
        (a + 2.0) * x3 - (a + 3.0) * x2 + 1.0,
        np.where(x < 2.0, a * x3 - 5.0 * a * x2 + 8.0 * a * x - 4.0 * a, 0.0),
    )
    return out


def _axis_weights(n_in: int, n_out: int) -> np.ndarray:
    """Dense (n_out, n_in) resampling matrix for one axis.

    Uses pixel-centre alignment: output pixel ``i`` samples input coordinate
    ``(i + 0.5) * n_in / n_out - 0.5``.  When downscaling, the kernel is
    widened by the scale factor (area-style anti-aliasing).
    """
    if n_in < 1 or n_out < 1:
        raise ValueError("image dimensions must be positive")
    scale = n_in / n_out
    widen = max(scale, 1.0)
    centers = (np.arange(n_out) + 0.5) * scale - 0.5
    radius = 2.0 * widen                  # the cubic kernel's support
    lo = np.floor(centers - radius).astype(int)
    width = int(np.ceil(2 * radius)) + 2
    offsets = np.arange(width)
    idx = lo[:, None] + offsets[None, :]  # (n_out, width)
    dist = (idx - centers[:, None]) / widen
    w = cubic_kernel(dist)
    # Clamp out-of-range taps to the edge pixels (replicate border).
    idx = np.clip(idx, 0, n_in - 1)
    norm = w.sum(axis=1, keepdims=True)
    norm[norm == 0] = 1.0
    w = w / norm
    mat = np.zeros((n_out, n_in), dtype=np.float64)
    rows = np.repeat(np.arange(n_out), width)
    np.add.at(mat, (rows, idx.reshape(-1)), w.reshape(-1))
    return mat.astype(np.float32)


def resize(img: np.ndarray, size: tuple[int, int]) -> np.ndarray:
    """Bicubic resize of ``img`` to ``size = (H, W)``.

    ``img`` may be ``(H, W)`` or ``(H, W, C)`` float.  The output is
    clipped to [0, 1] (bicubic overshoots near edges).
    """
    img = np.asarray(img, dtype=np.float32)
    if img.ndim not in (2, 3):
        raise ValueError(f"expected 2-D or 3-D image, got shape {img.shape}")
    out_h, out_w = size
    wh = _axis_weights(img.shape[0], out_h)
    ww = _axis_weights(img.shape[1], out_w)
    if img.ndim == 2:
        out = wh @ img @ ww.T
    else:
        out = np.einsum("oi,ijc,pj->opc", wh, img, ww, optimize=True)
    return np.clip(out, 0.0, 1.0).astype(np.float32)


def downscale(img: np.ndarray, factor: int) -> np.ndarray:
    """Downscale by an integer ``factor`` (dimensions must divide evenly)."""
    h, w = img.shape[:2]
    if h % factor or w % factor:
        raise ValueError(f"dimensions {(h, w)} not divisible by factor {factor}")
    return resize(img, (h // factor, w // factor))


def upscale(img: np.ndarray, factor: int) -> np.ndarray:
    """Upscale by an integer ``factor`` (the bicubic SR baseline)."""
    h, w = img.shape[:2]
    return resize(img, (h * factor, w * factor))
