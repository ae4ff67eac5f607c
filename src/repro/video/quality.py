"""Video quality metrics: PSNR and SSIM (Wang et al. 2004).

These are the metrics of Figure 9 (quality comparison across the six-video
corpus) and Figure 1(c) (per-frame quality variance of a single big model).
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import gaussian_filter

from .frame import YuvFrame

__all__ = ["psnr", "ssim", "psnr_yuv", "mse"]


def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared error between two arrays of identical shape."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


def psnr(a: np.ndarray, b: np.ndarray, data_range: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB.

    Returns ``inf`` for identical inputs.
    """
    err = mse(a, b)
    if err == 0.0:
        return float("inf")
    return float(10.0 * np.log10(data_range * data_range / err))


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Structural similarity index with a Gaussian window.

    ``a`` and ``b`` are 2-D (single channel) or ``(H, W, C)`` (averaged over
    channels), in [0, 1].  Follows Wang et al. 2004 (``k1 = 0.01``, ``k2 =
    0.03``) with an 11-tap Gaussian window approximated by
    ``gaussian_filter`` at sigma 1.5, truncated at 3.5 sigma.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim == 3:
        return float(np.mean([
            ssim(a[..., c], b[..., c]) for c in range(a.shape[2])
        ]))
    if a.ndim != 2:
        raise ValueError(f"expected 2-D or 3-D input, got shape {a.shape}")

    c1 = 0.01 ** 2
    c2 = 0.03 ** 2
    sigma, truncate = 1.5, 3.5

    mu_a = gaussian_filter(a, sigma, truncate=truncate)
    mu_b = gaussian_filter(b, sigma, truncate=truncate)
    mu_a2 = mu_a * mu_a
    mu_b2 = mu_b * mu_b
    mu_ab = mu_a * mu_b
    sigma_a2 = gaussian_filter(a * a, sigma, truncate=truncate) - mu_a2
    sigma_b2 = gaussian_filter(b * b, sigma, truncate=truncate) - mu_b2
    sigma_ab = gaussian_filter(a * b, sigma, truncate=truncate) - mu_ab

    num = (2.0 * mu_ab + c1) * (2.0 * sigma_ab + c2)
    den = (mu_a2 + mu_b2 + c1) * (sigma_a2 + sigma_b2 + c2)
    return float(np.mean(num / den))


def psnr_yuv(a: YuvFrame, b: YuvFrame) -> float:
    """PSNR over the luma plane of two YUV frames (uint8 range)."""
    return psnr(a.y.astype(np.float64), b.y.astype(np.float64), data_range=255.0)
