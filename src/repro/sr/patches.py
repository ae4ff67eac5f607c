"""Patch sampling for SR training.

SR models train on small aligned LR/HR patch pairs rather than whole
frames; dcSR's micro models train this way on each cluster's I frames only.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sample_patch_pairs"]


def sample_patch_pairs(
    lr_frames: np.ndarray, hr_frames: np.ndarray, patch_size: int,
    n_patches: int, rng: np.random.Generator, scale: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample aligned random patch pairs.

    Parameters
    ----------
    lr_frames:
        ``(N, h, w, 3)`` degraded frames (the network input).
    hr_frames:
        ``(N, h*scale, w*scale, 3)`` ground-truth frames.
    patch_size:
        LR patch side; the HR patch is ``patch_size * scale``.

    Returns ``(lr_patches, hr_patches)`` in NCHW layout.
    """
    if lr_frames.ndim != 4 or hr_frames.ndim != 4:
        raise ValueError("frames must be (N, H, W, 3) arrays")
    n, h, w = lr_frames.shape[:3]
    if hr_frames.shape[0] != n:
        raise ValueError(
            f"LR and HR frame counts differ: {n} vs {hr_frames.shape[0]}")
    if hr_frames.shape[1] != h * scale or hr_frames.shape[2] != w * scale:
        raise ValueError(
            f"HR frames {hr_frames.shape[1:3]} are not {scale}x the LR "
            f"frames {(h, w)}")
    if patch_size > h or patch_size > w:
        raise ValueError(f"patch size {patch_size} exceeds frame size {(h, w)}")
    if n_patches < 1:
        raise ValueError("n_patches must be >= 1")

    lr_out = np.empty((n_patches, 3, patch_size, patch_size), dtype=np.float32)
    hp = patch_size * scale
    hr_out = np.empty((n_patches, 3, hp, hp), dtype=np.float32)
    frame_idx = rng.integers(0, n, size=n_patches)
    ys = rng.integers(0, h - patch_size + 1, size=n_patches)
    xs = rng.integers(0, w - patch_size + 1, size=n_patches)
    for i, (f, y, x) in enumerate(zip(frame_idx, ys, xs)):
        lr_out[i] = lr_frames[f, y:y + patch_size, x:x + patch_size].transpose(2, 0, 1)
        hy, hx = y * scale, x * scale
        hr_out[i] = hr_frames[f, hy:hy + hp, hx:hx + hp].transpose(2, 0, 1)
    return lr_out, hr_out
