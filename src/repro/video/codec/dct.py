"""8x8 orthonormal DCT-II transform and block (de)composition.

The transform stage of the codec: every residual plane is cut into 8x8
blocks, transformed, quantized, and entropy coded, mirroring the structure
of H.264/JPEG transforms.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BLOCK", "dct_matrix", "forward_dct", "inverse_dct",
           "to_blocks", "from_blocks"]

BLOCK = 8


def dct_matrix(n: int = BLOCK) -> np.ndarray:
    """Orthonormal DCT-II matrix ``D`` such that ``X = D @ x @ D.T``."""
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    mat = np.cos(np.pi * (2 * i + 1) * k / (2 * n))
    mat[0, :] *= 1.0 / np.sqrt(2.0)
    return (mat * np.sqrt(2.0 / n)).astype(np.float64)


_D = dct_matrix()
_DT = _D.T


# Two matmuls per block, written out rather than left to
# ``np.einsum(..., optimize=True)``, which plans a contraction path on every
# call — 25x the arithmetic of one 8x8 block.  Stacked and per-block calls
# are bitwise equal (tests/codec/test_decode_oracle.py), so callers batch
# freely.


def forward_dct(blocks: np.ndarray) -> np.ndarray:
    """DCT-II of a stack of blocks ``(..., 8, 8)``."""
    return (_D @ blocks.astype(np.float64, copy=False)) @ _DT


def inverse_dct(coeffs: np.ndarray) -> np.ndarray:
    """Inverse DCT of a stack of coefficient blocks ``(..., 8, 8)``."""
    return (_DT @ coeffs.astype(np.float64, copy=False)) @ _D


def to_blocks(plane: np.ndarray, block: int = BLOCK) -> np.ndarray:
    """Split ``(H, W)`` into ``(H/b, W/b, b, b)`` blocks."""
    h, w = plane.shape
    if h % block or w % block:
        raise ValueError(f"plane {(h, w)} not divisible by block size {block}")
    return (plane.reshape(h // block, block, w // block, block)
            .swapaxes(1, 2))


def from_blocks(blocks: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_blocks`."""
    nby, nbx, b, b2 = blocks.shape
    if b != b2:
        raise ValueError("blocks must be square")
    return blocks.swapaxes(1, 2).reshape(nby * b, nbx * b)
