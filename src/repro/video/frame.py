"""Frame containers.

Two representations move through the system:

- **RGB float frames** — ``(H, W, 3)`` float32 arrays in ``[0, 1]``.  This is
  what the synthetic generator produces and what the neural networks (SR
  models, VAE) consume.
- **Planar YUV 4:2:0 frames** (:class:`YuvFrame`) — what the codec encodes
  and decodes, matching the decoded-picture-buffer format the paper's
  client-side pipeline manipulates (Figure 6: the I frame sits in the DPB in
  YUV and is converted to RGB for SR and back).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["YuvFrame", "validate_rgb"]


_RANGE_ERROR = "RGB frame values must lie in [0, 1]"


def _as_rgb(rgb) -> np.ndarray:
    """``rgb`` as an array, checked to be ``(H, W, 3)``."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) RGB frame, got shape {rgb.shape}")
    return rgb


def validate_rgb(rgb: np.ndarray) -> np.ndarray:
    """Check an RGB float frame and return it as float32.

    Raises ``ValueError`` for wrong rank, channel count, or range; a NaN
    sample is out of range.  Overshoots up to 1e-3 are clipped.
    """
    rgb = _as_rgb(rgb).astype(np.float32, copy=False)
    if not (float(rgb.min()) >= -1e-3 and float(rgb.max()) <= 1.0 + 1e-3):
        raise ValueError(_RANGE_ERROR)
    return np.clip(rgb, 0.0, 1.0)


@dataclass
class YuvFrame:
    """A planar YUV 4:2:0 frame with uint8 samples.

    ``y`` has shape ``(H, W)``; ``u`` and ``v`` have shape ``(H/2, W/2)``.
    Both dimensions of the luma plane must be even.
    """

    y: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.uint8)
        self.u = np.asarray(self.u, dtype=np.uint8)
        self.v = np.asarray(self.v, dtype=np.uint8)
        h, w = self.y.shape
        if h % 2 or w % 2:
            raise ValueError(f"luma plane dimensions must be even, got {(h, w)}")
        expected = (h // 2, w // 2)
        if self.u.shape != expected or self.v.shape != expected:
            raise ValueError(
                f"chroma planes must be {expected}, got {self.u.shape} / {self.v.shape}"
            )

    @property
    def height(self) -> int:
        return int(self.y.shape[0])

    @property
    def width(self) -> int:
        return int(self.y.shape[1])

    @property
    def size(self) -> tuple[int, int]:
        return self.y.shape

    def copy(self) -> "YuvFrame":
        return YuvFrame(self.y.copy(), self.u.copy(), self.v.copy())

    def nbytes(self) -> int:
        """Raw (uncompressed) size of the frame in bytes."""
        return int(self.y.size + self.u.size + self.v.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, YuvFrame):
            return NotImplemented
        return (
            np.array_equal(self.y, other.y)
            and np.array_equal(self.u, other.u)
            and np.array_equal(self.v, other.v)
        )
