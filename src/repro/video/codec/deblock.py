"""In-loop deblocking filter.

At high CRF the dominant artifact is blocking at 8x8 transform boundaries —
exactly what H.264's in-loop deblocking filter attacks.  This is a
simplified H.263-Annex-J-style boundary filter: at every block edge the
two boundary samples on each side are smoothed when the discontinuity is
small enough (relative to the quantization step) to be an artifact rather
than a real image edge.

The filter is *in-loop*: the encoder applies it to its reconstructions
before they become references, and the decoder applies the identical filter,
so prediction stays bit-exact between the two.
"""

from __future__ import annotations

import numpy as np

from ..frame import YuvFrame
from .dct import BLOCK
from .quant import qstep_from_qp

__all__ = ["deblock_plane", "deblock_frame", "deblock_strength"]


def deblock_strength(qp: int) -> tuple[float, float]:
    """Filter thresholds for a quantizer: ``(alpha, tc)``.

    ``alpha`` bounds the boundary step that is still considered an artifact
    (real edges are larger); ``tc`` caps the per-sample correction.
    Both scale with the quantization step, vanishing at high quality.
    """
    step = qstep_from_qp(qp)
    alpha = 2.5 * step
    tc = 0.5 * step
    return alpha, tc


def _filter_edges(plane: np.ndarray, qp: int, axis: int, block: int) -> None:
    """Filter all block boundaries perpendicular to ``axis``, in place.

    An edge touches the two samples on each side of it, so with edges at
    least four samples apart no two edges share a sample and every edge of
    the axis is filtered in one vectorised step.
    """
    alpha, tc = deblock_strength(qp)
    lines = plane if axis == 0 else plane.T     # edges lie between lines
    edges = np.arange(block, lines.shape[0], block)
    # An edge on the plane's last line has no q1; q0 stands in for it.
    outer = np.minimum(edges + 1, lines.shape[0] - 1)
    p1, p0, q0, q1 = (lines[edges - 2], lines[edges - 1], lines[edges],
                      lines[outer])

    step = q0 - p0
    # Artifact test: small boundary step, locally flat on both sides.
    smooth = (np.abs(step) < alpha) & (np.abs(p1 - p0) < alpha) & (
        np.abs(q1 - q0) < alpha)
    delta = np.clip(step / 4.0, -tc, tc) * smooth
    p0 += delta
    q0 -= delta
    # Soft second-tap correction pulls p1/q1 toward the filtered edge.
    p1 += np.clip((p0 - p1) / 4.0, -tc / 2, tc / 2) * smooth
    q1 -= np.clip((q1 - q0) / 4.0, -tc / 2, tc / 2) * smooth
    lines[edges - 2], lines[edges - 1] = p1, p0
    lines[outer] = q1
    lines[edges] = q0       # after q1: wins where q0 stood in for it


def deblock_plane(plane: np.ndarray, qp: int, block: int = BLOCK) -> np.ndarray:
    """Deblock a reconstructed uint8 plane; returns a new uint8 plane.

    Vertical (column) boundaries are filtered first, then horizontal ones,
    matching the usual decoder order.
    """
    if plane.dtype != np.uint8:
        raise ValueError(f"expected uint8 plane, got {plane.dtype}")
    if block < 4:
        raise ValueError(f"block size {block} puts edges closer than the "
                         f"four samples each one filters")
    work = plane.astype(np.float64)
    _filter_edges(work, qp, axis=1, block=block)
    _filter_edges(work, qp, axis=0, block=block)
    return np.clip(np.rint(work), 0, 255).astype(np.uint8)


def deblock_frame(frame: YuvFrame, qp: int) -> YuvFrame:
    """Apply the in-loop deblocking filter to all three planes."""
    return YuvFrame(deblock_plane(frame.y, qp),
                    deblock_plane(frame.u, qp),
                    deblock_plane(frame.v, qp))
