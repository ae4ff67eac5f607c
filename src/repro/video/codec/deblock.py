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


def _filter_edges(plane: np.ndarray, qp: int, axis: int) -> None:
    """Filter all block boundaries perpendicular to ``axis``, in place.

    An edge touches the two samples on each side of it, so with edges at
    least four samples apart (they are ``BLOCK`` apart) no two edges share
    a sample and every edge of the axis is filtered in one vectorised step,
    on contiguous copies of the lines ``p1 p0 | q0 q1`` — strided views of
    the plane, every ``BLOCK``-th line from an offset — written back at the
    end.
    """
    alpha, tc = deblock_strength(qp)
    lines = plane if axis == 0 else plane.T     # edges lie between lines
    views = [lines[BLOCK + offset::BLOCK] for offset in (-2, -1, 0, 1)]
    views[:2] = [view[:len(views[2])] for view in views[:2]]
    p1, p0, q0, q1 = (np.array(view) for view in views)
    # An edge on the plane's last line has no q1: q0 stands in for it in
    # the artifact test, and no q1 is written there.
    inner, near = q0[:len(q1)], slice(len(q1))

    step = q0 - p0
    # Artifact test: small boundary step, locally flat on both sides.
    smooth = (np.abs(step) < alpha) & (np.abs(p1 - p0) < alpha)
    smooth[near] &= np.abs(q1 - inner) < alpha
    delta = np.clip(step / 4.0, -tc, tc) * smooth
    p0 += delta
    q0 -= delta
    # Soft second-tap correction pulls p1/q1 toward the filtered edge.
    p1 += np.clip((p0 - p1) / 4.0, -tc / 2, tc / 2) * smooth
    q1 -= np.clip((q1 - inner) / 4.0, -tc / 2, tc / 2) * smooth[near]
    for view, line in zip(views, (p1, p0, q0, q1)):
        view[...] = line


def deblock_plane(plane: np.ndarray, qp: int) -> np.ndarray:
    """Deblock a reconstructed uint8 plane; returns a new uint8 plane.

    Vertical (column) boundaries are filtered first, then horizontal ones,
    matching the usual decoder order.
    """
    if plane.dtype != np.uint8:
        raise ValueError(f"expected uint8 plane, got {plane.dtype}")
    work = plane.astype(np.float64)
    _filter_edges(work, qp, axis=1)
    _filter_edges(work, qp, axis=0)
    np.rint(work, out=work)
    return np.clip(work, 0, 255, out=work).astype(np.uint8)


def deblock_frame(frame: YuvFrame, qp: int) -> YuvFrame:
    """Apply the in-loop deblocking filter to all three planes."""
    return YuvFrame(deblock_plane(frame.y, qp),
                    deblock_plane(frame.u, qp),
                    deblock_plane(frame.v, qp))
