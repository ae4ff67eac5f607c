"""Block motion estimation and compensation (P/B-frame coding).

Full-search block matching over a +/-R window with SAD cost, fully
vectorised per macroblock via ``sliding_window_view``.  Motion vectors are
restricted so the compensated block stays inside the reference frame (no
border extension), which keeps encoder and decoder bit-exactly in sync.

The search works one macroblock at a time (:func:`compensate`,
:func:`compensate_halfpel`); once every macroblock has its mode and
vectors, :func:`predict_frame` builds the whole frame's prediction —
batched gathers per (reference, half-pel phase) — and is the single routine
the encoder's reconstruction and the decoder share.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..frame import YuvFrame

__all__ = ["MB", "motion_search", "compensate", "chroma_vector",
           "motion_search_halfpel", "compensate_halfpel",
           "chroma_vector_halfpel", "vectors_leave_frame", "predict_frame"]

MB = 16  # luma macroblock size
# Macroblocks compensated per batch: bounds the gathered windows (and their
# interpolation temporaries) at ~0.6 MB of float64.
_SLAB = 256


def motion_search(
    reference: np.ndarray, target: np.ndarray, y: int, x: int,
    search_range: int = 7, mb: int = MB,
) -> tuple[int, int, float]:
    """Find the best motion vector for the macroblock at ``(y, x)``.

    Parameters
    ----------
    reference:
        Reconstructed reference luma plane (float or uint8).
    target:
        Current frame's luma plane.
    y, x:
        Top-left corner of the macroblock in the current frame.

    Returns
    -------
    (dy, dx, sad):
        Displacement into the reference and the matching SAD.
    """
    h, w = reference.shape
    block = target[y:y + mb, x:x + mb].astype(np.int32)
    y_lo = max(0, y - search_range)
    y_hi = min(h - mb, y + search_range)
    x_lo = max(0, x - search_range)
    x_hi = min(w - mb, x + search_range)
    region = reference[y_lo:y_hi + mb, x_lo:x_hi + mb].astype(np.int32)
    windows = sliding_window_view(region, (mb, mb))  # (ny, nx, mb, mb)
    sads = np.abs(windows - block[None, None]).sum(axis=(2, 3))
    flat = int(np.argmin(sads))
    iy, ix = divmod(flat, sads.shape[1])
    best_y, best_x = y_lo + iy, x_lo + ix
    return best_y - y, best_x - x, float(sads[iy, ix])


def compensate(
    reference: np.ndarray, y: int, x: int, dy: int, dx: int,
    height: int, width: int,
) -> np.ndarray:
    """Extract the motion-compensated prediction block from ``reference``."""
    sy, sx = y + dy, x + dx
    h, w = reference.shape
    if sy < 0 or sx < 0 or sy + height > h or sx + width > w:
        raise ValueError(
            f"motion vector ({dy}, {dx}) at ({y}, {x}) leaves the reference "
            f"frame of size {(h, w)}"
        )
    return reference[sy:sy + height, sx:sx + width].astype(np.float64)


def chroma_vector(dy: int, dx: int) -> tuple[int, int]:
    """Derive the 4:2:0 chroma motion vector from a luma vector.

    Integer division with rounding toward negative infinity on both encoder
    and decoder keeps them in sync.
    """
    return dy // 2, dx // 2


# --------------------------------------------------------------- half-pel


def compensate_halfpel(
    reference: np.ndarray, y: int, x: int, dy_hp: int, dx_hp: int,
    height: int, width: int,
) -> np.ndarray:
    """Motion compensation with half-pel vectors (units of 1/2 pixel).

    Half-pel positions are bilinearly interpolated (the H.264 6-tap filter
    simplified to 2-tap, which is exact for our synthetic content and keeps
    encoder/decoder trivially in sync).
    """
    base_y, frac_y = dy_hp >> 1, dy_hp & 1
    base_x, frac_x = dx_hp >> 1, dx_hp & 1
    sy, sx = y + base_y, x + base_x
    h, w = reference.shape
    need_h = height + (1 if frac_y else 0)
    need_w = width + (1 if frac_x else 0)
    if sy < 0 or sx < 0 or sy + need_h > h or sx + need_w > w:
        raise ValueError(
            f"half-pel vector ({dy_hp}, {dx_hp}) at ({y}, {x}) leaves the "
            f"reference frame of size {(h, w)}")
    block = reference[sy:sy + need_h, sx:sx + need_w].astype(np.float64)
    if frac_y:
        block = 0.5 * (block[:-1, :] + block[1:, :])
    if frac_x:
        block = 0.5 * (block[:, :-1] + block[:, 1:])
    return block


def motion_search_halfpel(
    reference: np.ndarray, target: np.ndarray, y: int, x: int,
    search_range: int = 7, mb: int = MB,
) -> tuple[int, int, float]:
    """Integer full search plus half-pel refinement.

    Returns ``(dy_hp, dx_hp, sad)`` with the vector in half-pel units.
    """
    int_dy, int_dx, best_sad = motion_search(reference, target, y, x,
                                             search_range, mb)
    block = target[y:y + mb, x:x + mb].astype(np.float64)
    best = (2 * int_dy, 2 * int_dx)
    for ddy in (-1, 0, 1):
        for ddx in (-1, 0, 1):
            if ddy == 0 and ddx == 0:
                continue
            cand = (2 * int_dy + ddy, 2 * int_dx + ddx)
            try:
                pred = compensate_halfpel(reference, y, x, cand[0], cand[1],
                                          mb, mb)
            except ValueError:
                continue
            sad = float(np.abs(block - pred).sum())
            if sad < best_sad:
                best, best_sad = cand, sad
    return best[0], best[1], best_sad


def chroma_vector_halfpel(dy_hp: int, dx_hp: int) -> tuple[int, int]:
    """Chroma half-pel vector from a luma half-pel vector.

    The chroma plane is half resolution, so the displacement in chroma
    pixels is a quarter of the luma half-pel units; rounding to the nearest
    half-pel with floor division keeps both sides deterministic.
    """
    return dy_hp // 2, dx_hp // 2


# ------------------------------------------------------------ whole frame


def _sources(
    origins: np.ndarray, vectors: np.ndarray, half_pel: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Integer source corner and half-sample phase of each ``(dy, dx)``."""
    if half_pel:
        return origins + (vectors >> 1), vectors & 1
    return origins + vectors, np.zeros_like(vectors)


def _mb_origins(height: int, width: int) -> np.ndarray:
    """``(n_mb, 2)`` luma top-left corners in raster macroblock order."""
    ys, xs = np.mgrid[0:height:MB, 0:width:MB]
    return np.stack([ys.reshape(-1), xs.reshape(-1)], axis=1)


def vectors_leave_frame(
    height: int, width: int, modes: np.ndarray, mvs: np.ndarray,
    half_pel: bool,
) -> np.ndarray:
    """Which macroblocks' vectors read outside a ``height x width`` frame.

    ``modes`` is ``(n_mb,)`` and ``mvs`` ``(n_mb, 2, 2)`` as
    ``[slot, (dy, dx)]`` in raster macroblock order; slot 1 counts for
    bidirectional (mode 2) macroblocks only.  Luma and the derived chroma
    vectors are both tested, the latter against the half-size planes.
    """
    origins = _mb_origins(height, width)
    leaving = np.zeros(len(modes), dtype=bool)
    for slot in (0, 1):
        bad = np.zeros_like(leaving)
        for shrink in (1, 2):       # luma, then 4:2:0 chroma
            corner, phase = _sources(origins // shrink,
                                     mvs[:, slot] // shrink, half_pel)
            limit = np.array([height, width]) // shrink - MB // shrink
            bad |= ((corner < 0) | (corner + phase > limit)).any(axis=1)
        leaving |= bad if slot == 0 else bad & (modes == 2)
    return leaving


def _gather(
    plane: np.ndarray, origins: np.ndarray, vectors: np.ndarray, size: int,
    half_pel: bool,
) -> np.ndarray:
    """``(K, size, size)`` compensated blocks of one reference plane.

    Blocks sharing a half-sample phase are gathered together and
    interpolated as one batch (rows first, then columns, like
    :func:`compensate_halfpel`), so no full-frame half-pel plane is built.
    """
    corner, phase = _sources(origins, vectors, half_pel)
    out = np.empty((len(origins), size, size))
    phase_code = 2 * phase[:, 0] + phase[:, 1]
    for code in np.unique(phase_code).tolist():
        fy, fx = divmod(code, 2)
        chosen = phase_code == code
        windows = sliding_window_view(plane, (size + fy, size + fx))[
            corner[chosen, 0], corner[chosen, 1]]
        if fy:
            windows = windows[:, :-1, :].astype(np.float64) + windows[:, 1:, :]
            windows *= 0.5
        if fx:
            windows = windows[:, :, :-1].astype(np.float64) + windows[:, :, 1:]
            windows *= 0.5
        out[chosen] = windows
    return out


def predict_frame(
    refs: list[YuvFrame], modes: np.ndarray, mvs: np.ndarray, half_pel: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Motion-compensated prediction of a whole frame, macroblock-major.

    Returns the Y, U and V predictions as ``(n_mb, 16, 16)``, ``(n_mb, 8, 8)``
    and ``(n_mb, 8, 8)`` float arrays in raster macroblock order — the
    layout the residual is coded in; nothing frame-sized is built beside
    them.  ``refs`` holds one (P) or two (B) reference frames; ``modes`` /
    ``mvs`` are as in :func:`vectors_leave_frame`: mode 0 or 1 predicts from
    that reference with the slot-0 vector, mode 2 averages reference 0 at
    slot 0 and reference 1 at slot 1.  With ``half_pel`` vectors are in
    half-pel units and bilinear interpolation applies.  Chroma vectors are
    the luma vectors floor-halved (:func:`chroma_vector`).
    """
    height, width = refs[0].y.shape
    leaving = vectors_leave_frame(height, width, modes, mvs, half_pel)
    if leaving.any():
        k = int(leaving.argmax())
        raise ValueError(
            f"motion vectors {mvs[k].tolist()} of macroblock {k} leave the "
            f"reference frame of size {(height, width)}")
    origins = _mb_origins(height, width)
    both = modes == 2
    prediction = []
    for name, shrink in (("y", 1), ("u", 2), ("v", 2)):
        size = MB // shrink
        pred = np.empty((len(modes), size, size))
        for r, ref in enumerate(refs):
            uses = np.flatnonzero(both | (modes == r))
            vectors = np.where(both[:, None], mvs[:, r], mvs[:, 0])
            for start in range(0, len(uses), _SLAB):
                idx = uses[start:start + _SLAB]
                blocks = _gather(getattr(ref, name), origins[idx] // shrink,
                                 vectors[idx] // shrink, size, half_pel)
                if r == 0:
                    pred[idx] = blocks
                else:
                    bi = both[idx]
                    pred[idx[~bi]] = blocks[~bi]
                    pred[idx[bi]] = 0.5 * (pred[idx[bi]] + blocks[bi])
        prediction.append(pred)
    return prediction[0], prediction[1], prediction[2]
