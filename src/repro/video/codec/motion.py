"""Block motion estimation and compensation (P/B-frame coding).

Full-search block matching over a +/-R window with SAD cost.  Motion
vectors are restricted so the compensated block stays inside the reference
frame (no border extension), which keeps encoder and decoder bit-exactly in
sync.

Search and prediction both work on the whole frame.  :func:`search_frame`
chooses every macroblock's mode and vectors in array passes — one per
vertical offset and band of macroblock rows for the integer search, one
per half-pel refinement, one for the bidirectional cost.
:func:`predict_frame` then builds the frame's prediction — batched gathers
per (reference, half-pel phase), summed as exact integers — through the
one routine the encoder's reconstruction and the decoder share; each of
them checks its vectors once, with :func:`vectors_leave_frame`.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from ..frame import YuvFrame
from .dct import to_blocks

__all__ = ["MB", "search_frame", "vectors_leave_frame", "predict_frame"]

MB = 16  # luma macroblock size
# Macroblocks compensated per batch: bounds the gathered windows and their
# uint16 sums at ~0.5 MB.
_SLAB = 512
# Bytes of one band's integer-search temporaries: the search takes as many
# macroblock rows at a time as fit (at least one).
_SEARCH_BYTES = 1 << 20


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
    shrink = np.array([1, 2])[:, None, None, None]     # luma, 4:2:0 chroma
    corner, phase = _sources(_mb_origins(height, width)[:, None] // shrink,
                             mvs // shrink, half_pel)
    limit = np.array([height, width]) // shrink - MB // shrink
    bad = ((corner < 0) | (corner + phase > limit)).any(axis=(0, 3))
    return bad[:, 0] | (bad[:, 1] & (modes == 2))    # [macroblock, slot]


def _add_compensated(
    acc: np.ndarray, rows: np.ndarray, planes: np.ndarray,
    origins: np.ndarray, vectors: np.ndarray, half_pel: bool,
) -> None:
    """Add four times the compensated blocks of ``(n, h, w)`` planes that
    share vectors (U and V) into uint16 ``acc[:, rows]``: an exact sum,
    ``4a``, ``2(a + b)`` or ``a + b + c + d``.  Blocks sharing a half-pel
    phase are gathered from one strided window view and summed as a batch.
    """
    size = acc.shape[-1]
    corner, phase = _sources(origins, vectors, half_pel)
    n, height, width = planes.shape
    phase_code = 2 * phase[:, 0] + phase[:, 1]
    for code in np.unique(phase_code).tolist():
        chosen = np.flatnonzero(phase_code == code)
        fy, fx = divmod(code, 2)
        windows = as_strided(
            planes, (n, height - size - fy + 1, width - size - fx + 1,
                     size + fy, size + fx),
            planes.strides + planes.strides[1:])[
                :, corner[chosen, 0], corner[chosen, 1]]
        # Rows, then columns: a whole-pel block is added to itself.
        windows = np.add(windows[:, :, :size], windows[:, :, fy:fy + size],
                         dtype=np.uint16)
        acc[:, rows[chosen]] += windows[..., :size] + windows[..., fx:]


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
    the luma vectors floor-halved.
    """
    height, width = refs[0].y.shape
    leaving = vectors_leave_frame(height, width, modes, mvs, half_pel)
    if leaving.any():
        k = int(leaving.argmax())
        raise ValueError(
            f"motion vectors {mvs[k].tolist()} of macroblock {k} leave the "
            f"reference frame of size {(height, width)}")
    return _predict_inside(refs, modes, mvs, half_pel)


def _predict_inside(
    refs: list[YuvFrame], modes: np.ndarray, mvs: np.ndarray, half_pel: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`predict_frame` for vectors known to stay inside: each plane
    accumulated as exact uint16 sums (four times each reference's block)
    and scaled to float64 once, by 1/4, or 1/8 where bidirectional."""
    height, width = refs[0].y.shape
    origins = _mb_origins(height, width)
    both = modes == 2
    luma = np.zeros((1, len(modes), MB, MB), dtype=np.uint16)
    chroma = np.zeros((2, len(modes), MB // 2, MB // 2), dtype=np.uint16)
    for r, ref in enumerate(refs):
        uses = np.flatnonzero(both | (modes == r))
        vectors = np.where(both[uses, None], mvs[uses, r], mvs[uses, 0])
        sources = ((luma, ref.y[None], 1),
                   (chroma, np.stack([ref.u, ref.v]), 2))
        for start in range(0, len(uses), _SLAB):
            part = slice(start, start + _SLAB)
            idx = uses[part]
            for acc, planes, shrink in sources:
                _add_compensated(acc, idx, planes, origins[idx] // shrink,
                                 vectors[part] // shrink, half_pel)
    scale = np.where(both, 0.125, 0.25)[:, None, None]
    return luma[0] * scale, chroma[0] * scale, chroma[1] * scale


# ----------------------------------------------------------------- search


def _integer_search(
    reference: np.ndarray, target: np.ndarray, search_range: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Full-search integer vectors and SADs of every macroblock.

    With |a - b| = 2 max(a, b) - a - b, one ``maximum`` per vertical offset
    covers every horizontal offset of a band of macroblock rows (the
    reference, padded by the window, seen through a strided view), two
    reductions take its 16x16 block sums, and the reference's own block
    sums come from one integral image.  The window is clamped to the frame,
    offsets whose block leaves it are masked, and one ``argmin`` per band
    scans the offsets in ascending ``(dy, dx)`` row-major order: a tie goes
    to the first, as in a scan of each macroblock's clipped window.

    Returns ``(n_mb, 2)`` vectors and ``(n_mb,)`` int64 SADs in raster
    macroblock order.
    """
    height, width = target.shape
    rows, cols = height // MB, width // MB
    ry, rx = min(search_range, height - MB), min(search_range, width - MB)
    ny, nx = 2 * ry + 1, 2 * rx + 1
    padded = np.zeros((height + 2 * ry, width + 2 * rx), dtype=np.uint16)
    padded[ry:ry + height, rx:rx + width] = reference
    # [dx + rx, padded row, x]: each padded row shifted by every dx.
    shifted = sliding_window_view(padded, width, axis=1).transpose(1, 0, 2)
    integral = np.zeros((height + 2 * ry + 1, width + 2 * rx + 1),
                        dtype=np.int32)
    np.cumsum(np.cumsum(padded, axis=0, dtype=np.int32), axis=1,
              out=integral[1:, 1:])
    corner_sums = integral[MB:, MB:] - integral[:-MB, MB:]
    corner_sums -= integral[MB:, :-MB]
    corner_sums += integral[:-MB, :-MB]
    # [dx + rx, padded row, macroblock column]: the shifted blocks' sums.
    ref_sums = sliding_window_view(corner_sums, nx, axis=1)[:, :width:MB]
    ref_sums = ref_sums.transpose(2, 0, 1)
    target16 = target.astype(np.uint16)
    target_sums = target16.reshape(rows, MB, cols, MB).sum(
        axis=(1, 3), dtype=np.int64)
    tops = np.arange(0, height, MB) + np.arange(-ry, ry + 1)[:, None]
    lefts = np.arange(0, width, MB) + np.arange(-rx, rx + 1)[:, None]
    off_rows = (tops < 0) | (tops > height - MB)       # [dy + ry, row]
    off_cols = (lefts < 0) | (lefts > width - MB)      # [dx + rx, column]

    band = max(1, _SEARCH_BYTES // (nx * (2 * MB * width + 9 * ny * cols)))
    maxima = np.empty((nx, band * MB, width), dtype=np.uint16)
    row_sums = np.empty((nx, band, width), dtype=np.uint16)
    costs = np.empty((ny, nx, band, cols), dtype=np.int64)
    vectors = np.empty((rows, cols, 2), dtype=np.int64)
    sads = np.empty((rows, cols), dtype=np.int64)
    for r0 in range(0, rows, band):
        r1 = min(r0 + band, rows)
        n, y0, y1 = r1 - r0, r0 * MB, r1 * MB
        most, summed = maxima[:, :y1 - y0], row_sums[:, :n]
        cost = costs[:, :, :n]
        for iy in range(ny):
            np.maximum(target16[y0:y1], shifted[:, y0 + iy:y1 + iy], out=most)
            # A column of 16 samples sums to at most 16 * 255: a uint16.
            np.add.reduce(most.reshape(nx, n, MB, width), axis=2,
                          dtype=np.uint16, out=summed)
            np.add.reduce(summed.reshape(nx, n, cols, MB), axis=3,
                          dtype=np.int64, out=cost[iy])
            cost[iy] *= 2
            cost[iy] -= ref_sums[:, y0 + iy:y1 + iy:MB]
        cost -= target_sums[r0:r1]
        cost[off_rows[:, None, r0:r1, None] | off_cols[None, :, None, :]] = (
            np.iinfo(np.int64).max)
        flat = cost.reshape(ny * nx, n, cols)
        sads[r0:r1] = flat.min(axis=0)
        vectors[r0:r1, :, 0], vectors[r0:r1, :, 1] = np.divmod(
            flat.argmin(axis=0), nx)
    vectors -= (ry, rx)
    return vectors.reshape(-1, 2), sads.reshape(-1)


def _compensated_sads(
    blocks: np.ndarray, refs: list[np.ndarray], origins: np.ndarray,
    vectors: list[np.ndarray], half_pel: bool,
) -> np.ndarray:
    """float64 SAD of each target block against its compensated block in
    the one reference, or against the mean of the two (``refs[i]`` read at
    ``vectors[i]``), ``_SLAB`` macroblocks at a time — exact, in integers
    at the scale of :func:`_add_compensated`'s sums, then divided back."""
    scale = 4 * len(refs)
    out = np.empty(len(blocks))
    for start in range(0, len(blocks), _SLAB):
        part = slice(start, start + _SLAB)
        pred = np.zeros((1,) + blocks[part].shape, dtype=np.uint16)
        for ref, vec in zip(refs, vectors):
            _add_compensated(pred, np.arange(len(pred[0])), ref[None],
                             origins[part], vec[part], half_pel)
        diff = pred[0] - scale * blocks[part].astype(np.int32)
        out[part] = np.abs(diff, out=diff).sum(axis=(1, 2)) / scale
    return out


def _refine_halfpel(
    reference: np.ndarray, blocks: np.ndarray, origins: np.ndarray,
    vectors: np.ndarray, sads: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Half-pel refinement of integer vectors, every macroblock at once.

    The 8 half-pel neighbours of each integer vector are tried in
    ``(ddy, ddx)`` row-major order; one replaces the best so far only with
    a strictly lower SAD, and one whose block leaves the frame is skipped.
    Returns vectors in half-pel units and their float64 SADs.
    """
    limit = np.array(reference.shape) - MB
    best, best_sad = 2 * vectors, sads.astype(np.float64)
    for ddy in (-1, 0, 1):
        for ddx in (-1, 0, 1):
            if ddy == 0 and ddx == 0:
                continue
            candidate = 2 * vectors + (ddy, ddx)
            corner, phase = _sources(origins, candidate, True)
            inside = np.flatnonzero(
                ((corner >= 0) & (corner + phase <= limit)).all(axis=1))
            sad = _compensated_sads(blocks[inside], [reference],
                                    origins[inside], [candidate[inside]], True)
            wins = sad < best_sad[inside]
            better = inside[wins]
            best[better] = candidate[better]
            best_sad[better] = sad[wins]
    return best, best_sad


def search_frame(
    target: np.ndarray, refs: list[np.ndarray], search_range: int,
    half_pel: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Choose the prediction of every macroblock of luma plane ``target``.

    Each reference plane in ``refs`` (one for P, two for B; all uint8) gets
    a full integer search over +/-``search_range``, refined to half-pel
    when ``half_pel``.  With two references the bidirectional cost is that
    of the mean of the two best predictions, and the mode is the first
    minimum of (forward, backward, bidirectional).  Every SAD is exact in
    float64 — samples are integers and predictions multiples of 1/8 — so
    only the order of the comparisons decides ties.

    Returns ``modes`` and ``mvs`` as in :func:`vectors_leave_frame` (slot 1
    zero unless bidirectional) and the chosen prediction's float64 SAD, in
    raster macroblock order.
    """
    height, width = target.shape
    origins = _mb_origins(height, width)
    blocks = to_blocks(target, MB).reshape(-1, MB, MB)
    found = []
    for ref in refs:
        vectors, sads = _integer_search(ref, target, search_range)
        if half_pel:
            vectors, sads = _refine_halfpel(ref, blocks, origins, vectors,
                                            sads)
        found.append((vectors, sads.astype(np.float64, copy=False)))
    mvs = np.zeros((len(origins), 2, 2), dtype=np.int64)
    if len(refs) == 1:
        mvs[:, 0] = found[0][0]
        return np.zeros(len(origins), dtype=np.intp), mvs, found[0][1]
    (fwd, sad_f), (bwd, sad_b) = found
    sad_bi = _compensated_sads(blocks, refs, origins, [fwd, bwd], half_pel)
    costs = np.stack([sad_f, sad_b, sad_bi], axis=1)
    modes = costs.argmin(axis=1)
    mvs[:, 0] = np.where(modes[:, None] == 1, bwd, fwd)
    mvs[modes == 2, 1] = bwd[modes == 2]
    return modes, mvs, costs[np.arange(len(modes)), modes]
