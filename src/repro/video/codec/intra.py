"""Intra prediction (I-frame coding).

Implements the H.264-style spatial prediction modes DC, vertical, and
horizontal on 8x8 blocks.  Blocks predict from already-reconstructed
neighbours, exactly as a real intra encoder does, so the decoder can
reproduce the prediction from its own reconstruction.

A block reads only the bottom row of the block above it and the right
column of the block to its left, so all blocks on one anti-diagonal
(``by + bx == d``) are independent of each other.  Encoder and decoder walk
a plane diagonal by diagonal (:func:`wavefront`) and predict each
diagonal's blocks in one vectorised step (:func:`predict_blocks`) — 123
steps for a 44x80-block luma plane instead of 3,520 — with results bitwise
equal to the raster block-at-a-time order, because each block still sees
exactly the neighbour samples it would have seen.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

import numpy as np

__all__ = ["MODE_DC", "MODE_V", "MODE_H", "INTRA_MODES", "wavefront",
           "stacked_wavefront", "neighbours", "predict_blocks", "choose_modes"]

MODE_DC = 0
MODE_V = 1
MODE_H = 2
INTRA_MODES = (MODE_DC, MODE_V, MODE_H)

_DEFAULT_DC = 128.0


def wavefront(n_rows: int, n_cols: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Block coordinates ``(by, bx)`` of each anti-diagonal, in dependency
    order: every block's top and left neighbours lie on the one before."""
    for d in range(n_rows + n_cols - 1):
        by = np.arange(max(0, d - n_cols + 1), min(d, n_rows - 1) + 1)
        yield by, d - by


@functools.lru_cache(maxsize=8)
def stacked_wavefront(*grids: tuple[int, int]) -> list[tuple[np.ndarray, ...]]:
    """One wavefront over several planes stored as one stack of blocks,
    each plane (``(rows, cols)`` in ``grids``) in raster order: step ``d``
    is diagonal ``d`` of every plane that has one, as ``(index, top, left,
    has_top, has_left)`` — the blocks' places in the stack and their upper
    and left neighbours' (arbitrary where the flag says there is none).
    Cached: the arrays are shared, never written.
    """
    steps: dict[int, list[tuple[np.ndarray, ...]]] = {}
    base = 0
    for rows, cols in grids:
        for d, (by, bx) in enumerate(wavefront(rows, cols)):
            index = base + by * cols + bx
            steps.setdefault(d, []).append((
                index, index - cols * (by > 0), index - (bx > 0),
                by > 0, bx > 0))
        base += rows * cols
    return [tuple(np.concatenate(column) for column in zip(*steps[d]))
            for d in sorted(steps)]


def neighbours(
    blocks: np.ndarray, by: np.ndarray, bx: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Neighbour samples of the blocks at ``(by, bx)``.

    ``blocks`` is the partially reconstructed plane as ``(rows, cols, b, b)``
    blocks.  Returns ``(top, left, has_top, has_left)``: the ``(K, b)``
    bottom row of each block's upper neighbour and right column of its left
    neighbour, and which of them exist (where one does not, its row is
    arbitrary and :func:`predict_blocks` ignores it).  Rows are contiguous
    so that summing one is the same reduction as summing a 1-D array.
    """
    top = np.ascontiguousarray(blocks[by - 1, bx, -1, :])
    left = np.ascontiguousarray(blocks[by, bx - 1, :, -1])
    return top, left, by > 0, bx > 0


def predict_blocks(
    top: np.ndarray, left: np.ndarray, has_top: np.ndarray,
    has_left: np.ndarray,
) -> np.ndarray:
    """Every mode's prediction for ``K`` independent blocks.

    Returns ``(len(INTRA_MODES), K, b, b)`` indexed by mode.  A missing
    neighbour falls back to mid-grey.  DC is the mean of the 8 or 16
    available neighbour samples, summed over the same contiguous run a
    single block's ``np.mean(np.concatenate(...))`` sums, which keeps the
    batched result bitwise equal to the one-block result.
    """
    k, b = top.shape
    dc = np.full(k, _DEFAULT_DC)
    np.divide(np.concatenate([top, left], axis=1).sum(axis=1), 2 * b,
              out=dc, where=has_top & has_left)
    np.divide(top.sum(axis=1), b, out=dc, where=has_top & ~has_left)
    np.divide(left.sum(axis=1), b, out=dc, where=has_left & ~has_top)
    preds = np.empty((len(INTRA_MODES), k, b, b))
    preds[MODE_DC] = dc[:, None, None]
    preds[MODE_V] = np.where(has_top[:, None], top, _DEFAULT_DC)[:, None, :]
    preds[MODE_H] = np.where(has_left[:, None], left, _DEFAULT_DC)[:, :, None]
    return preds


def choose_modes(
    preds: np.ndarray, targets: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest-SSD mode per block (first mode wins ties).

    ``preds`` is :func:`predict_blocks` output, ``targets`` the ``(K, b, b)``
    original blocks.  Returns ``(modes, predictions)``.
    """
    k = targets.shape[0]
    # Contiguous rows, so each block's SSD is summed in np.sum's own order.
    cost = (np.ascontiguousarray((targets - preds) ** 2)
            .reshape(len(INTRA_MODES), k, -1).sum(axis=2))
    modes = cost.argmin(axis=0)
    return modes, preds[modes, np.arange(k)]
