"""I-frame decode as it was before the parse was vectorised and the three
planes shared a wavefront.

``parse_intra_blocks`` is the per-symbol walk — two ``BitReader.read_ue``
calls per block plus two per coefficient — and ``reconstruct_plane_intra``
the per-plane wavefront, both verbatim from
``repro.video.codec.residual`` at the commit before the change (the walk
is still the body the production parser falls back to on a failed check).
``test_vector_parse.py`` holds the vector pass and the fused
reconstruction ``array_equal`` to them.  Not a second implementation to
keep in step: it never changes.
"""

import numpy as np

from repro.video.codec.bitstream import BitReader, CorruptStreamError
from repro.video.codec.dct import BLOCK
from repro.video.codec.entropy import read_block_levels, scatter_levels
from repro.video.codec.intra import (INTRA_MODES, neighbours, predict_blocks,
                                     wavefront)
from repro.video.codec.residual import blocks_to_plane, transformed

_N_COEFFS = BLOCK * BLOCK


def parse_intra_blocks(
    reader: BitReader, n_blocks: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    read_ue = reader.read_ue
    modes: list[int] = []
    positions: list[int] = []
    values: list[int] = []
    for base in range(0, n_blocks * _N_COEFFS, _N_COEFFS):
        mode = read_ue()
        read_block_levels(reader, base, positions, values)
        if mode >= len(INTRA_MODES):
            raise CorruptStreamError(f"corrupt stream: unknown intra mode {mode}")
        modes.append(mode)
    return (np.array(modes, dtype=np.intp),
            *scatter_levels(positions, values))


def reconstruct_plane_intra(
    modes: np.ndarray, coded: np.ndarray, levels: np.ndarray, qp: int,
    height: int, width: int,
) -> np.ndarray:
    rows, cols = height // BLOCK, width // BLOCK
    modes = modes.reshape(rows, cols)
    residual = np.zeros((rows * cols, BLOCK, BLOCK))
    for index, blocks in transformed(coded, levels, qp):
        residual[index] = blocks
    residual = residual.reshape(rows, cols, BLOCK, BLOCK)
    recon = np.zeros((rows, cols, BLOCK, BLOCK))
    for by, bx in wavefront(rows, cols):
        preds = predict_blocks(*neighbours(recon, by, bx))
        pred = preds[modes[by, bx], np.arange(len(by))]
        # Clipped per step: the next diagonal predicts from these samples.
        recon[by, bx] = np.clip(pred + residual[by, bx], 0, 255)
    return blocks_to_plane(recon)


def decode_intra_planes(
    reader: BitReader, width: int, height: int, qp: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``Decoder._decode_intra`` of that commit: one parse, then a
    wavefront per plane."""
    n_luma = (height // BLOCK) * (width // BLOCK)
    n_chroma = n_luma // 4
    modes, coded, levels = parse_intra_blocks(reader, n_luma + 2 * n_chroma)
    planes = []
    start = 0
    for count, shrink in ((n_luma, 1), (n_chroma, 2), (n_chroma, 2)):
        stop = start + count
        lo, hi = np.searchsorted(coded, (start, stop))
        planes.append(reconstruct_plane_intra(
            modes[start:stop], coded[lo:hi] - start, levels[lo:hi], qp,
            height // shrink, width // shrink))
        start = stop
    return tuple(planes)
