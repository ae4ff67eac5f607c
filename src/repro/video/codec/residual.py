"""Frame-level residual coding shared by the encoder and decoder.

A frame is handled in whole-frame passes rather than block by block:

- **parse** (:func:`parse_intra_blocks`, :func:`parse_inter_macroblocks`):
  the frame's bits become the quantised levels of every 8x8 block that has
  any, plus intra modes or B modes / motion vectors.  Inter frames are one
  sequential walk; an intra frame, Exp-Golomb codes end to end, is parsed
  in array passes (:func:`.entropy.read_led_blocks`) and walked only where
  those balk.  Every grammar error is raised by the walk, at its bit.
- **transform** (:func:`transformed`): dequantisation and the inverse DCT
  run over all coded blocks of the frame, a large slab at a time.
- **intra reconstruction** (:func:`reconstruct_intra`,
  :func:`encode_plane_intra`): spatial prediction needs the reconstructed
  neighbours, so it advances by anti-diagonal wavefront
  (:mod:`~repro.video.codec.intra`), one vectorised step per diagonal —
  in the decoder one step for diagonal ``d`` of Y, U and V together.
- **inter reconstruction** (:func:`add_residual`): the motion-compensated
  prediction arrives macroblock-major from
  :func:`~repro.video.codec.motion.predict_frame`; the residual of the coded
  blocks is added into it in place, and each plane is clipped, rounded and
  assembled once (:func:`blocks_to_plane`).

Inter frames carry six blocks per macroblock — four luma in raster order,
then U, then V — so block ``b`` of a frame belongs to macroblock
``b // BLOCKS_PER_MB``.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .bitstream import BitReader, BitWriter, CorruptStreamError
from .dct import BLOCK, forward_dct, from_blocks, inverse_dct, to_blocks
from .entropy import (encode_coeff_block, read_block_levels, read_led_blocks,
                      scatter_levels, write_ue)
from .intra import (INTRA_MODES, choose_modes, neighbours, predict_blocks,
                    stacked_wavefront, wavefront)
from .motion import MB
from .quant import dequantize, quantize

__all__ = [
    "BLOCKS_PER_MB",
    "parse_intra_blocks",
    "parse_inter_macroblocks",
    "transformed",
    "reconstruct_intra",
    "encode_plane_intra",
    "macroblock_blocks",
    "add_residual",
    "blocks_to_plane",
]

_N_COEFFS = BLOCK * BLOCK
_LUMA_SIDE = MB // BLOCK
_LUMA_PER_MB = _LUMA_SIDE ** 2
#: Coded 8x8 blocks of one macroblock: 2x2 luma, then U, then V.
BLOCKS_PER_MB = _LUMA_PER_MB + 2
# Coded blocks inverse-transformed per batch (0.5 MB of float64 each).
_SLAB = 1024


# -------------------------------------------------------------------- parse
#
# Both parsers return the frame's levels the way ``entropy.scatter_levels``
# builds them: ``coded``, the ascending indices of the blocks with at least
# one coefficient, and their ``(len(coded), 64)`` raster-order levels.  All
# other blocks (a skipped macroblock's six among them) are zero.

def parse_intra_blocks(
    reader: BitReader, n_blocks: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read ``n_blocks`` intra blocks: ``ue(mode)`` + coefficients each.

    Returns ``(modes, coded, levels)`` with ``modes`` of shape ``(n_blocks,)``.
    The array passes return only a frame they find nothing wrong with; any
    other is walked from its first bit, which decides what is raised where.
    """
    frame_start = reader.bit_position
    parsed = read_led_blocks(reader, n_blocks)
    if parsed is not None and parsed[0].max() < len(INTRA_MODES):
        return parsed
    reader.seek(frame_start)
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


def parse_inter_macroblocks(
    reader: BitReader, n_mb: int, bidirectional: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read the ``n_mb`` macroblocks of a P or B frame.

    Returns ``(modes, mvs, coded, levels)``: per macroblock the prediction
    mode (0 forward, 1 backward, 2 bidirectional; always 0 in a P frame) and
    its ``(2, 2)`` motion vectors ``[slot, (dy, dx)]`` (slot 1 is used by
    mode 2 only), then the levels of the frame's
    ``n_mb * BLOCKS_PER_MB`` blocks.
    """
    read_ue, read_se, read_bit = reader.read_ue, reader.read_se, reader.read_bit
    modes: list[int] = []
    mvs: list[tuple[int, int, int, int]] = []
    positions: list[int] = []
    values: list[int] = []
    mb_coeffs = BLOCKS_PER_MB * _N_COEFFS
    for mb_base in range(0, n_mb * mb_coeffs, mb_coeffs):
        mode = 0
        if bidirectional:
            mode = read_ue()
            if mode > 2:
                raise CorruptStreamError(f"corrupt stream: B-frame mode {mode}")
        if mode == 2:
            mvs.append((read_se(), read_se(), read_se(), read_se()))
        else:
            mvs.append((read_se(), read_se(), 0, 0))
        modes.append(mode)
        if not read_bit():      # skip flag
            for base in range(mb_base, mb_base + mb_coeffs, _N_COEFFS):
                read_block_levels(reader, base, positions, values)
    try:
        vectors = np.array(mvs, dtype=np.int64).reshape(n_mb, 2, 2)
    except OverflowError as exc:
        raise CorruptStreamError(
            "corrupt stream: motion vector exceeds 64 bits") from exc
    return (np.array(modes, dtype=np.intp), vectors,
            *scatter_levels(positions, values))


# ---------------------------------------------------------------- transform

def transformed(
    coded: np.ndarray, levels: np.ndarray, qp: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Dequantise and inverse-transform a frame's coded blocks in batches.

    Yields ``(block indices, (K, 8, 8) float residual)`` a slab at a time,
    so the float temporaries stay small beside the frame.
    """
    for start in range(0, len(coded), _SLAB):
        stop = start + _SLAB
        yield coded[start:stop], inverse_dct(dequantize(
            levels[start:stop].reshape(-1, BLOCK, BLOCK), qp))


def blocks_to_plane(blocks: np.ndarray) -> np.ndarray:
    """Clip and round ``(rows, cols, b, b)`` reconstructed blocks — once,
    in place — and assemble the uint8 plane."""
    np.clip(blocks, 0, 255, out=blocks)
    return from_blocks(np.rint(blocks, out=blocks).astype(np.uint8))


# -------------------------------------------------------------------- intra

def reconstruct_intra(
    modes: np.ndarray, coded: np.ndarray, levels: np.ndarray, qp: int,
    height: int, width: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rebuild an intra frame's Y, U and V planes (uint8) from its parsed
    blocks, each plane's in raster order, one plane after the other.

    One wavefront advances all three: a block sees the neighbour rows its
    own plane's wavefront shows it, and :func:`predict_blocks` treats it
    the same whatever else shares the call.
    """
    grids = tuple((height // shrink // BLOCK, width // shrink // BLOCK)
                  for shrink in (1, 2, 2))
    # Holds a block's residual until its step, its samples from then on.
    recon = np.zeros((len(modes), BLOCK, BLOCK))
    for index, blocks in transformed(coded, levels, qp):
        recon[index] = blocks
    for index, top, left, has_top, has_left in stacked_wavefront(*grids):
        preds = predict_blocks(np.ascontiguousarray(recon[top, -1, :]),
                               np.ascontiguousarray(recon[left, :, -1]),
                               has_top, has_left)
        pred = preds[modes[index], np.arange(len(index))]
        pred += recon[index]
        # Clipped per step: the next diagonal predicts from these samples.
        recon[index] = np.clip(pred, 0, 255, out=pred)
    bounds = np.cumsum([0] + [rows * cols for rows, cols in grids])
    return tuple(
        blocks_to_plane(recon[lo:hi].reshape(rows, cols, BLOCK, BLOCK))
        for lo, hi, (rows, cols) in zip(bounds, bounds[1:], grids))


def encode_plane_intra(writer: BitWriter, plane: np.ndarray, qp: int) -> np.ndarray:
    """Intra-code a full plane; returns the reconstructed plane (uint8).

    Mode decision, transform and closed-loop reconstruction advance by
    wavefront; the bits are then written in raster block order.
    """
    original = to_blocks(plane.astype(np.float64))
    rows, cols = original.shape[:2]
    modes = np.empty((rows, cols), dtype=np.intp)
    levels = np.empty(original.shape, dtype=np.int64)
    recon = np.zeros(original.shape)
    for by, bx in wavefront(rows, cols):
        targets = original[by, bx]
        chosen, pred = choose_modes(
            predict_blocks(*neighbours(recon, by, bx)), targets)
        coded = quantize(forward_dct(targets - pred), qp)
        modes[by, bx] = chosen
        levels[by, bx] = coded
        recon[by, bx] = np.clip(
            pred + inverse_dct(dequantize(coded, qp)), 0, 255)
    for mode, block in zip(modes.reshape(-1).tolist(),
                           levels.reshape(-1, BLOCK, BLOCK)):
        write_ue(writer, mode)
        encode_coeff_block(writer, block)
    return blocks_to_plane(recon)


# -------------------------------------------------------------------- inter

def macroblock_blocks(
    luma: np.ndarray, u: np.ndarray, v: np.ndarray,
) -> np.ndarray:
    """Macroblock-major samples -> ``(K, BLOCKS_PER_MB, 8, 8)`` coding-order
    blocks, from ``(K, 16, 16)`` luma and ``(K, 8, 8)`` chroma."""
    k = len(luma)
    out = np.empty((k, BLOCKS_PER_MB, BLOCK, BLOCK), dtype=luma.dtype)
    out[:, :_LUMA_PER_MB] = (
        luma.reshape(k, _LUMA_SIDE, BLOCK, _LUMA_SIDE, BLOCK)
        .transpose(0, 1, 3, 2, 4).reshape(k, _LUMA_PER_MB, BLOCK, BLOCK))
    out[:, _LUMA_PER_MB] = u
    out[:, _LUMA_PER_MB + 1] = v
    return out


def add_residual(
    prediction: tuple[np.ndarray, np.ndarray, np.ndarray],
    coded: np.ndarray, levels: np.ndarray, qp: int,
) -> None:
    """Add the coded blocks' residual into a macroblock-major prediction,
    in place (``coded`` counted from the prediction's first macroblock)."""
    pred_y, pred_u, pred_v = prediction
    # [macroblock, block row, y, block column, x]
    luma = pred_y.reshape(len(pred_y), _LUMA_SIDE, BLOCK, _LUMA_SIDE, BLOCK)
    for index, blocks in transformed(coded, levels, qp):
        mb, which = np.divmod(index, BLOCKS_PER_MB)
        in_luma = which < _LUMA_PER_MB
        row, col = np.divmod(which[in_luma], _LUMA_SIDE)
        luma[mb[in_luma], row, :, col, :] += blocks[in_luma]
        for plane, slot in ((pred_u, _LUMA_PER_MB), (pred_v, _LUMA_PER_MB + 1)):
            chosen = which == slot
            plane[mb[chosen]] += blocks[chosen]
