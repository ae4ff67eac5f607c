"""Scalar reference decoder: the block-at-a-time interpreter the codec
shipped with before decode was batched per frame.

One Python call per bit, one ``predict_block`` and one einsum IDCT per 8x8
block, one ``compensate_halfpel`` per macroblock plane, one deblocking pass
per edge.  It is slow and obviously sequential, which is what makes it an
oracle: ``test_decode_oracle.py`` and ``test_decode_fuzz.py`` require the
production decoder to return the same planes and ``n_bits`` (or to fail on
the same inputs).  It reads through ``BitReader``'s public API only and
raises plain ``ValueError`` / ``EOFError``.
"""

from __future__ import annotations

import numpy as np

from repro.video.codec.bitstream import BitReader
from repro.video.codec.dct import BLOCK, dct_matrix
from repro.video.codec.entropy import zigzag_order
from repro.video.codec.motion import MB
from repro.video.codec.quant import (dequantize, qp_for_frame_type,
                                     qstep_from_qp)
from repro.video.frame import YuvFrame

_D = dct_matrix()
_TYPE_FROM_CODE = {0: "I", 1: "P", 2: "B"}


def einsum_forward_dct(blocks: np.ndarray) -> np.ndarray:
    return np.einsum("ij,...jk,lk->...il", _D, blocks.astype(np.float64), _D,
                     optimize=True)


def einsum_inverse_dct(coeffs: np.ndarray) -> np.ndarray:
    return np.einsum("ji,...jk,kl->...il", _D, coeffs.astype(np.float64), _D,
                     optimize=True)


# ------------------------------------------------------------------ entropy

def read_ue(reader: BitReader) -> int:
    zeros = 0
    while reader.read_bit() == 0:
        zeros += 1
        if zeros > 64:
            raise ValueError("corrupt Exp-Golomb code (prefix too long)")
    value = 1
    for _ in range(zeros):
        value = (value << 1) | reader.read_bit()
    return value - 1


def read_se(reader: BitReader) -> int:
    code = read_ue(reader)
    magnitude = (code + 1) // 2
    return magnitude if code % 2 == 1 else -magnitude


def decode_coeff_block(reader: BitReader, n: int = BLOCK) -> np.ndarray:
    n_nonzero = read_ue(reader)
    if n_nonzero > n * n:
        raise ValueError(f"corrupt block: {n_nonzero} nonzeros in {n}x{n}")
    scan = np.zeros(n * n, dtype=np.int64)
    pos = -1
    for _ in range(n_nonzero):
        run = read_ue(reader)
        level = read_se(reader)
        pos += run + 1
        if pos >= n * n:
            raise ValueError("corrupt block: zigzag position out of range")
        scan[pos] = level
    block = np.zeros(n * n, dtype=np.int64)
    block[zigzag_order(n)] = scan
    return block.reshape(n, n)


# -------------------------------------------------------------------- intra

def predict_block(recon: np.ndarray, by: int, bx: int, mode: int) -> np.ndarray:
    y0, x0 = by * BLOCK, bx * BLOCK
    top = recon[y0 - 1, x0:x0 + BLOCK] if y0 > 0 else None
    left = recon[y0:y0 + BLOCK, x0 - 1] if x0 > 0 else None
    if mode == 1:
        if top is None:
            return np.full((BLOCK, BLOCK), 128.0)
        return np.tile(top, (BLOCK, 1)).astype(np.float64)
    if mode == 2:
        if left is None:
            return np.full((BLOCK, BLOCK), 128.0)
        return np.tile(left[:, None], (1, BLOCK)).astype(np.float64)
    if mode == 0:
        parts = [p for p in (top, left) if p is not None]
        if not parts:
            return np.full((BLOCK, BLOCK), 128.0)
        return np.full((BLOCK, BLOCK), float(np.mean(np.concatenate(parts))))
    raise ValueError(f"unknown intra mode {mode}")


def decode_plane_intra(reader: BitReader, height: int, width: int,
                       qp: int) -> np.ndarray:
    recon = np.zeros((height, width), dtype=np.float64)
    for by in range(height // BLOCK):
        for bx in range(width // BLOCK):
            mode = read_ue(reader)
            levels = decode_coeff_block(reader)
            pred = predict_block(recon, by, bx, mode)
            rec = pred + einsum_inverse_dct(dequantize(levels, qp))
            y0, x0 = by * BLOCK, bx * BLOCK
            recon[y0:y0 + BLOCK, x0:x0 + BLOCK] = np.clip(rec, 0, 255)
    return np.rint(recon).astype(np.uint8)


# ------------------------------------------------------------------- motion

def compensate(reference, y, x, dy, dx, height, width):
    sy, sx = y + dy, x + dx
    h, w = reference.shape
    if sy < 0 or sx < 0 or sy + height > h or sx + width > w:
        raise ValueError(f"motion vector ({dy}, {dx}) at ({y}, {x}) leaves "
                         f"the reference frame of size {(h, w)}")
    return reference[sy:sy + height, sx:sx + width].astype(np.float64)


def compensate_halfpel(reference, y, x, dy_hp, dx_hp, height, width):
    base_y, frac_y = dy_hp >> 1, dy_hp & 1
    base_x, frac_x = dx_hp >> 1, dx_hp & 1
    sy, sx = y + base_y, x + base_x
    h, w = reference.shape
    need_h = height + (1 if frac_y else 0)
    need_w = width + (1 if frac_x else 0)
    if sy < 0 or sx < 0 or sy + need_h > h or sx + need_w > w:
        raise ValueError(f"half-pel vector ({dy_hp}, {dx_hp}) at ({y}, {x}) "
                         f"leaves the reference frame of size {(h, w)}")
    block = reference[sy:sy + need_h, sx:sx + need_w].astype(np.float64)
    if frac_y:
        block = 0.5 * (block[:-1, :] + block[1:, :])
    if frac_x:
        block = 0.5 * (block[:, :-1] + block[:, 1:])
    return block


def predict_from_refs(refs, mode, mvs, y0, x0, half_pel):
    half = MB // 2
    cy, cx = y0 // 2, x0 // 2
    comp = compensate_halfpel if half_pel else compensate

    def one(ref, mv):
        dy, dx = mv
        cdy, cdx = dy // 2, dx // 2
        return (comp(ref.y, y0, x0, dy, dx, MB, MB),
                comp(ref.u, cy, cx, cdy, cdx, half, half),
                comp(ref.v, cy, cx, cdy, cdx, half, half))

    if mode == 2:
        py0, pu0, pv0 = one(refs[0], mvs[0])
        py1, pu1, pv1 = one(refs[1], mvs[1])
        return 0.5 * (py0 + py1), 0.5 * (pu0 + pu1), 0.5 * (pv0 + pv1)
    return one(refs[mode], mvs[0])


def decode_block_residual(reader, height, width, qp):
    recon = np.empty((height, width), dtype=np.float64)
    for y0 in range(0, height, BLOCK):
        for x0 in range(0, width, BLOCK):
            levels = decode_coeff_block(reader)
            recon[y0:y0 + BLOCK, x0:x0 + BLOCK] = einsum_inverse_dct(
                dequantize(levels, qp))
    return recon


def decode_mb_residual(reader, qp):
    half = MB // 2
    if reader.read_bit():
        return np.zeros((MB, MB)), np.zeros((half, half)), np.zeros((half, half))
    return (decode_block_residual(reader, MB, MB, qp),
            decode_block_residual(reader, half, half, qp),
            decode_block_residual(reader, half, half, qp))


def decode_inter(reader, refs, width, height, qp, half_pel):
    rec_y = np.empty((height, width), dtype=np.float64)
    rec_u = np.empty((height // 2, width // 2), dtype=np.float64)
    rec_v = np.empty_like(rec_u)
    half = MB // 2
    for y0 in range(0, height, MB):
        for x0 in range(0, width, MB):
            mode = 0
            if len(refs) == 2:
                mode = read_ue(reader)
                if mode not in (0, 1, 2):
                    raise ValueError(f"corrupt stream: B-frame mode {mode}")
            n_mvs = 2 if mode == 2 else 1
            mvs = [(read_se(reader), read_se(reader)) for _ in range(n_mvs)]
            pred_y, pred_u, pred_v = predict_from_refs(
                refs, mode, mvs, y0, x0, half_pel)
            rl, ru, rv = decode_mb_residual(reader, qp)
            cy, cx = y0 // 2, x0 // 2
            rec_y[y0:y0 + MB, x0:x0 + MB] = np.clip(pred_y + rl, 0, 255)
            rec_u[cy:cy + half, cx:cx + half] = np.clip(pred_u + ru, 0, 255)
            rec_v[cy:cy + half, cx:cx + half] = np.clip(pred_v + rv, 0, 255)
    return YuvFrame(np.rint(rec_y).astype(np.uint8),
                    np.rint(rec_u).astype(np.uint8),
                    np.rint(rec_v).astype(np.uint8))


# ------------------------------------------------------------------ deblock

def _filter_edges(plane: np.ndarray, qp: int, axis: int) -> None:
    step_size = qstep_from_qp(qp)
    alpha, tc = 2.5 * step_size, 0.5 * step_size
    size = plane.shape[axis]
    for edge in range(BLOCK, size, BLOCK):
        if axis == 0:
            p1, p0, q0 = plane[edge - 2, :], plane[edge - 1, :], plane[edge, :]
            q1 = plane[edge + 1, :] if edge + 1 < size else q0
        else:
            p1, p0, q0 = plane[:, edge - 2], plane[:, edge - 1], plane[:, edge]
            q1 = plane[:, edge + 1] if edge + 1 < size else q0
        step = q0 - p0
        smooth = (np.abs(step) < alpha) & (np.abs(p1 - p0) < alpha) & (
            np.abs(q1 - q0) < alpha)
        delta = np.clip(step / 4.0, -tc, tc) * smooth
        p0 += delta
        q0 -= delta
        p1 += np.clip((p0 - p1) / 4.0, -tc / 2, tc / 2) * smooth
        q1 -= np.clip((q1 - q0) / 4.0, -tc / 2, tc / 2) * smooth


def deblock_plane(plane: np.ndarray, qp: int) -> np.ndarray:
    work = plane.astype(np.float64)
    _filter_edges(work, qp, axis=1)
    _filter_edges(work, qp, axis=0)
    return np.clip(np.rint(work), 0, 255).astype(np.uint8)


# ------------------------------------------------------------------ segment

def decode_segment(segment, width: int, height: int):
    """Decode one segment with no hooks.

    Returns ``[(display, ftype, YuvFrame, n_bits), ...]`` in decode order.
    """
    reader = BitReader(segment.payload)
    base_qp = reader.read_uint(8)
    flags = reader.read_uint(8)
    deblock, half_pel = bool(flags & 1), bool(flags & 2)
    n_frames = read_ue(reader)
    if n_frames != segment.n_frames:
        raise ValueError("segment header and metadata disagree")
    dpb: dict[int, YuvFrame] = {}
    out = []
    for _ in range(n_frames):
        bits_before = reader.bit_position
        code = read_ue(reader)
        if code not in _TYPE_FROM_CODE:
            raise ValueError(f"corrupt stream: unknown frame type code {code}")
        ftype = _TYPE_FROM_CODE[code]
        display = segment.start + read_ue(reader)
        qp = qp_for_frame_type(base_qp, ftype)
        if ftype == "I":
            frame = YuvFrame(
                decode_plane_intra(reader, height, width, qp),
                decode_plane_intra(reader, height // 2, width // 2, qp),
                decode_plane_intra(reader, height // 2, width // 2, qp))
        else:
            ref_displays = [display - read_ue(reader)]
            if ftype == "B":
                ref_displays.append(display + read_ue(reader))
            for ref in ref_displays:
                if ref not in dpb:
                    raise ValueError(
                        f"corrupt stream: reference frame {ref} not in DPB")
            frame = decode_inter(reader, [dpb[r] for r in ref_displays],
                                 width, height, qp, half_pel)
        if deblock:
            frame = YuvFrame(deblock_plane(frame.y, qp),
                             deblock_plane(frame.u, qp),
                             deblock_plane(frame.v, qp))
        if ftype in ("I", "P"):
            dpb[display] = frame
        out.append((display, ftype, frame, reader.bit_position - bits_before))
    return out
