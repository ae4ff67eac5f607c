"""Quantization and the CRF -> quantizer mapping.

The paper generates its low-quality inputs with ``CRF = 51`` in FFMPEG
(Section 4).  We mirror H.264's quantizer design: the quantization step
doubles every 6 QP points, and CRF maps onto the same 0-51 scale.  A mild
frequency weighting (coarser steps at high frequencies) mimics the
perceptual quantization matrices real encoders use — this is what creates
the blocky, detail-stripped look at CRF 51 that SR then repairs.
"""

from __future__ import annotations

import numpy as np

from .dct import BLOCK

__all__ = ["qstep_from_qp", "qp_from_crf", "frequency_weights",
           "quantize", "dequantize", "qp_for_frame_type", "MAX_CRF",
           "I_QP_OFFSET", "B_QP_OFFSET"]

MAX_CRF = 51

# Per-frame-type QP offsets, mirroring x264's ip/pb factors: I frames are
# quantized finer (they seed every prediction chain), B frames coarser
# (nothing references them).  This is what gives I frames their dominant
# per-frame bitrate — the structural fact dcSR builds on.
I_QP_OFFSET = -4
B_QP_OFFSET = +2


def qp_for_frame_type(qp: int, ftype: str) -> int:
    """Effective QP for a frame of type ``ftype`` ("I" | "P" | "B")."""
    if ftype == "I":
        return max(0, qp + I_QP_OFFSET)
    if ftype == "P":
        return qp
    if ftype == "B":
        return min(MAX_CRF, qp + B_QP_OFFSET)
    raise ValueError(f"unknown frame type {ftype!r}")


def qp_from_crf(crf: int) -> int:
    """Map a constant-rate-factor to a quantization parameter.

    Our toy codec is single-pass, so CRF degenerates to a constant QP on the
    same 0-51 scale (this is also how FFMPEG behaves with ``-qp``).
    """
    if not 0 <= crf <= MAX_CRF:
        raise ValueError(f"CRF must be in [0, {MAX_CRF}], got {crf}")
    return int(crf)


def qstep_from_qp(qp: int) -> float:
    """H.264-style quantization step: doubles every 6 QP points."""
    if not 0 <= qp <= MAX_CRF:
        raise ValueError(f"QP must be in [0, {MAX_CRF}], got {qp}")
    return float(0.625 * 2.0 ** ((qp - 4) / 6.0))


def frequency_weights() -> np.ndarray:
    """Perceptual 8x8 weighting matrix: high frequencies quantized more
    coarsely, up to 1.6 times the step."""
    i = np.arange(BLOCK)[:, None]
    j = np.arange(BLOCK)[None, :]
    return (1.0 + 0.6 * (i + j) / (2.0 * (BLOCK - 1))).astype(np.float64)


_WEIGHTS = frequency_weights()


def quantize(coeffs: np.ndarray, qp: int) -> np.ndarray:
    """Quantize DCT coefficients to integer levels."""
    return np.rint(coeffs / (qstep_from_qp(qp) * _WEIGHTS)).astype(np.int64)


def dequantize(levels: np.ndarray, qp: int) -> np.ndarray:
    """Reconstruct coefficients from integer levels."""
    return levels.astype(np.float64) * (qstep_from_qp(qp) * _WEIGHTS)
