"""Build-time quantization calibration for micro models.

The compiler co-design line of work overfits *kernels* to content the way
dcSR overfits models; the practical slice of that idea here is a
calibration pass the server runs after training each cluster model: for
every reduced precision it measures, on the cluster's own calibration
I-frames, exactly how much quality quantization costs relative to the
fp32 forward — ``delta_db = PSNR(fp32 out, reference) - PSNR(quantized
out, reference)`` — and how many bytes the quantized checkpoint ships.
The results land in the manifest
(:class:`~repro.core.manifest.QuantizationRecord`), so a client (or an
operator) can pick a precision against a stated quality budget instead
of a hoped-for one.

A reduced precision is a download format, not a compute mode: the
client rebuilds the weights its checkpoint carries — int8 codes times
their per-output-channel scales, or half-rounded fp16 parameters
(``Conv2d.packed(precision)``) — and runs the fp32 engine on them, so
the delta measured here is the delta of the fp32 kernels on those
weights, bit for bit what a client reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from ..video.quality import psnr
from .edsr import EDSR
from .engine import InferenceEngine

__all__ = ["QUANT_PRECISIONS", "CALIBRATION_FRAMES", "CalibrationResult",
           "clamped_psnr", "calibrate_quantized"]

#: The reduced precisions the calibration pass measures by default.
QUANT_PRECISIONS = ("fp16", "int8")

#: Frames of a cluster a calibration pass looks at: it needs
#: representative content, not the whole cluster.
CALIBRATION_FRAMES = 4

# PSNRs are clamped here before differencing so a perfect reconstruction
# (infinite PSNR) still yields a finite, JSON-serializable delta.
_PSNR_CLAMP_DB = 99.0


@dataclass(frozen=True)
class CalibrationResult:
    """One (model, precision) calibration measurement."""

    precision: str
    size_bytes: int
    delta_db: float
    psnr_fp32: float
    psnr_quant: float


def clamped_psnr(a: np.ndarray, b: np.ndarray) -> float:
    """PSNR as the calibration passes difference it: finite, in dB."""
    return float(min(psnr(a, b), _PSNR_CLAMP_DB))


def calibrate_quantized(
    model: EDSR, lq_frames: np.ndarray, hr_frames: np.ndarray,
    precisions: tuple[str, ...] = QUANT_PRECISIONS,
) -> dict[str, CalibrationResult]:
    """Measure the per-precision PSNR delta and checkpoint size of ``model``.

    ``lq_frames`` / ``hr_frames`` are ``(N, H, W, 3)`` float frames — the
    decoded low-quality inputs and pristine references of the cluster the
    model was trained on (at most :data:`CALIBRATION_FRAMES` are used; calibration
    needs representative content, not the whole cluster).  Returns
    ``{precision: CalibrationResult}``.  ``"fp32"`` is accepted as a
    precision: its row is the fp32 engine pass itself (delta exactly 0,
    full checkpoint size), not a second fp32 pass.
    """
    lq = np.asarray(lq_frames, dtype=np.float32)[:CALIBRATION_FRAMES]
    hr = np.asarray(hr_frames, dtype=np.float32)[:CALIBRATION_FRAMES]
    if lq.ndim != 4 or hr.ndim != 4:
        raise ValueError("calibration frames must be (N, H, W, 3) batches")
    if len(lq) == 0:
        raise ValueError("calibration needs at least one frame")

    ref_out = InferenceEngine(model).enhance_batch(lq)
    psnr_fp32 = clamped_psnr(ref_out, hr)

    results: dict[str, CalibrationResult] = {}
    for precision in precisions:
        if precision == "fp32":
            psnr_quant = psnr_fp32
        else:
            engine = InferenceEngine(model, precision=precision)
            psnr_quant = clamped_psnr(engine.enhance_batch(lq), hr)
        results[precision] = CalibrationResult(
            precision=precision,
            size_bytes=nn.quantized_size_bytes(model, precision),
            delta_db=psnr_fp32 - psnr_quant,
            psnr_fp32=psnr_fp32,
            psnr_quant=psnr_quant,
        )
    return results
