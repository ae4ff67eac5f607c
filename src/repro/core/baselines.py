"""Baselines: NAS, NEMO, and LOW (Section 4).

- **NAS** (Yeo et al., OSDI'18): one big model trained on *all* frames of
  the video, downloaded up front, applied to *every* decoded frame.
- **NEMO** (Yeo et al., MobiCom'20): the same big model, applied only to
  key frames (here: the I frames, per the paper's simplification for fair
  comparison), with the enhancement propagating through the GOP.
- **LOW**: the decoded low-quality video, unmodified.

All three reuse the same encoded video as dcSR, so quality/bandwidth
comparisons isolate the SR strategy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sr import EDSR, EdsrConfig, InferenceEngine, SrTrainConfig, train_sr
from ..video import yuv420_to_rgb
from ..video.codec import Decoder
from ..video.quality import psnr, ssim
from .client import PlaybackResult, enhance_yuv_frame
from .server import DcsrPackage

__all__ = ["BigModelBaseline", "train_big_model", "play_nas", "play_nemo",
           "play_nemo_adaptive", "play_low"]


@dataclass
class BigModelBaseline:
    """The shared artifact of NAS and NEMO: one model for the whole video."""

    model: EDSR

    @property
    def size_bytes(self) -> int:
        return self.model.size_bytes()


def train_big_model(
    package: DcsrPackage, hr_frames: np.ndarray,
    config: EdsrConfig, train_config: SrTrainConfig | None = None,
) -> BigModelBaseline:
    """Train the NAS/NEMO big model on *all* frames of the video.

    ``package.decoded_low`` supplies the degraded inputs; ``hr_frames`` the
    originals.
    """
    lq = np.stack([yuv420_to_rgb(f) for f in package.decoded_low.frames])
    model = EDSR(config)
    train_sr(model, lq, hr_frames, train_config)
    return BigModelBaseline(model=model)


def _play(
    package: DcsrPackage, decoder: Decoder,
    reference_frames: np.ndarray | None,
    baseline: BigModelBaseline | None = None, enhance=None,
) -> PlaybackResult:
    """The loop every baseline shares: decode with ``decoder`` (its hook,
    if any, is the in-decoder SR), convert to RGB, apply the per-frame
    ``enhance`` if any, score against the reference.  ``baseline`` is the
    big model the session downloaded up front."""
    result = PlaybackResult()
    result.video_bytes = package.encoded.total_bytes
    if baseline is not None:
        result.model_bytes = baseline.size_bytes
        result.model_downloads = [0]
    decoded = decoder.decode_video(package.encoded)
    result.sr_inferences = decoded.hook_invocations
    for ftype, frame in zip(decoded.frame_types, decoded.frames):
        rgb = yuv420_to_rgb(frame)
        if enhance is not None:
            rgb = enhance(rgb)
            result.sr_inferences += 1
        result.frames.append(rgb)
        result.frame_types.append(ftype)
    if reference_frames is not None:
        for display, rgb in enumerate(result.frames):
            result.psnr_per_frame.append(psnr(rgb, reference_frames[display]))
            result.ssim_per_frame.append(ssim(rgb, reference_frames[display]))
    return result


def play_nas(
    package: DcsrPackage, baseline: BigModelBaseline,
    reference_frames: np.ndarray | None = None,
) -> PlaybackResult:
    """NAS playback: download the big model once, SR every decoded frame."""
    return _play(package, Decoder(), reference_frames, baseline,
                 enhance=InferenceEngine(baseline.model).enhance)


def play_nemo(
    package: DcsrPackage, baseline: BigModelBaseline,
    reference_frames: np.ndarray | None = None,
) -> PlaybackResult:
    """NEMO playback: big model applied to I frames only, via the DPB hook."""
    engine = InferenceEngine(baseline.model)

    def hook(frame, display):
        return enhance_yuv_frame(engine, frame)

    return _play(package, Decoder(i_frame_hook=hook), reference_frames,
                 baseline)


def play_nemo_adaptive(
    package: DcsrPackage, baseline: BigModelBaseline,
    reference_frames: np.ndarray, budget_per_segment: int = 2,
) -> PlaybackResult:
    """NEMO with real anchor selection (Yeo et al.'s actual method).

    Greedily picks up to ``budget_per_segment`` I/P anchors per segment to
    maximise propagated quality, then plays with those anchors enhanced.
    Needs the reference frames (anchor selection is a server-side step in
    NEMO, where the original video is available).
    """
    from .anchor_selection import select_anchors

    plan = select_anchors(package.encoded, baseline.model, reference_frames,
                          budget_per_segment=budget_per_segment)
    engine = InferenceEngine(baseline.model)

    def hook(frame, display, ftype):
        if display in plan.anchors:
            return enhance_yuv_frame(engine, frame)
        return None

    return _play(package, Decoder(anchor_hook=hook), reference_frames,
                 baseline)


def play_low(
    package: DcsrPackage, reference_frames: np.ndarray | None = None,
) -> PlaybackResult:
    """LOW playback: the decoded CRF-degraded video, no enhancement."""
    return _play(package, Decoder(), reference_frames)
