"""Video encoder.

A closed-loop block codec with the H.264 structure dcSR relies on: segments
are closed GOPs starting with an I frame; P frames are motion-compensated
from the previous anchor; B frames predict from both surrounding anchors.
The encoder reconstructs exactly what the decoder will, so prediction never
drifts (until a client deliberately enhances I frames — which is the point
of dcSR).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..color import rgb_to_yuv420
from ..frame import YuvFrame
from ..segment import Segment
from .bitstream import BitWriter
from .dct import BLOCK, forward_dct, to_blocks
from .deblock import deblock_frame
from .entropy import encode_coeff_block, write_se, write_ue
from .gop import FramePlan, plan_segment
from .motion import MB, _predict_inside, search_frame, vectors_leave_frame
from .quant import qp_for_frame_type, qp_from_crf, quantize
from .residual import (add_residual, blocks_to_plane, encode_plane_intra,
                       macroblock_blocks)

__all__ = ["CodecConfig", "EncodedFrameInfo", "EncodedSegment",
           "EncodedVideo", "Encoder", "FRAME_TYPE_CODES"]

FRAME_TYPE_CODES = {"I": 0, "P": 1, "B": 2}

# Macroblocks of an inter frame transformed per batch: enough to amortise
# numpy dispatch, few enough that the float temporaries stay ~0.8 MB
# instead of one frame each.
_BAND = 256


@dataclass(frozen=True)
class CodecConfig:
    """Encoder settings.

    ``crf`` follows the FFMPEG 0-51 scale (51 = worst quality; the paper's
    low-quality inputs use 51).  ``n_b_frames`` is the number of B frames
    between anchors; ``extra_i_interval`` forces additional I frames within
    segments (the multiple-inferences-per-segment setting of Figure 8).
    """

    crf: int = 30
    n_b_frames: int = 2
    search_range: int = 7
    extra_i_interval: int | None = None
    deblock: bool = True
    half_pel: bool = True

    def __post_init__(self):
        qp_from_crf(self.crf)  # validates range
        if self.n_b_frames < 0:
            raise ValueError("n_b_frames must be >= 0")
        if self.search_range < 1:
            raise ValueError("search_range must be >= 1")


@dataclass(frozen=True)
class EncodedFrameInfo:
    """Per-frame accounting: display index, type, and exact coded bits."""

    display: int
    ftype: str
    n_bits: int


@dataclass
class EncodedSegment:
    """One segment's coded payload plus bookkeeping."""

    index: int
    start: int
    n_frames: int
    payload: bytes
    frames: list[EncodedFrameInfo] = field(default_factory=list)

    @property
    def n_bytes(self) -> int:
        return len(self.payload)


@dataclass
class EncodedVideo:
    """A fully encoded video: per-segment payloads and metadata."""

    width: int
    height: int
    fps: float
    config: CodecConfig
    segments: list[EncodedSegment] = field(default_factory=list)

    @property
    def n_frames(self) -> int:
        return sum(s.n_frames for s in self.segments)

    @property
    def total_bytes(self) -> int:
        return sum(s.n_bytes for s in self.segments)

    def bits_by_type(self) -> dict[str, int]:
        """Total coded bits per frame type (I frames dominate — Section 3.1.1)."""
        totals = {"I": 0, "P": 0, "B": 0}
        for seg in self.segments:
            for info in seg.frames:
                totals[info.ftype] += info.n_bits
        return totals

    def frame_types(self) -> list[str]:
        """Frame types in display order."""
        out: dict[int, str] = {}
        for seg in self.segments:
            for info in seg.frames:
                out[info.display] = info.ftype
        return [out[i] for i in sorted(out)]


class Encoder:
    """Encode RGB float videos into segment bitstreams."""

    def __init__(self, config: CodecConfig | None = None):
        self.config = config or CodecConfig()

    def encode(
        self, frames_rgb: np.ndarray, segments: list[Segment], fps: float = 30.0,
    ) -> EncodedVideo:
        """Encode ``(T, H, W, 3)`` RGB frames split into ``segments``."""
        if frames_rgb.ndim != 4:
            raise ValueError(f"expected (T, H, W, 3) frames, got {frames_rgb.shape}")
        n, height, width = frames_rgb.shape[:3]
        if height % MB or width % MB:
            raise ValueError(f"frame size {(height, width)} must be multiples of {MB}")
        covered = sorted((s.start, s.end) for s in segments)
        if covered[0][0] != 0 or covered[-1][1] != n or any(
            a[1] != b[0] for a, b in zip(covered[:-1], covered[1:])
        ):
            raise ValueError("segments must exactly tile the video")

        yuv = [rgb_to_yuv420(frame) for frame in frames_rgb]
        video = EncodedVideo(width=width, height=height, fps=fps,
                             config=self.config)
        for seg in sorted(segments, key=lambda s: s.start):
            video.segments.append(self._encode_segment(yuv, seg))
        return video

    def encode_segment(
        self, frames_rgb: np.ndarray, segment: Segment,
    ) -> EncodedSegment:
        """Encode one closed-GOP segment from its own frames.

        ``frames_rgb`` holds exactly ``segment.n_frames`` RGB frames (the
        slice ``[segment.start, segment.end)`` of the video).  Because
        segments are closed GOPs and the bitstream stores segment-local
        display offsets, the payload is bit-identical to the corresponding
        segment of :meth:`encode` — this is the unit of work the parallel
        server build fans out per worker.
        """
        if frames_rgb.ndim != 4:
            raise ValueError(f"expected (T, H, W, 3) frames, got {frames_rgb.shape}")
        if frames_rgb.shape[0] != segment.n_frames:
            raise ValueError(
                f"segment {segment.index} expects {segment.n_frames} frames, "
                f"got {frames_rgb.shape[0]}")
        height, width = frames_rgb.shape[1:3]
        if height % MB or width % MB:
            raise ValueError(f"frame size {(height, width)} must be multiples of {MB}")
        yuv = [rgb_to_yuv420(frame) for frame in frames_rgb]
        local = Segment(index=segment.index, start=0, end=segment.n_frames)
        coded = self._encode_segment(yuv, local)
        return EncodedSegment(
            index=segment.index, start=segment.start,
            n_frames=segment.n_frames, payload=coded.payload,
            frames=[EncodedFrameInfo(display=f.display + segment.start,
                                     ftype=f.ftype, n_bits=f.n_bits)
                    for f in coded.frames])

    # ------------------------------------------------------------------

    def _encode_segment(self, yuv: list[YuvFrame], seg: Segment) -> EncodedSegment:
        cfg = self.config
        qp = qp_from_crf(cfg.crf)
        plans = plan_segment(seg.start, seg.n_frames, cfg.n_b_frames,
                             cfg.extra_i_interval)
        writer = BitWriter()
        writer.write_uint(qp, 8)
        flags = (1 if cfg.deblock else 0) | (2 if cfg.half_pel else 0)
        writer.write_uint(flags, 8)
        write_ue(writer, seg.n_frames)

        dpb: dict[int, YuvFrame] = {}
        infos: list[EncodedFrameInfo] = []
        for plan in plans:
            bits_before = writer.bit_length
            recon = self._encode_frame(writer, yuv[plan.display], plan,
                                       seg.start, dpb, qp)
            if cfg.deblock:
                recon = deblock_frame(recon, qp_for_frame_type(qp, plan.ftype))
            if plan.ftype in ("I", "P"):
                dpb[plan.display] = recon
            infos.append(EncodedFrameInfo(
                display=plan.display, ftype=plan.ftype,
                n_bits=writer.bit_length - bits_before,
            ))
        infos.sort(key=lambda f: f.display)
        return EncodedSegment(index=seg.index, start=seg.start,
                              n_frames=seg.n_frames, payload=writer.getvalue(),
                              frames=infos)

    def _encode_frame(
        self, writer: BitWriter, frame: YuvFrame, plan: FramePlan,
        seg_start: int, dpb: dict[int, YuvFrame], qp: int,
    ) -> YuvFrame:
        write_ue(writer, FRAME_TYPE_CODES[plan.ftype])
        write_ue(writer, plan.display - seg_start)
        qp = qp_for_frame_type(qp, plan.ftype)
        if plan.ftype == "I":
            y = encode_plane_intra(writer, frame.y, qp)
            u = encode_plane_intra(writer, frame.u, qp)
            v = encode_plane_intra(writer, frame.v, qp)
            return YuvFrame(y, u, v)
        if plan.ftype == "P":
            write_ue(writer, plan.display - plan.fwd_ref)
            return self._encode_inter(writer, frame, [dpb[plan.fwd_ref]], qp)
        # B frame
        write_ue(writer, plan.display - plan.fwd_ref)
        write_ue(writer, plan.bwd_ref - plan.display)
        return self._encode_inter(
            writer, frame, [dpb[plan.fwd_ref], dpb[plan.bwd_ref]], qp)

    def _encode_inter(
        self, writer: BitWriter, frame: YuvFrame, refs: list[YuvFrame], qp: int,
    ) -> YuvFrame:
        """Motion-compensated coding against one (P) or two (B) references.

        Macroblocks of an inter frame depend on the references only, never
        on each other, so the whole frame is searched and predicted at
        once, and the residual is transformed, written and reconstructed a
        band of macroblocks at a time — all through the routines the
        decoder uses.
        """
        height, width = frame.size
        half_pel = self.config.half_pel
        modes, mvs, _ = search_frame(frame.y, [ref.y for ref in refs],
                                     self.config.search_range, half_pel)
        # A refined vector whose chroma compensation would leave the frame
        # (a rare alignment corner) falls back to its integer-pel part.
        mvs[vectors_leave_frame(height, width, modes, mvs, half_pel)] &= ~1

        prediction = _predict_inside(refs, modes, mvs, half_pel)
        rows, cols = height // MB, width // MB
        original = [to_blocks(plane, size).reshape(-1, size, size)
                    for plane, size in zip((frame.y, frame.u, frame.v),
                                           (MB, MB // 2, MB // 2))]
        headers = zip(modes.tolist(), mvs.tolist())
        for start in range(0, rows * cols, _BAND):
            band = slice(start, start + _BAND)
            predicted = tuple(plane[band] for plane in prediction)
            levels = quantize(forward_dct(macroblock_blocks(*(
                orig[band] - pred
                for orig, pred in zip(original, predicted)))), qp)
            for blocks in levels:
                mode, vectors = next(headers)
                if len(refs) == 2:
                    write_ue(writer, mode)  # 0 = fwd, 1 = bwd, 2 = bi
                for dy, dx in vectors[:2 if mode == 2 else 1]:
                    write_se(writer, dy)
                    write_se(writer, dx)
                skip = not blocks.any()
                writer.write_bit(1 if skip else 0)
                if not skip:
                    for block in blocks:
                        encode_coeff_block(writer, block)
            levels = levels.reshape(-1, BLOCK * BLOCK)
            coded = np.flatnonzero(levels.any(axis=1))
            add_residual(predicted, coded, levels[coded], qp)
        return YuvFrame(*(
            blocks_to_plane(plane.reshape(rows, cols, *plane.shape[1:]))
            for plane in prediction))
