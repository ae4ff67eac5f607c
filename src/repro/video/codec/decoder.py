"""Video decoder with a decoded-picture buffer and an I-frame enhancement hook.

A frame is decoded in three passes rather than block by block: one *parse*
of its bits into level/mode/vector arrays (every grammar check lives there;
array passes for an I frame, a walk otherwise), one batched *transform +
motion compensation* over the frame, and — for I frames — *intra prediction*
on one anti-diagonal wavefront for Y, U and V.  See docs/codec.md.

This is the integration point of client-side dcSR (Figure 6): after an I
frame is reconstructed into the DPB, an optional ``i_frame_hook`` is invoked
with the YUV frame.  The (possibly super-resolved) frame the hook returns is
stored in the DPB and used as the reference for all dependent P and B
frames, so the enhancement propagates through the GOP exactly as the paper
describes.  NEMO's "SR only on key frames" uses the same hook; NAS-style
"SR on every frame" is applied after decoding and needs no hook.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..frame import YuvFrame
from .bitstream import (BitReader, CorruptStreamError, DecodeError,
                        SegmentMetadataError, TruncatedStreamError)
from .dct import BLOCK
from .deblock import deblock_frame
from .encoder import EncodedSegment, EncodedVideo
from .motion import MB, predict_frame, vectors_leave_frame
from .quant import MAX_CRF, qp_for_frame_type
from .residual import (add_residual, blocks_to_plane,
                       parse_inter_macroblocks, parse_intra_blocks,
                       reconstruct_intra)

__all__ = [
    "DecodeError",
    "CorruptStreamError",
    "TruncatedStreamError",
    "SegmentMetadataError",
    "DecodedFrame",
    "DecodedVideo",
    "Decoder",
    "IFrameHook",
]


#: Hook signature: ``(frame, display_index) -> enhanced frame``.
IFrameHook = Callable[[YuvFrame, int], YuvFrame]

#: Anchor hook signature: ``(frame, display_index, frame_type)`` for every
#: I *and* P frame; return the enhanced frame, or ``None`` to leave it
#: untouched.  This is the NEMO-style "enhance selected anchors" interface.
AnchorHook = Callable[[YuvFrame, int, str], "YuvFrame | None"]

_TYPE_FROM_CODE = {0: "I", 1: "P", 2: "B"}


@dataclass(frozen=True)
class DecodedFrame:
    """One decoded frame with its coding metadata."""

    display: int
    ftype: str
    frame: YuvFrame
    n_bits: int


@dataclass
class DecodedVideo:
    """Decode result in display order."""

    width: int
    height: int
    fps: float
    frames: list[YuvFrame] = field(default_factory=list)
    frame_types: list[str] = field(default_factory=list)
    frame_bits: list[int] = field(default_factory=list)
    hook_invocations: int = 0

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    @property
    def i_frame_indices(self) -> list[int]:
        return [i for i, t in enumerate(self.frame_types) if t == "I"]

    @classmethod
    def in_display_order(cls, encoded: EncodedVideo,
                         decoded: Iterable[DecodedFrame]) -> "DecodedVideo":
        """Every segment's decoded frames, in any order, as one video."""
        by_display = {item.display: item for item in decoded}
        result = cls(width=encoded.width, height=encoded.height,
                     fps=encoded.fps)
        for display in sorted(by_display):
            item = by_display[display]
            result.frames.append(item.frame)
            result.frame_types.append(item.ftype)
            result.frame_bits.append(item.n_bits)
        return result


class Decoder:
    """Decode segment bitstreams produced by :class:`~.encoder.Encoder`."""

    def __init__(self, i_frame_hook: IFrameHook | None = None,
                 anchor_hook: AnchorHook | None = None,
                 hook_display_only: bool = False):
        """``hook_display_only`` keeps the *unenhanced* frame in the DPB and
        only swaps the displayed frame — the drift-free fallback a server
        selects when in-loop propagation does not pay off on a video."""
        if i_frame_hook is not None and anchor_hook is not None:
            raise ValueError(
                "pass either i_frame_hook (dcSR: I frames only) or "
                "anchor_hook (NEMO-style: any I/P anchor), not both")
        self.i_frame_hook = i_frame_hook
        self.anchor_hook = anchor_hook
        self.hook_display_only = bool(hook_display_only)
        self._hook_invocations = 0

    @property
    def hook_invocations(self) -> int:
        """Hook calls made by the most recent ``decode_segment`` (or the
        whole of the most recent ``decode_video``)."""
        return self._hook_invocations

    def decode_video(self, encoded: EncodedVideo) -> DecodedVideo:
        """Decode all segments into display order."""
        total_invocations = 0
        decoded: list[DecodedFrame] = []
        for seg in encoded.segments:
            decoded += self.decode_segment(seg, encoded.width, encoded.height)
            total_invocations += self._hook_invocations
        result = DecodedVideo.in_display_order(encoded, decoded)
        self._hook_invocations = total_invocations
        result.hook_invocations = total_invocations
        return result

    def decode_segment(
        self, segment: EncodedSegment, width: int, height: int,
    ) -> list[DecodedFrame]:
        """Decode one closed-GOP segment (frames returned in decode order).

        The hook-invocation counter is reset on entry, so a single decoder
        reused across segments (the streaming session engine does this)
        reports per-segment counts instead of accumulating stale ones.
        """
        if height % MB or width % MB:
            raise ValueError(f"frame size {(height, width)} must be multiples of {MB}")
        self._hook_invocations = 0
        reader = BitReader(segment.payload)
        try:
            return self._decode_segment_frames(reader, segment, width, height)
        except EOFError as exc:
            if isinstance(exc, DecodeError):
                raise
            raise TruncatedStreamError(
                f"segment {segment.index}: payload truncated "
                f"({segment.n_bytes} bytes)") from exc

    def _decode_segment_frames(
        self, reader: BitReader, segment: EncodedSegment,
        width: int, height: int,
    ) -> list[DecodedFrame]:
        qp = reader.read_uint(8)
        if qp > MAX_CRF:
            raise CorruptStreamError(
                f"corrupt stream: QP {qp} exceeds {MAX_CRF}")
        flags = reader.read_uint(8)
        deblock = bool(flags & 1)
        half_pel = bool(flags & 2)
        n_frames = reader.read_ue()
        if n_frames != segment.n_frames:
            raise SegmentMetadataError(
                f"segment {segment.index}: header says {n_frames} frames, "
                f"metadata says {segment.n_frames}"
            )

        dpb: dict[int, YuvFrame] = {}
        out: list[DecodedFrame] = []
        pending = set(range(segment.start, segment.start + n_frames))
        for _ in range(n_frames):
            bits_before = reader.bit_position
            display, ftype, frame = self._decode_frame(
                reader, segment.start, width, height, qp, dpb, half_pel,
                pending)
            if deblock:
                frame = deblock_frame(frame, qp_for_frame_type(qp, ftype))
            reference = frame  # what dependent P/B frames will predict from
            if ftype == "I" and self.i_frame_hook is not None:
                frame = self._apply_hook(frame, display)
            if ftype in ("I", "P") and self.anchor_hook is not None:
                enhanced = self.anchor_hook(frame, display, ftype)
                if enhanced is not None:
                    frame = self._check_enhanced(enhanced, frame)
                    self._hook_invocations += 1
            if ftype in ("I", "P"):
                dpb[display] = reference if self.hook_display_only else frame
            out.append(DecodedFrame(display=display, ftype=ftype, frame=frame,
                                    n_bits=reader.bit_position - bits_before))
        return out

    # ------------------------------------------------------------------

    def _apply_hook(self, frame: YuvFrame, display: int) -> YuvFrame:
        enhanced = self.i_frame_hook(frame, display)
        result = self._check_enhanced(enhanced, frame)
        self._hook_invocations += 1
        return result

    @staticmethod
    def _check_enhanced(enhanced, original: YuvFrame) -> YuvFrame:
        if not isinstance(enhanced, YuvFrame):
            raise TypeError("enhancement hook must return a YuvFrame")
        if enhanced.size != original.size:
            raise ValueError(
                f"enhancement hook changed frame size from {original.size} "
                f"to {enhanced.size}; in-loop enhancement must preserve size"
            )
        return enhanced

    def _decode_frame(
        self, reader: BitReader, seg_start: int, width: int, height: int,
        qp: int, dpb: dict[int, YuvFrame], half_pel: bool,
        pending: set[int],
    ) -> tuple[int, str, YuvFrame]:
        """Decode the next frame; ``pending`` holds the segment's display
        indices not decoded yet and loses this frame's."""
        read_ue = reader.read_ue
        code = read_ue()
        if code not in _TYPE_FROM_CODE:
            raise CorruptStreamError(
                f"corrupt stream: unknown frame type code {code}")
        ftype = _TYPE_FROM_CODE[code]
        display = seg_start + read_ue()
        if display not in pending:
            raise CorruptStreamError(
                f"corrupt stream: display index {display} is outside the "
                f"segment or already decoded")
        pending.remove(display)
        qp = qp_for_frame_type(qp, ftype)

        if ftype == "I":
            return display, ftype, self._decode_intra(reader, width, height, qp)
        if ftype == "P":
            fwd = display - read_ue()
            refs = [self._ref(dpb, fwd)]
        else:
            fwd = display - read_ue()
            bwd = display + read_ue()
            refs = [self._ref(dpb, fwd), self._ref(dpb, bwd)]
        frame = self._decode_inter(reader, refs, width, height, qp, half_pel)
        return display, ftype, frame

    @staticmethod
    def _ref(dpb: dict[int, YuvFrame], display: int) -> YuvFrame:
        if display not in dpb:
            raise CorruptStreamError(
                f"corrupt stream: reference frame {display} not in DPB")
        return dpb[display]

    @staticmethod
    def _decode_intra(
        reader: BitReader, width: int, height: int, qp: int,
    ) -> YuvFrame:
        """Parse all three planes, then transform and rebuild them on one
        wavefront."""
        n_luma = (height // BLOCK) * (width // BLOCK)
        parsed = parse_intra_blocks(reader, n_luma * 3 // 2)
        return YuvFrame(*reconstruct_intra(*parsed, qp, height, width))

    @staticmethod
    def _decode_inter(
        reader: BitReader, refs: list[YuvFrame], width: int, height: int,
        qp: int, half_pel: bool,
    ) -> YuvFrame:
        """Parse every macroblock, predict the whole frame, add the coded
        blocks' residual into the prediction, then assemble the planes."""
        rows, cols = height // MB, width // MB
        modes, mvs, coded, levels = parse_inter_macroblocks(
            reader, rows * cols, bidirectional=len(refs) == 2)
        leaving = vectors_leave_frame(height, width, modes, mvs, half_pel)
        if leaving.any():
            k = int(leaving.argmax())
            raise CorruptStreamError(
                f"corrupt stream: motion vectors {mvs[k].tolist()} of "
                f"macroblock {k} leave the reference frame")
        prediction = predict_frame(refs, modes, mvs, half_pel)
        add_residual(prediction, coded, levels, qp)
        return YuvFrame(*(
            blocks_to_plane(plane.reshape(rows, cols, *plane.shape[1:]))
            for plane in prediction))
