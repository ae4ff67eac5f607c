"""A from-scratch H.264-like block codec (the FFMPEG stand-in).

Real bitstreams, real decoded-picture buffer, real I/P/B reference
structure — see DESIGN.md for why this substitution preserves the behaviour
dcSR depends on.
"""

from .bitstream import BitReader, BitWriter
from .decoder import (
    CorruptStreamError,
    DecodedFrame,
    DecodedVideo,
    DecodeError,
    Decoder,
    IFrameHook,
    SegmentMetadataError,
    TruncatedStreamError,
)
from .dct import BLOCK, dct_matrix, forward_dct, from_blocks, inverse_dct, to_blocks
from .encoder import (
    CodecConfig,
    EncodedFrameInfo,
    EncodedSegment,
    EncodedVideo,
    Encoder,
)
from .gop import FramePlan, plan_segment
from .motion import MB
from .quant import (
    MAX_CRF,
    dequantize,
    frequency_weights,
    qp_from_crf,
    qstep_from_qp,
    quantize,
)

__all__ = [
    "BitReader",
    "BitWriter",
    "BLOCK",
    "MB",
    "MAX_CRF",
    "dct_matrix",
    "forward_dct",
    "inverse_dct",
    "to_blocks",
    "from_blocks",
    "quantize",
    "dequantize",
    "qp_from_crf",
    "qstep_from_qp",
    "frequency_weights",
    "FramePlan",
    "plan_segment",
    "CodecConfig",
    "EncodedFrameInfo",
    "EncodedSegment",
    "EncodedVideo",
    "Encoder",
    "Decoder",
    "DecodedFrame",
    "DecodedVideo",
    "DecodeError",
    "CorruptStreamError",
    "TruncatedStreamError",
    "SegmentMetadataError",
    "IFrameHook",
]
