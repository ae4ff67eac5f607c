"""Video substrate: frames, color, synthetic content, metrics, segmentation,
and the block codec."""

from .color import (
    rgb_float_to_uint8,
    rgb_to_yuv420,
    rgb_uint8_to_float,
    yuv420_to_rgb,
)
from .frame import FrameType, YuvFrame, validate_rgb
from .quality import ms_ssim, mse, psnr, psnr_yuv, ssim, ssim_luma
from .sampling import downscale, resize, resize_multi, upscale
from .segment import (
    Segment,
    detect_segments,
    fixed_length_segments,
    frame_difference,
    segment_lengths,
)
from .synthetic import GENRES, SceneSpec, VideoClip, make_scene, make_video

__all__ = [
    "YuvFrame",
    "FrameType",
    "validate_rgb",
    "rgb_to_yuv420",
    "yuv420_to_rgb",
    "rgb_float_to_uint8",
    "rgb_uint8_to_float",
    "psnr",
    "ssim",
    "ms_ssim",
    "psnr_yuv",
    "ssim_luma",
    "mse",
    "resize",
    "resize_multi",
    "downscale",
    "upscale",
    "Segment",
    "detect_segments",
    "fixed_length_segments",
    "frame_difference",
    "segment_lengths",
    "GENRES",
    "SceneSpec",
    "VideoClip",
    "make_scene",
    "make_video",
]
