"""Video substrate: frames, color, synthetic content, metrics, segmentation,
and the block codec."""

from .color import (
    rgb_to_yuv420,
    yuv420_to_rgb,
)
from .frame import YuvFrame, validate_rgb
from .quality import mse, psnr, psnr_yuv, ssim
from .sampling import downscale, resize, upscale
from .segment import (
    Segment,
    detect_segments,
    fixed_length_segments,
    frame_difference,
)
from .synthetic import GENRES, SceneSpec, VideoClip, make_scene, make_video

__all__ = [
    "YuvFrame",
    "validate_rgb",
    "rgb_to_yuv420",
    "yuv420_to_rgb",
    "psnr",
    "ssim",
    "psnr_yuv",
    "mse",
    "resize",
    "downscale",
    "upscale",
    "Segment",
    "detect_segments",
    "fixed_length_segments",
    "frame_difference",
    "GENRES",
    "SceneSpec",
    "VideoClip",
    "make_scene",
    "make_video",
]
