"""Super-resolution: EDSR models, training, configurations, and the
minimum-working-model search."""

from .configs import (
    DCSR_CONFIGS,
    MICRO_TIERS,
    QUALITY_BIG_CONFIG,
    QUALITY_MICRO_GRID,
    RESOLUTIONS,
    TABLE1_FILTERS,
    TABLE1_RESBLOCKS,
    TIER_NAMES,
    Resolution,
    big_model_config,
    dcsr_config,
    micro_tier_config,
)
from .edsr import EDSR, EdsrConfig
from .engine import (ENGINE_KERNELS, EngineStats, InferenceEngine,
                     TileReuseCache, receptive_field_radius)
from .quantize import QUANT_PRECISIONS, CalibrationResult, calibrate_quantized
from .min_model import (
    MinModelSearch,
    config_grid,
    find_minimum_working_model,
    model_size_table,
)
from .patches import frames_to_nchw, sample_patch_pairs
from .trainer import (
    SrHistory,
    SrTrainConfig,
    evaluate_sr,
    train_sr,
    training_flops_estimate,
)

__all__ = [
    "EDSR",
    "EdsrConfig",
    "InferenceEngine",
    "EngineStats",
    "TileReuseCache",
    "ENGINE_KERNELS",
    "QUANT_PRECISIONS",
    "CalibrationResult",
    "calibrate_quantized",
    "receptive_field_radius",
    "DCSR_CONFIGS",
    "MICRO_TIERS",
    "TIER_NAMES",
    "micro_tier_config",
    "dcsr_config",
    "big_model_config",
    "Resolution",
    "RESOLUTIONS",
    "TABLE1_FILTERS",
    "TABLE1_RESBLOCKS",
    "QUALITY_BIG_CONFIG",
    "QUALITY_MICRO_GRID",
    "SrTrainConfig",
    "SrHistory",
    "train_sr",
    "evaluate_sr",
    "training_flops_estimate",
    "sample_patch_pairs",
    "frames_to_nchw",
    "MinModelSearch",
    "config_grid",
    "find_minimum_working_model",
    "model_size_table",
]
