"""The dcSR system: server pipeline, client decoder integration, model
caching, baselines, and streaming accounting."""

from .anchor_selection import AnchorPlan, select_anchors
from .baselines import (
    BigModelBaseline,
    play_low,
    play_nas,
    play_nemo,
    play_nemo_adaptive,
    train_big_model,
)
from .cache import CacheSession, CacheStats, ModelCache, simulate_caching
from .client import (
    PLAYBACK_STAGES,
    DcsrClient,
    FastPathConfig,
    PlaybackResult,
    PlaybackTelemetry,
    PlayedFrame,
    SegmentPlayback,
    enhance_yuv_frame,
)
from .manifest import SegmentRecord, VideoManifest
from .network import (
    DownloadError,
    DownloadStats,
    Network,
    NetworkConfig,
    RetryPolicy,
    SimulatedNetwork,
    download_with_retry,
)
from .parallel import (
    BuildTelemetry,
    ClusterTrainingError,
    ParallelConfig,
)
from .persist import StoredPackage, TrainingCache, load_package, save_package
from .server import DcsrPackage, ServerConfig, build_package, prepare_video
from .streaming import (
    BandwidthUsage,
    bandwidth_of,
    normalized_usage,
    session_goodput_bps,
    session_power,
    stall_ratio,
    startup_comparison,
    startup_delay,
)

__all__ = [
    "SegmentRecord",
    "VideoManifest",
    "CacheStats",
    "ModelCache",
    "CacheSession",
    "simulate_caching",
    "ServerConfig",
    "DcsrPackage",
    "ParallelConfig",
    "BuildTelemetry",
    "ClusterTrainingError",
    "TrainingCache",
    "StoredPackage",
    "save_package",
    "load_package",
    "build_package",
    "prepare_video",
    "DcsrClient",
    "FastPathConfig",
    "PlaybackResult",
    "PlaybackTelemetry",
    "PlayedFrame",
    "SegmentPlayback",
    "PLAYBACK_STAGES",
    "NetworkConfig",
    "Network",
    "SimulatedNetwork",
    "DownloadError",
    "DownloadStats",
    "RetryPolicy",
    "download_with_retry",
    "enhance_yuv_frame",
    "BigModelBaseline",
    "train_big_model",
    "play_nas",
    "play_nemo",
    "play_nemo_adaptive",
    "play_low",
    "AnchorPlan",
    "select_anchors",
    "BandwidthUsage",
    "bandwidth_of",
    "normalized_usage",
    "session_power",
    "session_goodput_bps",
    "stall_ratio",
    "startup_delay",
    "startup_comparison",
]
