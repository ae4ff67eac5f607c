"""On-disk layout for dcSR packages.

A CDN origin would store exactly this: the manifest as JSON, each segment's
bitstream as a raw file, and each micro model as an ``.npz`` checkpoint.
``save_package`` / ``load_package`` round-trip everything a *client* needs
(server-side artifacts — VAE, features, the pristine decode — are not
shipped and are not persisted).

Layout::

    <root>/
      manifest.json
      segments/segment-0000.bin ...
      models/model-00.npz ...            (model-00-<tier>.npz for tiers)

The path helpers below are the one spelling of that layout; the HTTP
transport (:mod:`repro.net.transport`) serves and mirrors packages
through them.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .. import nn
from ..sr import EDSR, EdsrConfig, SrTrainConfig
from ..video.codec import (CodecConfig, EncodedFrameInfo, EncodedSegment,
                           EncodedVideo)
from ..video.segment import Segment
from .manifest import (ModelTierRecord, QuantizationRecord, SegmentRecord,
                       VideoManifest)

__all__ = ["StoredPackage", "TrainingCache", "save_package", "load_package",
           "MANIFEST_PATH", "segment_path", "model_path", "make_package_dirs"]

_FORMAT_VERSION = 1

#: Path of the manifest, relative to the package root (as all paths here).
MANIFEST_PATH = "manifest.json"


def segment_path(index: int) -> str:
    """Relative path of one segment bitstream."""
    return f"segments/segment-{int(index):04d}.bin"


def model_path(key: int | str, tier: str | None = None) -> str:
    """Relative path of one micro-model checkpoint.

    ``key`` is a bare label (with ``tier`` naming a tier checkpoint, the
    base model otherwise) or the client's tier key
    ``"label:tier:precision"`` — the tier checkpoint file is shared
    across precisions (quantized kernels derive deterministically from
    the fp32 weights, so no separate artifact exists to ship).
    """
    if isinstance(key, str) and ":" in key:
        key, tier, _precision = key.split(":", 2)
    suffix = f"-{tier}" if tier else ""
    return f"models/model-{int(key):02d}{suffix}.npz"


def make_package_dirs(root: str | Path) -> Path:
    """Create the (empty) directories of the layout under ``root``."""
    for path in (segment_path(0), model_path(0)):
        (Path(root) / path).parent.mkdir(parents=True, exist_ok=True)
    return Path(root)


@dataclass
class StoredPackage:
    """The client-facing subset of a package, loaded from disk.

    Duck-type compatible with :class:`~repro.core.server.DcsrPackage` for
    :class:`~repro.core.client.DcsrClient`.
    """

    manifest: VideoManifest
    encoded: EncodedVideo
    models: dict[int, EDSR]
    segments: list[Segment] = field(default_factory=list)
    #: tier name -> label -> model, for packages built with tier training.
    tier_models: dict[str, dict[int, EDSR]] = field(default_factory=dict)

    @property
    def n_models(self) -> int:
        return len(self.models)


def save_package(package, root: str | Path) -> Path:
    """Persist a package's client-facing artifacts under ``root``."""
    root = make_package_dirs(root)

    manifest = package.manifest
    meta = {
        "format_version": _FORMAT_VERSION,
        "video_name": manifest.video_name,
        "width": manifest.width,
        "height": manifest.height,
        "fps": manifest.fps,
        "crf": manifest.crf,
        "enhance_in_loop": manifest.enhance_in_loop,
        "codec": {
            "crf": package.encoded.config.crf,
            "n_b_frames": package.encoded.config.n_b_frames,
            "search_range": package.encoded.config.search_range,
            "extra_i_interval": package.encoded.config.extra_i_interval,
        },
        "segments": [asdict(s) for s in manifest.segments],
        # Per-frame accounting (display, type, coded bits) so loaded
        # packages keep i_frame_displays / bits_by_type — and so the
        # fleet's trace-mode SR-demand model can count I frames.
        "frame_info": {
            str(s.index): [[f.display, f.ftype, f.n_bits] for f in s.frames]
            for s in package.encoded.segments
        },
        "model_sizes": {str(k): v for k, v in manifest.model_sizes.items()},
        "quantization": {
            str(label): {
                precision: {"size_bytes": record.size_bytes,
                            "delta_db": record.delta_db}
                for precision, record in records.items()
            }
            for label, records in manifest.quantization.items()
        },
        "model_configs": _model_configs(package.models),
    }
    # Tier table + tier checkpoints are additive optional keys: packages
    # built without tiers keep the exact v1 layout.
    tier_models = package.tier_models
    if manifest.tiers:
        meta["tiers"] = {
            str(label): {
                tier: {
                    precision: {"size_bytes": r.size_bytes,
                                "delta_db": r.delta_db,
                                "n_resblocks": r.n_resblocks,
                                "n_filters": r.n_filters,
                                "gain_db": r.gain_db}
                    for precision, r in records.items()
                }
                for tier, records in by_tier.items()
            }
            for label, by_tier in manifest.tiers.items()
        }
    if tier_models:
        meta["tier_model_configs"] = {
            tier: _model_configs(models)
            for tier, models in tier_models.items()}
    for segment in package.encoded.segments:
        (root / segment_path(segment.index)).write_bytes(segment.payload)
    for tier, models in [(None, package.models), *tier_models.items()]:
        for label, model in models.items():
            nn.save_model(model, root / model_path(label, tier))
    # The manifest goes last and whole (temp file + rename, as in
    # TrainingCache.put): a save that fails part-way leaves no manifest
    # pointing at payloads that were never written.
    tmp = root / f".{MANIFEST_PATH}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w") as handle:
            json.dump(meta, handle, indent=2)
        tmp.replace(root / MANIFEST_PATH)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return root


def _model_configs(models: dict[int, EDSR]) -> dict[str, dict]:
    """The manifest's per-label architecture block for ``models``."""
    return {
        str(label): {
            "n_resblocks": model.config.n_resblocks,
            "n_filters": model.config.n_filters,
            "scale": model.config.scale,
            "res_scale": model.config.res_scale,
            "kernel_size": model.config.kernel_size,
        }
        for label, model in models.items()
    }


def _load_models(root: Path, configs: dict[str, dict],
                 tier: str | None = None) -> dict[int, EDSR]:
    """The checkpoints a ``_model_configs`` block describes."""
    models: dict[int, EDSR] = {}
    for label, cfg in configs.items():
        models[int(label)] = EDSR(EdsrConfig(**cfg))
        nn.load_model(models[int(label)], root / model_path(label, tier))
    return models


class TrainingCache:
    """Content-addressed store of trained micro-model checkpoints.

    The key hashes everything a cluster's training run depends on: the
    exact (LQ, HQ) I-frame pairs (so any re-encode — a CRF change, a codec
    tweak — or any cluster membership change produces a different key), the
    :class:`~repro.sr.EdsrConfig`, the :class:`~repro.sr.SrTrainConfig`,
    and the model-init seed.  Frame *order* is part of the key because the
    patch sampler consumes frames by index.  A rebuild whose clusters are
    unchanged therefore skips training entirely; a stale key can never be
    served.

    Entries are plain ``.npz`` checkpoints named by their key, written
    atomically (temp file + rename) so concurrent builders can share one
    cache directory.
    """

    KEY_VERSION = 1

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    @classmethod
    def key(
        cls, lq_frames: np.ndarray, hr_frames: np.ndarray,
        model_config: EdsrConfig, train_config: SrTrainConfig, seed: int,
    ) -> str:
        """The sha256 content address of one cluster training run."""
        digest = hashlib.sha256(f"dcsr-train-cache-v{cls.KEY_VERSION}".encode())
        for frames in (lq_frames, hr_frames):
            arr = np.ascontiguousarray(np.asarray(frames, dtype=np.float32))
            digest.update(repr(arr.shape).encode())
            digest.update(arr.tobytes())
        digest.update(repr(sorted(asdict(model_config).items())).encode())
        digest.update(repr(sorted(asdict(train_config).items())).encode())
        digest.update(str(int(seed)).encode())
        return digest.hexdigest()

    def path(self, key: str) -> Path:
        return self.root / f"{key}.npz"

    def __contains__(self, key: str) -> bool:
        return self.path(key).exists()

    @property
    def n_entries(self) -> int:
        return sum(1 for _ in self.root.glob("*.npz"))

    def get(self, key: str, config: EdsrConfig) -> EDSR | None:
        """The cached model for ``key``, or ``None`` on a miss."""
        path = self.path(key)
        if not path.exists():
            return None
        model = EDSR(config)
        nn.load_model(model, path)
        return model

    def put(self, key: str, model: EDSR) -> Path:
        """Store ``model`` under ``key`` (atomic; last writer wins)."""
        path = self.path(key)
        tmp = path.with_name(f".tmp-{os.getpid()}-{key}.npz")
        nn.save_model(model, tmp)
        tmp.replace(path)
        return path


def load_package(root: str | Path) -> StoredPackage:
    """Load a package previously written by :func:`save_package`."""
    root = Path(root)
    manifest_path = root / MANIFEST_PATH
    if not manifest_path.exists():
        raise FileNotFoundError(f"no manifest at {manifest_path}")
    with open(manifest_path) as handle:
        meta = json.load(handle)
    if meta.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported package format {meta.get('format_version')!r}")

    manifest = VideoManifest(
        video_name=meta["video_name"], width=meta["width"],
        height=meta["height"], fps=meta["fps"], crf=meta["crf"],
        segments=[SegmentRecord(**s) for s in meta["segments"]],
        model_sizes={int(k): v for k, v in meta["model_sizes"].items()},
        quantization={
            int(label): {
                precision: QuantizationRecord(precision=precision, **entry)
                for precision, entry in records.items()
            }
            for label, records in meta.get("quantization", {}).items()
        },
        tiers={
            int(label): {
                tier: {
                    precision: ModelTierRecord(precision=precision, tier=tier,
                                               **entry)
                    for precision, entry in records.items()
                }
                for tier, records in by_tier.items()
            }
            for label, by_tier in meta.get("tiers", {}).items()
        },
        enhance_in_loop=bool(meta.get("enhance_in_loop", True)),
    )

    encoded = EncodedVideo(width=meta["width"], height=meta["height"],
                           fps=meta["fps"],
                           config=CodecConfig(**meta["codec"]))
    frame_info = meta.get("frame_info", {})  # absent in older packages
    segments = []
    for record in manifest.segments:
        payload = (root / segment_path(record.index)).read_bytes()
        frames = [EncodedFrameInfo(display=d, ftype=t, n_bits=b)
                  for d, t, b in frame_info.get(str(record.index), [])]
        encoded.segments.append(EncodedSegment(
            index=record.index, start=record.start,
            n_frames=record.n_frames, payload=payload, frames=frames))
        segments.append(Segment(index=record.index, start=record.start,
                                end=record.end))

    tier_models = {
        tier: _load_models(root, configs, tier)
        for tier, configs in meta.get("tier_model_configs", {}).items()}
    return StoredPackage(manifest=manifest, encoded=encoded,
                         models=_load_models(root, meta["model_configs"]),
                         segments=segments, tier_models=tier_models)
