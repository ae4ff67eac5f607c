"""Video manifest: the metadata a dcSR server publishes alongside a video.

Maps every segment to its micro-model label (the ``HashMap_L`` of
Algorithm 1) and records model sizes for bandwidth accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SegmentRecord", "QuantizationRecord", "ModelTierRecord",
           "VideoManifest"]


@dataclass(frozen=True)
class SegmentRecord:
    """One segment's entry in the manifest."""

    index: int
    start: int
    n_frames: int
    model_label: int

    @property
    def end(self) -> int:
        return self.start + self.n_frames


@dataclass(frozen=True)
class QuantizationRecord:
    """One model's calibration result for one reduced precision.

    Produced by the build-time calibration pass
    (:func:`repro.sr.quantize.calibrate_quantized`): ``size_bytes`` is what
    a client downloading the quantized checkpoint transfers, and
    ``delta_db`` is the measured PSNR cost on the model's own calibration
    I-frames — ``PSNR(fp32 output) - PSNR(quantized output)`` against the
    pristine reference, so positive means the quantized model is worse.
    Scales themselves are *not* shipped: they derive deterministically
    from the fp32 weights (``Conv2d.packed(precision)``), so a client that
    downloaded the quantized checkpoint reconstructs identical kernels.
    """

    precision: str
    size_bytes: int
    delta_db: float

    def __post_init__(self):
        if self.size_bytes <= 0:
            raise ValueError("size_bytes must be positive")


@dataclass(frozen=True)
class ModelTierRecord(QuantizationRecord):
    """One (model label, tier, precision) calibration entry.

    Extends :class:`QuantizationRecord` — the inherited ``size_bytes`` is
    what a client downloading this tier at this precision transfers, and
    ``delta_db`` is the quantization PSNR *cost* of the reduced precision
    (0 for fp32) — with the tier identity, its architecture, and
    ``gain_db``: the calibrated PSNR *uplift* of the fp32 tier model over
    the plain decode on the cluster's own I-frames.  A controller scores
    the tier at a precision as ``gain_db - delta_db``.
    """

    tier: str = ""
    n_resblocks: int = 0
    n_filters: int = 0
    gain_db: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not self.tier:
            raise ValueError("tier name must be non-empty")

    @property
    def net_gain_db(self) -> float:
        """Calibrated uplift net of the precision's quantization cost."""
        return self.gain_db - self.delta_db


@dataclass
class VideoManifest:
    """Everything a client needs to stream a dcSR-prepared video."""

    video_name: str
    width: int
    height: int
    fps: float
    crf: int
    segments: list[SegmentRecord] = field(default_factory=list)
    model_sizes: dict[int, int] = field(default_factory=dict)  # label -> bytes
    #: label -> precision -> calibration record for the quantized variants
    #: the server published (empty for packages built without calibration).
    quantization: dict[int, dict[str, QuantizationRecord]] = \
        field(default_factory=dict)
    #: label -> tier name -> precision -> per-tier record (empty for
    #: packages built without tier training; ``"fp32"`` is always present
    #: for a published tier).  The joint controller reads this table.
    tiers: dict[int, dict[str, dict[str, ModelTierRecord]]] = \
        field(default_factory=dict)
    #: Whether enhanced I frames are written back into the DPB so P/B frames
    #: inherit the enhancement.  The server validates this per video (on
    #: high-motion content, motion-misplaced enhancement detail can hurt
    #: dependent frames; the fallback enhances I frames for display only).
    enhance_in_loop: bool = True

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Check internal consistency (raises ``ValueError``)."""
        labels_used = {s.model_label for s in self.segments}
        missing = labels_used - set(self.model_sizes)
        if missing:
            raise ValueError(f"segments reference unknown model labels {missing}")
        expected_start = 0
        for position, seg in enumerate(self.segments):
            if seg.index != position:
                raise ValueError(
                    f"segment record {position} has index {seg.index}; "
                    f"indices must run 0..{len(self.segments) - 1} in order")
            if seg.n_frames < 1:
                raise ValueError(f"segment {seg.index} has {seg.n_frames} "
                                 f"frames")
            if seg.start != expected_start:
                raise ValueError(
                    f"segment {seg.index} starts at {seg.start}, expected "
                    f"{expected_start}")
            expected_start = seg.end
        bad = set(self.quantization) - set(self.model_sizes)
        if bad:
            raise ValueError(
                f"quantization records reference unknown model labels {bad}")
        for label, records in self.quantization.items():
            for precision, record in records.items():
                if record.precision != precision:
                    raise ValueError(
                        f"quantization record for model {label} keyed "
                        f"{precision!r} but carries {record.precision!r}")
        bad = set(self.tiers) - set(self.model_sizes)
        if bad:
            raise ValueError(
                f"tier records reference unknown model labels {bad}")
        for label, by_tier in self.tiers.items():
            for tier, records in by_tier.items():
                if "fp32" not in records:
                    raise ValueError(
                        f"tier {tier!r} of model {label} lacks an fp32 "
                        f"record")
                for precision, record in records.items():
                    if record.tier != tier:
                        raise ValueError(
                            f"tier record for model {label} keyed {tier!r} "
                            f"but carries {record.tier!r}")
                    if record.precision != precision:
                        raise ValueError(
                            f"tier record for model {label}/{tier} keyed "
                            f"{precision!r} but carries "
                            f"{record.precision!r}")

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    @property
    def n_models(self) -> int:
        return len(self.model_sizes)

    @property
    def n_frames(self) -> int:
        return sum(s.n_frames for s in self.segments)

    @property
    def total_model_bytes(self) -> int:
        """Bytes of all micro models (each downloaded at most once)."""
        return sum(self.model_sizes.values())

    def model_size_for(self, label: int, precision: str = "fp32") -> int:
        """Download bytes for ``label`` at ``precision``.

        Falls back to the fp32 size when the server published no quantized
        variant for that precision — the client then downloads the full
        checkpoint, so bandwidth accounting stays honest.
        """
        if precision != "fp32":
            record = self.quantization.get(label, {}).get(precision)
            if record is not None:
                return record.size_bytes
        return self.model_sizes[label]

    @property
    def has_tiers(self) -> bool:
        return bool(self.tiers)

    def tier_names(self) -> tuple[str, ...]:
        """Published tier names, ascending by fp32 size (the order a
        knapsack controller walks them in)."""
        seen: dict[str, int] = {}
        for by_tier in self.tiers.values():
            for tier, records in by_tier.items():
                size = records["fp32"].size_bytes
                seen[tier] = max(seen.get(tier, 0), size)
        return tuple(sorted(seen, key=lambda t: (seen[t], t)))

    def tier_size_for(self, label: int, tier: str,
                      precision: str = "fp32") -> int:
        """Download bytes for ``label``'s ``tier`` model at ``precision``.

        Falls back to the tier's fp32 size when no quantized variant was
        published (mirroring :meth:`model_size_for`); raises ``KeyError``
        for an unpublished tier.
        """
        records = self.tiers.get(label, {}).get(tier)
        if records is None:
            raise KeyError(f"model {label} has no tier {tier!r}")
        record = records.get(precision)
        return (record or records["fp32"]).size_bytes

    def model_label_for(self, segment_index: int) -> int:
        for seg in self.segments:
            if seg.index == segment_index:
                return seg.model_label
        raise KeyError(f"no segment with index {segment_index}")

    def label_sequence(self) -> list[int]:
        """Model labels in playback order (the input to Algorithm 1)."""
        return [s.model_label
                for s in sorted(self.segments, key=lambda s: s.index)]
