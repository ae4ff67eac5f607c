"""Minimum-working-model search (Appendix A.1).

Walks a configuration grid in ascending model size, training each candidate
on the video's I frames, and returns the first configuration whose SR
quality is within a tolerance of the big model's — that configuration
bounds K via Eq. (3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .configs import TABLE1_FILTERS, TABLE1_RESBLOCKS
from .edsr import EDSR, EdsrConfig
from .trainer import SrTrainConfig, evaluate_sr, train_sr

__all__ = ["model_size_table", "MinModelSearch",
           "find_minimum_working_model"]


def model_size_table() -> dict[tuple[int, int], float]:
    """Table 1: ``(n_filters, n_resblocks) -> size in MB`` of the x1
    models."""
    return {
        (f, rb): EDSR(EdsrConfig(n_resblocks=rb, n_filters=f)).size_mb()
        for f in TABLE1_FILTERS for rb in TABLE1_RESBLOCKS
    }


@dataclass
class MinModelSearch:
    """Result of the minimum-working-model search."""

    config: EdsrConfig
    psnr: float
    target_psnr: float
    evaluated: list[tuple[EdsrConfig, float]] = field(default_factory=list)

    @property
    def size_bytes(self) -> int:
        return EDSR(self.config).size_bytes()


def find_minimum_working_model(
    lr_frames: np.ndarray, hr_frames: np.ndarray, big_psnr: float,
    grid: list[EdsrConfig], tolerance_db: float = 1.0,
    train_config: SrTrainConfig | None = None,
) -> MinModelSearch:
    """Find the smallest configuration within ``tolerance_db`` of the big
    model's PSNR on the same frames.

    ``grid`` must be sorted ascending by size.
    Falls back to the best-scoring candidate if none reaches the target
    (the paper then deploys K = 1).
    """
    if not grid:
        raise ValueError("configuration grid is empty")
    target = big_psnr - tolerance_db
    evaluated: list[tuple[EdsrConfig, float]] = []
    best: tuple[EdsrConfig, float] | None = None
    for config in grid:
        model = EDSR(config)
        train_sr(model, lr_frames, hr_frames, train_config)
        score = evaluate_sr(model, lr_frames, hr_frames)["psnr"]
        evaluated.append((config, score))
        if best is None or score > best[1]:
            best = (config, score)
        if score >= target:
            return MinModelSearch(config=config, psnr=score,
                                  target_psnr=target, evaluated=evaluated)
    return MinModelSearch(config=best[0], psnr=best[1], target_psnr=target,
                          evaluated=evaluated)
