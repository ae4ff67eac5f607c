"""Canonical model configurations.

- ``DCSR_CONFIGS`` — the three dcSR deployments of Section 4: dcSR-1/2/3
  use 4 / 12 / 16 ResBlocks with 16 convolution filters each.
- ``big_model_config`` — the NAS/NEMO-style single big model; its size
  grows with the target resolution (Figure 1(b)).
- ``TABLE1_FILTERS`` / ``TABLE1_RESBLOCKS`` — the configuration grid of
  Table 1.
- ``RESOLUTIONS`` — the display resolutions of the FPS experiments,
  with the paper's SR scale factors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .edsr import EdsrConfig

__all__ = [
    "DCSR_CONFIGS",
    "dcsr_config",
    "big_model_config",
    "TABLE1_FILTERS",
    "TABLE1_RESBLOCKS",
    "Resolution",
    "RESOLUTIONS",
    "QUALITY_BIG_CONFIG",
    "QUALITY_MICRO_GRID",
    "MICRO_TIERS",
    "TIER_NAMES",
    "micro_tier_config",
]

#: dcSR-1/2/3 (Section 4): ResBlock counts 4/12/16 with 16 filters.
DCSR_CONFIGS: dict[str, EdsrConfig] = {
    "dcSR-1": EdsrConfig(n_resblocks=4, n_filters=16),
    "dcSR-2": EdsrConfig(n_resblocks=12, n_filters=16),
    "dcSR-3": EdsrConfig(n_resblocks=16, n_filters=16),
}


def dcsr_config(level: int, scale: int = 1) -> EdsrConfig:
    """dcSR configuration by complexity level (1-3)."""
    base = DCSR_CONFIGS.get(f"dcSR-{level}")
    if base is None:
        raise ValueError(f"dcSR level must be 1-3, got {level}")
    return EdsrConfig(n_resblocks=base.n_resblocks, n_filters=base.n_filters,
                      scale=scale)


#: dcSR-1/2/3-style micro-model *tiers* at reproduction scale.  The paper
#: ships one deployment per complexity level; the joint ABR x SR controller
#: instead lets a client pick the tier per segment against its power budget,
#: so the server trains (and the manifest records) every tier per cluster.
#: Filters/blocks grow monotonically, so size, FLOPs, and — on a trained
#: corpus — quality uplift order the same way.
MICRO_TIERS: dict[str, EdsrConfig] = {
    "dcSR-1": EdsrConfig(n_resblocks=1, n_filters=6),
    "dcSR-2": EdsrConfig(n_resblocks=2, n_filters=8),
    "dcSR-3": EdsrConfig(n_resblocks=4, n_filters=12),
}

#: Tier names in ascending capacity order (the knapsack walk order).
TIER_NAMES: tuple[str, ...] = tuple(MICRO_TIERS)


def micro_tier_config(tier: str) -> EdsrConfig:
    """The x1 :class:`EdsrConfig` of one named micro tier."""
    base = MICRO_TIERS.get(tier)
    if base is None:
        raise ValueError(
            f"unknown micro tier {tier!r}; choose from {TIER_NAMES}")
    return EdsrConfig(n_resblocks=base.n_resblocks, n_filters=base.n_filters)


@dataclass(frozen=True)
class Resolution:
    """A display resolution with the SR scale the paper's systems use."""

    name: str
    width: int
    height: int
    sr_scale: int
    fps: float = 30.0

    @property
    def pixels(self) -> int:
        return self.width * self.height


RESOLUTIONS: dict[str, Resolution] = {
    "720p": Resolution("720p", 1280, 720, sr_scale=2),
    "1080p": Resolution("1080p", 1920, 1080, sr_scale=2),
    "4k": Resolution("4k", 3840, 2160, sr_scale=4),
}


def big_model_config(resolution: str) -> EdsrConfig:
    """The NAS-like big model for a resolution.

    NAS trains deeper/wider models for higher target resolutions; the sizes
    follow Figure 1(b)'s growth from a few MB at 720p to ~15+ MB at 4K.
    """
    res = RESOLUTIONS.get(resolution.lower())
    if res is None:
        raise ValueError(
            f"unknown resolution {resolution!r}; choose from {sorted(RESOLUTIONS)}")
    bodies = {
        "720p": (16, 48),
        "1080p": (32, 48),
        "4k": (32, 64),
    }
    n_rb, n_f = bodies[res.name]
    return EdsrConfig(n_resblocks=n_rb, n_filters=n_f, scale=res.sr_scale,
                      res_scale=0.1)


#: Table 1 axes (the appendix configuration grid).
TABLE1_FILTERS = (4, 8, 12, 16, 20)
TABLE1_RESBLOCKS = (4, 8, 16, 32, 64)

#: Scaled-down model pair for the quality experiments, which run actual
#: numpy training on small frames (see DESIGN.md section 5): the big model
#: is what NAS/NEMO would train per video; the micro grid is what the
#: minimum-working-model search walks (ascending size).
QUALITY_BIG_CONFIG = EdsrConfig(n_resblocks=6, n_filters=16)
QUALITY_MICRO_GRID = (
    EdsrConfig(n_resblocks=1, n_filters=6),
    EdsrConfig(n_resblocks=2, n_filters=8),
    EdsrConfig(n_resblocks=2, n_filters=12),
    EdsrConfig(n_resblocks=4, n_filters=12),
    EdsrConfig(n_resblocks=4, n_filters=16),
    EdsrConfig(n_resblocks=6, n_filters=16),
)
