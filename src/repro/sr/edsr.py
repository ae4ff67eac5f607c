"""EDSR super-resolution network (Lim et al., CVPRW 2017).

The architecture dcSR uses for every SR model (Section 3.1.3): a conv head,
a stack of batch-norm-free residual blocks with a global skip, and a
sub-pixel upsampler tail.  ``scale = 1`` omits the upsampler and turns the
network into the same-resolution quality-enhancement model the paper's
CRF-51 evaluation uses (the degradation there is compression, not
downscaling); ``scale > 1`` is classic resolution SR.

Model complexity is fully determined by ``n_resblocks`` and ``n_filters`` —
the two knobs of Table 1 and the dcSR-1/2/3 configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .. import nn

__all__ = ["EdsrConfig", "EDSR"]

# EDSR normalises inputs around the dataset mean; for [0, 1] content a 0.5
# shift keeps activations centred.
_PIXEL_SHIFT = 0.5


@dataclass(frozen=True)
class EdsrConfig:
    """EDSR hyper-parameters.

    ``n_resblocks`` and ``n_filters`` control capacity (Table 1);
    ``res_scale`` stabilises very deep stacks (the original paper uses 0.1
    for its largest models).  Frames are RGB: three channels in and out.
    """

    n_resblocks: int = 4
    n_filters: int = 16
    scale: int = 1
    res_scale: float = 1.0
    kernel_size: int = 3

    def __post_init__(self):
        if self.n_resblocks < 1 or self.n_filters < 1:
            raise ValueError("n_resblocks and n_filters must be >= 1")
        if self.scale < 1:
            raise ValueError("scale must be >= 1")
        if self.kernel_size % 2 == 0:
            raise ValueError("kernel_size must be odd")

    @property
    def label(self) -> str:
        return (f"edsr-rb{self.n_resblocks}-f{self.n_filters}"
                f"-x{self.scale}")


class EDSR(nn.Layer):
    """The EDSR network as a composable :class:`~repro.nn.layers.Layer`.

    ``forward``/``backward`` are the training pass over NCHW batches.
    Frames are enhanced by :class:`~repro.sr.InferenceEngine`, built once
    per model and reused across frames.
    """

    def __init__(self, config: EdsrConfig | None = None, seed: int = 0):
        self.config = config or EdsrConfig()
        cfg = self.config
        rng = np.random.default_rng(seed)

        self.head = nn.Conv2d(3, cfg.n_filters, cfg.kernel_size,
                              rng=rng, name="head")
        body_layers: list[nn.Layer] = [
            nn.ResidualBlock(cfg.n_filters, cfg.kernel_size,
                             res_scale=cfg.res_scale, rng=rng,
                             name=f"body.rb{i}")
            for i in range(cfg.n_resblocks)
        ]
        body_layers.append(nn.Conv2d(cfg.n_filters, cfg.n_filters,
                                     cfg.kernel_size, rng=rng,
                                     name="body.tailconv"))
        self.body = nn.GlobalSkip(nn.Sequential(*body_layers))
        self.tail = nn.Sequential(
            nn.Upsampler(cfg.n_filters, cfg.scale, rng=rng, name="tail.up"),
            nn.Conv2d(cfg.n_filters, 3, cfg.kernel_size,
                      rng=rng, name="tail.out"),
        )

    # ----------------------------------------------------------- Layer API

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = x - _PIXEL_SHIFT
        x = self.head.forward(x)
        x = self.body.forward(x)
        x = self.tail.forward(x)
        return x + _PIXEL_SHIFT

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad = self.tail.backward(grad_out)
        grad = self.body.backward(grad)
        return self.head.backward(grad)

    def parameters(self) -> Iterator[nn.Parameter]:
        yield from self.head.parameters()
        yield from self.body.parameters()
        yield from self.tail.parameters()

    # ------------------------------------------------------------- helpers

    @property
    def scale(self) -> int:
        return self.config.scale

    def size_bytes(self) -> int:
        """Download size (what the client fetches alongside the video)."""
        return nn.model_size_bytes(self)

    def size_mb(self) -> float:
        return nn.model_size_mb(self)
