"""Composite blocks: residual blocks and the EDSR upsampler.

These are the building blocks of EDSR (Lim et al., CVPRW 2017), which dcSR
uses for all its SR models (Section 3.1.3 of the paper).  EDSR residual
blocks drop batch-norm and scale the residual branch before the skip add.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .layers import Conv2d, Layer, PixelShuffle, ReLU, Scale, Sequential
from .tensor import Parameter

__all__ = ["ResidualBlock", "Upsampler", "GlobalSkip"]


class ResidualBlock(Layer):
    """EDSR-style residual block: ``x + s * conv(relu(conv(x)))``."""

    def __init__(
        self, channels: int, kernel_size: int = 3, res_scale: float = 1.0,
        rng: np.random.Generator | None = None, name: str = "resblock",
    ):
        self.body = Sequential(
            Conv2d(channels, channels, kernel_size, rng=rng, name=f"{name}.conv1"),
            ReLU(),
            Conv2d(channels, channels, kernel_size, rng=rng, name=f"{name}.conv2"),
            Scale(res_scale),
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x + self.body.forward(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out + self.body.backward(grad_out)

    def parameters(self) -> Iterator[Parameter]:
        return self.body.parameters()


class Upsampler(Layer):
    """Sub-pixel upsampler: conv to ``C * r^2`` channels then pixel shuffle.

    Scales that are powers of two are built as a chain of x2 stages (as in
    the original EDSR); scale 3 is a single stage.
    """

    def __init__(
        self, channels: int, scale: int,
        rng: np.random.Generator | None = None, name: str = "upsampler",
    ):
        stages: list[Layer] = []
        if scale == 1:
            pass
        elif scale & (scale - 1) == 0:  # power of two
            n_stages = int(np.log2(scale))
            for i in range(n_stages):
                stages.append(Conv2d(channels, channels * 4, 3, rng=rng,
                                     name=f"{name}.conv{i}"))
                stages.append(PixelShuffle(2))
        elif scale == 3:
            stages.append(Conv2d(channels, channels * 9, 3, rng=rng,
                                 name=f"{name}.conv0"))
            stages.append(PixelShuffle(3))
        else:
            raise ValueError(f"unsupported upsampling scale {scale}")
        self.body = Sequential(*stages)
        self.scale = scale

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.body.forward(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return self.body.backward(grad_out)

    def parameters(self) -> Iterator[Parameter]:
        return self.body.parameters()


class GlobalSkip(Layer):
    """Wrap a body with the EDSR global skip: ``body(x) + x``."""

    def __init__(self, body: Layer):
        self.inner = body

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x + self.inner.forward(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out + self.inner.backward(grad_out)

    def parameters(self) -> Iterator[Parameter]:
        return self.inner.parameters()
