"""Layer library.

Every layer implements:

- ``forward(x, training=True)`` — compute the output.  With
  ``training=True`` (the default) it caches whatever the backward pass
  needs on ``self``; with ``training=False`` (or via the ``infer``
  shorthand) it is **zero-retention**: no activations, masks, or packed
  inputs are kept alive, so inference holds no training state.
- ``backward(grad_out)`` — accumulate parameter gradients and return the
  gradient with respect to the layer input;
- ``parameters()`` — yield the layer's :class:`~repro.nn.tensor.Parameter`
  objects.

Layers are single-use per step: ``backward`` must follow the matching
``forward(x, training=True)``.  ``Sequential`` composes layers into
networks.  ``Conv2d`` additionally routes inference through the packed
im2col GEMM kernel (:func:`repro.nn.functional.conv2d_gemm`), which is
bitwise-equal to the reference ``conv2d_forward``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import functional as F
from . import init as winit
from .tensor import Parameter

__all__ = [
    "Layer",
    "Identity",
    "Conv2d",
    "Dense",
    "ReLU",
    "LeakyReLU",
    "Sigmoid",
    "Tanh",
    "Flatten",
    "Reshape",
    "PixelShuffle",
    "NearestUpsample",
    "AvgPool2d",
    "Scale",
    "Sequential",
]


class Layer:
    """Base class for all layers."""

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        raise NotImplementedError

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Zero-retention forward: no state is cached for a backward pass."""
        return self.forward(x, training=False)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> Iterator[Parameter]:
        return iter(())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def __call__(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        return self.forward(x, training=training)


class Identity(Layer):
    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out


class Conv2d(Layer):
    """2-D convolution over NCHW tensors.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts.
    kernel_size:
        Square kernel side.
    stride, padding:
        Usual convolution hyper-parameters.  ``padding='same'`` keeps the
        spatial size for stride 1 and odd kernels.
    rng:
        Generator used for He-normal weight init.
    """

    def __init__(
        self, in_channels: int, out_channels: int, kernel_size: int,
        stride: int = 1, padding: int | str = "same",
        rng: np.random.Generator | None = None, bias: bool = True,
        name: str = "conv",
    ):
        rng = rng if rng is not None else np.random.default_rng(0)
        if padding == "same":
            if kernel_size % 2 == 0:
                raise ValueError("padding='same' requires an odd kernel size")
            padding = kernel_size // 2
        self.stride = int(stride)
        self.padding = int(padding)
        self.weight = Parameter(
            winit.he_normal((out_channels, in_channels, kernel_size, kernel_size), rng),
            name=f"{name}.weight",
        )
        self.bias = Parameter(winit.zeros((out_channels,)), name=f"{name}.bias") if bias else None
        self._x: np.ndarray | None = None
        self.needs_input_grad = True
        self._packed: dict[str, F.PackedConvWeight] = {}
        self._packed_key: tuple[int, int] | None = None

    def packed(self, precision: str = "fp32") -> F.PackedConvWeight:
        """The kernel pre-packed for the GEMM inference path.

        ``"fp16"``/``"int8"`` pack onto the reduced-precision grid (see
        :func:`repro.nn.functional.pack_conv_weight` — scales derive
        deterministically from the fp32 weights, so clients recompute them
        rather than downloading a second checkpoint).  Each precision is
        packed once and cached; any weight or bias update (tracked through
        :attr:`Parameter.version`) invalidates every cached precision, so
        a model that trains between inferences always infers with fresh
        taps and fresh scales.
        """
        key = (self.weight.version,
               self.bias.version if self.bias is not None else -1)
        if self._packed_key != key:
            self._packed = {}
            self._packed_key = key
        entry = self._packed.get(precision)
        if entry is None:
            bias = self.bias.data if self.bias is not None else None
            entry = self._packed[precision] = F.pack_conv_weight(
                self.weight.data, bias, precision)
        return entry

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if not training:
            return F.conv2d_gemm(x, self.packed(),
                                 stride=self.stride, padding=self.padding)
        self._x = x
        return F.conv2d_forward(
            x, self.weight.data,
            self.bias.data if self.bias is not None else None,
            stride=self.stride, padding=self.padding,
        )

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        grad_x, grad_w, grad_b = F.conv2d_backward(
            self._x, self.weight.data, grad_out,
            stride=self.stride, padding=self.padding,
            need_input_grad=self.needs_input_grad,
        )
        self.weight.accumulate(grad_w)
        if self.bias is not None:
            self.bias.accumulate(grad_b)
        self._x = None
        return grad_x if grad_x is not None else np.zeros(0, dtype=np.float32)

    def parameters(self) -> Iterator[Parameter]:
        yield self.weight
        if self.bias is not None:
            yield self.bias


class Dense(Layer):
    """Fully connected layer over ``(N, in_features)`` inputs."""

    def __init__(
        self, in_features: int, out_features: int,
        rng: np.random.Generator | None = None, name: str = "dense",
        init: str = "xavier",
    ):
        rng = rng if rng is not None else np.random.default_rng(0)
        shape = (in_features, out_features)
        data = winit.he_normal(shape, rng) if init == "he" else winit.xavier_uniform(shape, rng)
        self.weight = Parameter(data, name=f"{name}.weight")
        self.bias = Parameter(winit.zeros((out_features,)), name=f"{name}.bias")
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            self._x = x
        return x @ self.weight.data + self.bias.data

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        self.weight.accumulate(self._x.T @ grad_out)
        self.bias.accumulate(grad_out.sum(axis=0))
        grad_x = grad_out @ self.weight.data.T
        self._x = None
        return grad_x

    def parameters(self) -> Iterator[Parameter]:
        yield self.weight
        yield self.bias


class ReLU(Layer):
    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if not training:
            return np.maximum(x, 0.0)
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * self._mask


class LeakyReLU(Layer):
    def __init__(self, slope: float = 0.2):
        self.slope = float(slope)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if not training:
            return np.where(x > 0, x, self.slope * x)
        self._mask = x > 0
        return np.where(self._mask, x, self.slope * x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return np.where(self._mask, grad_out, self.slope * grad_out)


class Sigmoid(Layer):
    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        # Numerically stable logistic: exp(-|x|) <= 1 never overflows, and
        # one clip + one exp serve both branches.
        z = np.exp(-np.abs(np.clip(x, -60, 60)))
        y = np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z)).astype(np.float32)
        if training:
            self._y = y
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * self._y * (1.0 - self._y)


class Tanh(Layer):
    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        y = np.tanh(x)
        if training:
            self._y = y
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * (1.0 - self._y * self._y)


class Flatten(Layer):
    """Flatten all but the batch axis."""

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out.reshape(self._shape)


class Reshape(Layer):
    """Reshape the per-sample part of the tensor to ``shape``."""

    def __init__(self, shape: tuple):
        self.shape = tuple(shape)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            self._in_shape = x.shape
        return x.reshape((x.shape[0],) + self.shape)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out.reshape(self._in_shape)


class PixelShuffle(Layer):
    """Sub-pixel convolution rearrangement used by the EDSR upsampler."""

    def __init__(self, scale: int):
        if scale < 1:
            raise ValueError("scale must be >= 1")
        self.scale = int(scale)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        return F.pixel_shuffle(x, self.scale)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return F.pixel_unshuffle(grad_out, self.scale)


class NearestUpsample(Layer):
    """Nearest-neighbour spatial upsampling (VAE decoder)."""

    def __init__(self, scale: int):
        self.scale = int(scale)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        return F.nearest_upsample(x, self.scale)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return F.nearest_downsample_grad(grad_out, self.scale)


class AvgPool2d(Layer):
    """Non-overlapping average pooling."""

    def __init__(self, kernel: int):
        self.kernel = int(kernel)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        return F.avg_pool2d_forward(x, self.kernel)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return F.avg_pool2d_backward(grad_out, self.kernel)


class Scale(Layer):
    """Multiply by a fixed constant (EDSR residual scaling)."""

    def __init__(self, value: float):
        self.value = float(value)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        return x * self.value

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * self.value


class Sequential(Layer):
    """Compose layers; backward runs them in reverse."""

    def __init__(self, *layers: Layer):
        self.layers = list(layers)

    def append(self, layer: Layer) -> None:
        self.layers.append(layer)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def parameters(self) -> Iterator[Parameter]:
        for layer in self.layers:
            yield from layer.parameters()

    def __iter__(self):
        return iter(self.layers)

    def __len__(self):
        return len(self.layers)
