"""repro.nn — a from-scratch numpy neural-network framework.

This package is the stand-in for TensorFlow in the dcSR reproduction (see
DESIGN.md): layers with explicit forward/backward passes, EDSR building
blocks, losses, optimizers, and checkpoint serialization.  Every layer's
backward pass is verified against finite differences in the test suite.
"""

from .blocks import GlobalSkip, ResidualBlock, Upsampler
from .layers import (
    Conv2d,
    Dense,
    Flatten,
    Layer,
    NearestUpsample,
    PixelShuffle,
    ReLU,
    Reshape,
    Scale,
    Sequential,
    Sigmoid,
    Tanh,
)
from .losses import kl_standard_normal, l1_loss, mse_loss, vae_loss
from .optim import Adam, Optimizer, StepLR, clip_grad_norm
from .serialize import (
    deserialize_from_bytes,
    load_model,
    load_state_dict,
    model_size_bytes,
    model_size_mb,
    quantized_size_bytes,
    save_model,
    serialize_to_bytes,
    state_dict,
)
from .tensor import Parameter

__all__ = [
    "Parameter",
    "Layer",
    "Conv2d",
    "Dense",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "Flatten",
    "Reshape",
    "PixelShuffle",
    "NearestUpsample",
    "Scale",
    "Sequential",
    "ResidualBlock",
    "Upsampler",
    "GlobalSkip",
    "mse_loss",
    "l1_loss",
    "kl_standard_normal",
    "vae_loss",
    "Optimizer",
    "Adam",
    "StepLR",
    "clip_grad_norm",
    "state_dict",
    "load_state_dict",
    "save_model",
    "load_model",
    "model_size_bytes",
    "model_size_mb",
    "quantized_size_bytes",
    "serialize_to_bytes",
    "deserialize_from_bytes",
]
