"""What a reduced-precision checkpoint ships, and what a client rebuilds
from it.

``nn.quantized_size_bytes`` prices an ``fp16`` checkpoint at 2 bytes for
every parameter, and an ``int8`` one at a 1-byte code per weight plus a
float32 scale per output channel, with biases (every tensor below 2-D) in
float32.  :func:`checkpoint` builds exactly those tensors, independently
of ``pack_conv_weight``, and :func:`reconstruct` turns them back into the
float32 weights a client runs, so the tests can hold the engine's packs
to the bytes a session downloads.
"""

import numpy as np

from repro import nn


def checkpoint(model, precision: str) -> dict[str, tuple[np.ndarray, ...]]:
    """``{state_dict key: shipped arrays}`` of a ``precision`` checkpoint:
    one array per tensor, or ``(codes, scales)`` for an int8 weight."""
    shipped = {}
    for key, value in nn.state_dict(model).items():
        if precision == "fp16":
            shipped[key] = (value.astype(np.float16),)
        elif precision == "int8" and value.ndim >= 2:
            amax = np.abs(value).reshape(len(value), -1).max(axis=1)
            scales = np.where(amax > 0.0, amax / 127.0, 1.0).astype(
                np.float32)
            per_channel = scales.reshape((-1,) + (1,) * (value.ndim - 1))
            codes = np.clip(np.rint(value / per_channel), -127.0, 127.0)
            shipped[key] = (codes.astype(np.int8), scales)
        else:
            shipped[key] = (value.astype(np.float32),)
    return shipped


def payload_bytes(shipped: dict) -> int:
    return sum(array.nbytes for arrays in shipped.values()
               for array in arrays)


def reconstruct(shipped: dict) -> dict[str, np.ndarray]:
    """The float32 state a client rebuilds from :func:`checkpoint`."""
    state = {}
    for key, arrays in shipped.items():
        if len(arrays) == 2:
            codes, scales = arrays
            per_channel = scales.reshape((-1,) + (1,) * (codes.ndim - 1))
            state[key] = codes.astype(np.float32) * per_channel
        else:
            state[key] = arrays[0].astype(np.float32)
    return state


def dequantized_copy(model, precision: str):
    """A copy of ``model`` holding the weights its ``precision``
    checkpoint reconstructs."""
    copy = type(model)(model.config)
    nn.load_state_dict(copy, reconstruct(checkpoint(model, precision)))
    return copy
