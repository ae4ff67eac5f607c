"""Model serialization and size accounting.

Model size drives two of the paper's results: Table 1 (the micro-model
configuration grid) and Figure 1(b) (big-model size vs. resolution), and it
is the quantity transferred over the network in the bandwidth experiments
(Figure 10).  ``model_size_bytes`` therefore counts exactly what a client
would download: every float32 parameter plus a small per-tensor container
overhead, mirroring real serialized checkpoints.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Mapping

import numpy as np

from .layers import Layer

__all__ = [
    "state_dict",
    "load_state_dict",
    "save_model",
    "load_model",
    "model_size_bytes",
    "model_size_mb",
    "quantized_size_bytes",
    "serialize_to_bytes",
    "deserialize_from_bytes",
    "PER_TENSOR_OVERHEAD_BYTES",
]

# Approximate container overhead (name, dtype, shape header) per stored
# tensor, comparable to npz/TF-checkpoint metadata.
PER_TENSOR_OVERHEAD_BYTES = 128


def state_dict(model: Layer) -> dict[str, np.ndarray]:
    """Collect parameters into an ordered ``{key: array}`` mapping.

    Keys combine the enumeration index with the parameter's human name so
    they are unique and stable for a fixed architecture.
    """
    out: dict[str, np.ndarray] = {}
    for i, p in enumerate(model.parameters()):
        out[f"{i:04d}:{p.name}"] = p.data.copy()
    return out


def load_state_dict(model: Layer, state: Mapping[str, np.ndarray]) -> None:
    """Assign ``state`` back into ``model`` (strict: counts and shapes match)."""
    params = list(model.parameters())
    if len(params) != len(state):
        raise ValueError(
            f"state has {len(state)} tensors, model expects {len(params)}"
        )
    for key in sorted(state):
        idx = int(key.split(":", 1)[0])
        value = np.asarray(state[key], dtype=np.float32)
        if params[idx].data.shape != value.shape:
            raise ValueError(
                f"shape mismatch for {key}: model {params[idx].data.shape}, "
                f"state {value.shape}"
            )
        params[idx].data = value.copy()


def save_model(model: Layer, path: str | Path) -> int:
    """Serialize ``model`` to an ``.npz`` file; returns bytes written."""
    path = Path(path)
    np.savez(path, **state_dict(model))
    return path.stat().st_size


def load_model(model: Layer, path: str | Path) -> None:
    """Load an ``.npz`` checkpoint produced by :func:`save_model`."""
    with np.load(Path(path)) as data:
        load_state_dict(model, dict(data))


def serialize_to_bytes(model: Layer) -> bytes:
    """Serialize to an in-memory npz blob (used by the streaming simulator)."""
    buf = io.BytesIO()
    np.savez(buf, **state_dict(model))
    return buf.getvalue()


def deserialize_from_bytes(model: Layer, blob: bytes) -> None:
    with np.load(io.BytesIO(blob)) as data:
        load_state_dict(model, dict(data))


def model_size_bytes(model: Layer) -> int:
    """Download size of a model: parameter payload + container overhead."""
    n_tensors = 0
    payload = 0
    for p in model.parameters():
        n_tensors += 1
        payload += p.nbytes
    return payload + n_tensors * PER_TENSOR_OVERHEAD_BYTES


def model_size_mb(model: Layer) -> float:
    return model_size_bytes(model) / (1024.0 * 1024.0)


def quantized_size_bytes(model: Layer, precision: str) -> int:
    """Download size of a ``precision``-quantized checkpoint.

    Mirrors what a quantized serialization would ship: fp16 stores every
    parameter at 2 bytes; int8 stores weight tensors as 1-byte codes plus
    float32 per-output-channel scales (axis 0, matching
    :func:`repro.nn.functional.pack_conv_weight`, which packs what these
    bytes reconstruct) while biases and other 1-D tensors stay float32.  Container overhead per tensor is the
    same as :func:`model_size_bytes`.
    """
    if precision == "fp32":
        return model_size_bytes(model)
    if precision not in ("fp16", "int8"):
        raise ValueError(f"unknown precision {precision!r}")
    n_tensors = 0
    payload = 0
    for p in model.parameters():
        n_tensors += 1
        if precision == "fp16":
            payload += 2 * p.size
        elif p.data.ndim >= 2:
            payload += p.size + 4 * p.data.shape[0]
        else:
            payload += 4 * p.size
    return payload + n_tensors * PER_TENSOR_OVERHEAD_BYTES
