"""Per-layer FLOPs and activation accounting for ``repro.nn`` models.

A static tracer walks a layer graph with a symbolic input shape and sums
multiply-add costs.  This is what turns an actual model architecture into
the inference-latency and memory numbers of the device model (Figures 1(a),
8, 12) — the FLOPs are exact for the architecture, only the device
throughput is calibrated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import nn

__all__ = ["ModelProfile", "trace_model", "model_forward_flops"]


@dataclass(frozen=True)
class ModelProfile:
    """Static cost profile of one forward pass."""

    flops: float                 # total floating-point operations
    param_bytes: int             # float32 parameter payload
    largest_activation_bytes: int
    n_activations: int           # number of intermediate tensors produced
    output_shape: tuple          # (C, H, W) or (features,)

    def activation_working_set(self, retained_maps: float = 2.5) -> int:
        """Approximate runtime activation memory.

        Inference frameworks retain a window of intermediate maps (graph
        buffers, skip connections, double buffering); ``retained_maps``
        scales the largest map to a working set.
        """
        return int(self.largest_activation_bytes * retained_maps)

    def total_memory_bytes(self, retained_maps: float = 2.5) -> int:
        return self.param_bytes + self.activation_working_set(retained_maps)


def _shape_size(shape: tuple) -> int:
    size = 1
    for s in shape:
        size *= s
    return size


def _trace(layer: nn.Layer, shape: tuple, acc: dict) -> tuple:
    """Advance ``shape`` through ``layer``, accumulating costs into ``acc``."""
    if isinstance(layer, nn.Sequential):
        for sub in layer:
            shape = _trace(sub, shape, acc)
        return shape
    if isinstance(layer, nn.ResidualBlock):
        inner_shape = _trace(layer.body, shape, acc)
        acc["flops"] += _shape_size(inner_shape)  # the skip add
        return inner_shape
    if isinstance(layer, nn.GlobalSkip):
        inner_shape = _trace(layer.inner, shape, acc)
        acc["flops"] += _shape_size(inner_shape)
        return inner_shape
    if isinstance(layer, nn.Upsampler):
        return _trace(layer.body, shape, acc)
    if isinstance(layer, nn.Conv2d):
        cout, cin, kh, kw = layer.weight.shape
        c, h, w = shape
        if c != cin:
            raise ValueError(f"channel mismatch tracing conv: {c} vs {cin}")
        oh = (h + 2 * layer.padding - kh) // layer.stride + 1
        ow = (w + 2 * layer.padding - kw) // layer.stride + 1
        macs = cin * kh * kw * cout * oh * ow
        acc["flops"] += 2 * macs + cout * oh * ow       # MACs, then bias
        _record_activation(acc, (cout, oh, ow))
        return (cout, oh, ow)
    if isinstance(layer, nn.Dense):
        in_f, out_f = layer.weight.shape
        acc["flops"] += 2 * in_f * out_f + out_f
        _record_activation(acc, (out_f,))
        return (out_f,)
    if isinstance(layer, (nn.ReLU, nn.Sigmoid, nn.Tanh, nn.Scale)):
        acc["flops"] += _shape_size(shape)
        return shape
    if isinstance(layer, nn.PixelShuffle):
        c, h, w = shape
        r = layer.scale
        out = (c // (r * r), h * r, w * r)
        _record_activation(acc, out)
        return out
    if isinstance(layer, nn.NearestUpsample):
        c, h, w = shape
        out = (c, h * layer.scale, w * layer.scale)
        _record_activation(acc, out)
        return out
    if isinstance(layer, nn.Flatten):
        return (_shape_size(shape),)
    if isinstance(layer, nn.Reshape):
        return layer.shape
    # Unknown composite: try common attribute conventions before giving up.
    for attr in ("body", "inner"):
        if hasattr(layer, attr):
            return _trace(getattr(layer, attr), shape, acc)
    raise TypeError(f"cannot trace layer of type {type(layer).__name__}")


def _record_activation(acc: dict, shape: tuple) -> None:
    nbytes = _shape_size(shape) * 4
    acc["largest"] = max(acc["largest"], nbytes)
    acc["count"] += 1


def trace_model(model: nn.Layer, input_shape: tuple) -> ModelProfile:
    """Profile one forward pass of ``model`` on a ``(C, H, W)`` input.

    EDSR models are traced via their head/body/tail; any
    :class:`~repro.nn.layers.Layer` composition of the standard layers
    works.
    """
    acc = {"flops": 0.0, "largest": _shape_size(input_shape) * 4, "count": 1}
    # EDSR exposes head/body/tail rather than being a Sequential itself.
    if hasattr(model, "head") and hasattr(model, "body") and hasattr(model, "tail"):
        shape = _trace(model.head, input_shape, acc)
        shape = _trace(model.body, shape, acc)
        shape = _trace(model.tail, shape, acc)
        acc["flops"] += 2 * _shape_size(input_shape)  # the two pixel shifts
    else:
        shape = _trace(model, input_shape, acc)
    param_bytes = sum(p.nbytes for p in model.parameters())
    return ModelProfile(
        flops=float(acc["flops"]),
        param_bytes=param_bytes,
        largest_activation_bytes=int(acc["largest"]),
        n_activations=int(acc["count"]),
        output_shape=shape,
    )


def model_forward_flops(model: nn.Layer, height: int, width: int) -> float:
    """Convenience: forward FLOPs for one RGB ``height x width`` input."""
    return trace_model(model, (3, height, width)).flops
