"""Reduced precision is a download format: the engine's oracle.

``precision="fp16"`` / ``"int8"`` name the checkpoint a session downloads
(``nn.quantized_size_bytes`` prices it).  ``pack_conv_weight`` rebuilds
the weights that checkpoint carries once, and every conv runs the fp32
kernels on them.  Held here, against the checkpoint built independently
in ``reference_checkpoint.py``:

- the priced bytes are the shipped tensors, and every packed operand
  (shift taps, GEMM matrix, bias) is what those tensors reconstruct;
- at every precision, over whole-frame, tiled, threaded, gated, reuse and
  blocked-kernel configurations, single frames and batches, at scale 1
  and 2, ``InferenceEngine(model, precision=p)`` returns bit for bit what
  the fp32 engine returns on a copy of ``model`` holding the
  reconstructed weights;
- the same on every conv ISA variant this host builds.
"""

import numpy as np
import pytest

from repro import native, nn
from repro.nn.serialize import PER_TENSOR_OVERHEAD_BYTES
from repro.sr import EDSR, EdsrConfig, InferenceEngine

from ..nn.test_native_kernel import VARIANTS
from .reference_checkpoint import (checkpoint, dequantized_copy,
                                   payload_bytes, reconstruct)
from .test_engine_digests import CONFIGS, PRECISIONS, _frames


def _model(scale: int) -> EDSR:
    return EDSR(EdsrConfig(n_resblocks=2, n_filters=8, scale=scale),
                seed=40 + scale)


def _convs(layer):
    """Every ``Conv2d`` under ``layer``."""
    if isinstance(layer, nn.Conv2d):
        yield layer
        return
    for child in vars(layer).values():
        for item in child if isinstance(child, (list, tuple)) else [child]:
            if isinstance(item, nn.Layer):
                yield from _convs(item)


@pytest.mark.parametrize("precision", PRECISIONS)
def test_priced_bytes_are_the_shipped_tensors(precision):
    model = _model(2)
    shipped = checkpoint(model, precision)
    assert nn.quantized_size_bytes(model, precision) == (
        payload_bytes(shipped)
        + len(shipped) * PER_TENSOR_OVERHEAD_BYTES)


@pytest.mark.parametrize("precision", PRECISIONS)
def test_packed_operands_are_what_the_checkpoint_reconstructs(precision):
    """Taps, GEMM matrix and bias of every conv, bit for bit: an fp16
    bias is rounded to half as priced, an int8 bias stays float32."""
    model = _model(2)
    state = reconstruct(checkpoint(model, precision))
    key_of = {id(p): key for p, key in zip(model.parameters(), state)}
    convs = list(_convs(model))
    assert len(convs) == 8
    for conv in convs:
        packed = conv.packed(precision)
        weight = state[key_of[id(conv.weight)]]
        bias = state[key_of[id(conv.bias)]]
        cout = weight.shape[0]
        assert np.array_equal(packed.taps.view(np.uint32),
                              weight.transpose(2, 3, 1, 0).view(np.uint32))
        assert np.array_equal(packed.mat_t,
                              weight.reshape(cout, -1).T)
        assert np.array_equal(packed.bias.view(np.uint32),
                              bias.view(np.uint32))
        if precision == "int8":
            assert np.array_equal(packed.bias, conv.bias.data)


def _run(model, precision, config, batched, frames):
    engine = InferenceEngine(model, precision=precision, **CONFIGS[config])
    if batched:
        return engine.enhance_batch(frames)
    return np.stack([engine.enhance(frame) for frame in frames])


def _assert_oracle(scale, precision, config, batched):
    model = _model(scale)
    frames = _frames(scale)
    out = _run(model, precision, config, batched, frames)
    expected = _run(dequantized_copy(model, precision), "fp32", config,
                    batched, frames)
    assert np.array_equal(out.view(np.uint32), expected.view(np.uint32))


@pytest.mark.parametrize("batched", [False, True], ids=["frames", "batch"])
@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("scale", [1, 2])
def test_engine_is_the_fp32_engine_on_dequantized_weights(
        scale, precision, config, batched):
    _assert_oracle(scale, precision, config, batched)


@pytest.fixture(scope="module", params=VARIANTS)
def variant_library(request, tmp_path_factory):
    lib = native.load(native.build(tmp_path_factory.mktemp("native"),
                                   VARIANTS[request.param]))
    if lib.isa != request.param:
        pytest.skip(f"this host builds {lib.isa}, not {request.param}")
    return lib


@pytest.mark.parametrize("precision", ["fp16", "int8"])
def test_oracle_holds_on_each_isa_variant(monkeypatch, variant_library,
                                          precision):
    monkeypatch.setattr(native, "_lib", variant_library)
    for scale in (1, 2):
        for config in ("whole", "tiled", "gated-reuse"):
            _assert_oracle(scale, precision, config, batched=True)
