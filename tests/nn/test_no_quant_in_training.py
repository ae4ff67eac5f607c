"""Static guard: training and inference stay apart, in both directions.

The training path never touches a packed weight.  Packed weights — the
only carrier of a reduced precision — are an *inference-only* artifact: gradients flow through the fp32 parameters
and ``conv2d_forward``/``conv2d_backward``, and the per-channel scales
are derived from the parameters at packaging/inference time.  Training
needs no packed weight at all, so if the optimizer, the SR trainer, the
losses or the numerical gradient checker ever referenced the packing
surface, training could silently optimize against a rounded forward — a
bug class this AST walk makes structurally impossible (mirrors
``tests/serve/test_no_threads.py``).

Nor does inference touch the training forward.  The layers have one
``forward``, which caches activations for ``backward``; a trained model
runs through :class:`repro.sr.InferenceEngine`.  So no call in
``src/repro`` passes a ``training=`` keyword (the layers have no
inference mode to select), and ``.forward(`` is called only by the layer
library, the feature models (which train), the EDSR network itself and
the SR trainer.
"""

import ast
from pathlib import Path

import repro.nn
import repro.sr

#: The packing surface (where precision lives), banned from the training
#: path: the packer, its product, ``Conv2d.packed`` and the quantized
#: checkpoint size.
BANNED_NAMES = {
    "pack_conv_weight",
    "PackedConvWeight",
    "packed",
    "quantized_size_bytes",
}

#: Modules that constitute the training path.
TRAINING_SOURCES = [
    Path(repro.nn.__file__).parent / "optim.py",
    Path(repro.nn.__file__).parent / "gradcheck.py",
    Path(repro.nn.__file__).parent / "losses.py",
    Path(repro.sr.__file__).parent / "trainer.py",
]


def _violations(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in BANNED_NAMES:
                    out.append(f"{path.name}:{node.lineno} imports "
                               f"{alias.name}")
        if isinstance(node, ast.Attribute) and node.attr in BANNED_NAMES:
            out.append(f"{path.name}:{node.lineno} uses .{node.attr}")
        if isinstance(node, ast.Name) and node.id in BANNED_NAMES:
            out.append(f"{path.name}:{node.lineno} references {node.id}")
    return out


def test_training_path_never_uses_quantized_kernels():
    for path in TRAINING_SOURCES:
        assert path.exists(), f"training-path module moved: {path}"
    problems = [v for src in TRAINING_SOURCES for v in _violations(src)]
    assert not problems, (
        "packed (possibly quantized) weights are inference-only; the "
        "training path must stay on the fp32 forward:\n  " + "\n  ".join(problems))


def test_guard_catches_an_import(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from repro.nn.functional import pack_conv_weight\n")
    assert _violations(bad)


def test_guard_catches_an_attribute_call(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import repro.nn.functional as F\n"
                   "w = F.pack_conv_weight(None, None, 'int8')\n"
                   "p = conv.packed('int8')\n")
    assert len(_violations(bad)) == 2


#: The only places a layer's caching forward may be called from.
FORWARD_CALLERS = ("nn/", "features/", "sr/edsr.py", "sr/trainer.py")

SRC = Path(repro.nn.__file__).parent.parent


def _inference_violations(path: Path, rel: str) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    forward_allowed = rel.startswith(FORWARD_CALLERS)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if any(kw.arg == "training" for kw in node.keywords):
            out.append(f"{rel}:{node.lineno} passes training=")
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr == "forward" and not forward_allowed):
            out.append(f"{rel}:{node.lineno} calls .forward(")
    return out


def test_inference_never_runs_the_training_forward():
    sources = sorted(SRC.rglob("*.py"))
    assert len(sources) > 50, SRC
    problems = [v for path in sources
                for v in _inference_violations(
                    path, path.relative_to(SRC).as_posix())]
    assert not problems, (
        "a trained model runs through repro.sr.InferenceEngine, never "
        "through a layer's caching forward:\n  " + "\n  ".join(problems))


def test_inference_guard_catches_a_training_keyword(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("out = model.forward(x, training=False)\n"
                   "out = layer(x, training=False)\n")
    assert len(_inference_violations(bad, "sr/edsr.py")) == 2


def test_inference_guard_catches_a_forward_call(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("out = model.forward(batch)\n")
    assert _inference_violations(bad, "core/client.py")
    assert not _inference_violations(bad, "sr/trainer.py")


def test_training_forward_passes_training_flag():
    """``Conv2d.forward`` must run on the live fp32 weights whatever
    precision an inference caller packed."""
    import numpy as np

    from repro.nn.layers import Conv2d

    conv = Conv2d(3, 4, 3, rng=np.random.default_rng(0))
    conv.packed("int8")                 # warm an inference-only cache
    x = np.random.default_rng(1).normal(size=(1, 3, 5, 5)).astype(np.float32)
    out_train = conv.forward(x)
    ref = Conv2d(3, 4, 3, rng=np.random.default_rng(0)).forward(x)
    assert np.array_equal(out_train, ref)
