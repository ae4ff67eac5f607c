"""The native library's build and the conv kernel's ISA contract.

``repro.native`` compiles ``_shift_conv.c`` and ``_color.c`` into one
library the first time either is needed and caches it; the conv kernel has
an AVX-512, an AVX2+FMA and a scalar ``fmaf`` variant of one arithmetic
chain.  Held here:

- every variant this host can build returns the reference kernel's bits
  (``tests/nn/reference_shift.py``) over a reduced sweep, compared as
  uint32, specialised and generic channel pairs alike;
- NaN and inf pixels come out where the reference puts them, through the
  ReLU and the residual add;
- a fresh process whose first native call is a conv, or a colour
  conversion, from four threads at once builds the library once, leaves
  one library in the cache, and the four outputs agree;
- a process running a trace-mode fleet never builds or loads it;
- a missing compiler is a :class:`~repro.native.KernelBuildError`
  carrying the command.
"""

import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import native
from repro.nn import functional as F

from . import reference_shift

#: ISA variant -> the macros that rule out every wider one.
VARIANTS = {
    "avx512": (),
    "avx2": ("SHIFT_CONV_NO_AVX512",),
    "scalar": ("SHIFT_CONV_NO_AVX512", "SHIFT_CONV_NO_AVX2"),
}
#: Specialised pairs (head, body, tail, upsampler of a 12-filter model, an
#: 8-filter body) and generic ones (1, 5, 7, 17 channels).
CHANNELS = [(3, 12), (12, 12), (12, 3), (12, 48), (8, 8), (1, 5), (7, 17),
            (16, 2)]
#: Single pixels, a row remainder after every pixel block, two frames.
SHAPES = [(1, 1, 1), (2, 3, 5), (1, 9, 29)]


def _env(tmp_path) -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                XDG_CACHE_HOME=str(tmp_path / "cache"))


def _assert_same_bits(new, old, packed):
    if packed.out_channels == 1:
        np.testing.assert_allclose(new, old, rtol=1e-6, atol=1e-6)
    else:
        assert np.array_equal(new.view(np.uint32), old.view(np.uint32))


@pytest.mark.parametrize("variant", VARIANTS)
def test_each_isa_variant_returns_the_reference_bits(monkeypatch, tmp_path,
                                                     variant):
    lib = native.load(native.build(tmp_path, VARIANTS[variant]))
    if lib.isa != variant:
        pytest.skip(f"this host builds {lib.isa}, not {variant}")
    monkeypatch.setattr(native, "_lib", lib)
    rng = np.random.default_rng(30)
    for k, precision, (cin, cout), (n, h, w) in itertools.product(
            (1, 3, 5), F.PRECISIONS, CHANNELS, SHAPES):
        weight = (0.2 * rng.standard_normal((cout, cin, k, k))).astype(
            np.float32)
        bias = rng.standard_normal(cout).astype(np.float32) if w % 2 else None
        packed = F.pack_conv_weight(weight, bias, precision)
        x = rng.standard_normal((n, h, w, cin)).astype(np.float32)
        res = rng.standard_normal((n, h, w, cout)).astype(np.float32)
        for epilogue in ({}, {"relu": True},
                         {"relu": True, "residual": res, "res_scale": 0.1}):
            _assert_same_bits(
                F.conv2d_shift_nhwc(x, packed, **epilogue),
                reference_shift.conv2d_shift_nhwc(x, packed, **epilogue),
                packed)


@pytest.mark.parametrize("precision", F.PRECISIONS)
def test_nan_and_inf_pixels_propagate_as_in_the_reference(precision):
    rng = np.random.default_rng(31)
    x = rng.standard_normal((2, 8, 11, 12)).astype(np.float32)
    x[0, 2, 3, 4] = np.nan
    x[0, 5, 9, 0] = np.inf
    x[1, 0, 0, 11] = -np.inf
    res = rng.standard_normal((2, 8, 11, 12)).astype(np.float32)
    res[1, 4, 4, 2] = np.nan
    res[1, 6, 1, 7] = np.inf
    weight = (0.2 * rng.standard_normal((12, 12, 3, 3))).astype(np.float32)
    packed = F.pack_conv_weight(
        weight, rng.standard_normal(12).astype(np.float32), precision)
    for epilogue in ({"relu": True}, {"relu": True, "residual": res},
                     {"residual": res, "res_scale": 0.5}):
        with np.errstate(invalid="ignore"):
            new = F.conv2d_shift_nhwc(x, packed, **epilogue)
            old = reference_shift.conv2d_shift_nhwc(x, packed, **epilogue)
        assert np.isnan(old).any() and np.isinf(old).any()
        assert np.array_equal(new, old, equal_nan=True)


FIRST_USE = """
import json, sys, threading
import numpy as np
from repro import native
from repro.nn import functional as F
from repro.video import rgb_to_yuv420, yuv420_to_rgb

compiles, real_run = [], native._run
def counting(command):
    if "-shared" in command:
        compiles.append(command)
    return real_run(command)
native._run = counting

rng = np.random.default_rng(32)
packed = F.pack_conv_weight(
    rng.standard_normal((12, 12, 3, 3)).astype(np.float32), None)
x = rng.standard_normal((1, 40, 50, 12)).astype(np.float32)
rgb = rng.random((40, 50, 3), dtype=np.float32)
calls = {
    "conv": lambda: F.conv2d_shift_nhwc(x, packed, relu=True),
    "colour": lambda: yuv420_to_rgb(rgb_to_yuv420(rgb)),
}
barrier, outs = threading.Barrier(4), [None] * 4
def first_call(i):
    barrier.wait()
    outs[i] = calls[sys.argv[1]]()
threads = [threading.Thread(target=first_call, args=(i,)) for i in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join()
print(json.dumps({"compiles": len(compiles),
                  "equal": all(np.array_equal(o, outs[0]) for o in outs)}))
"""


def _first_use_builds_once(tmp_path, first):
    proc = subprocess.run([sys.executable, "-c", FIRST_USE, first],
                          env=_env(tmp_path), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"compiles": 1, "equal": True}
    built = list((tmp_path / "cache" / "repro-dcsr").iterdir())
    assert len(built) == 1 and built[0].suffix == ".so"


def test_first_conv_from_four_threads_builds_once(tmp_path):
    _first_use_builds_once(tmp_path, "conv")


def test_first_colour_conversion_from_four_threads_builds_once(tmp_path):
    _first_use_builds_once(tmp_path, "colour")


TRACE_FLEET = """
import sys
import repro.serve, repro.core, repro.net
from repro import native
fleet = repro.serve.FleetSimulator(
    repro.core.load_package(sys.argv[1]),
    repro.serve.FleetConfig(sessions=3, mode="trace")).run()
assert fleet.telemetry.total_sr_flops > 0
sys.exit(native._lib is not None or native.cache_dir().exists())
"""


def test_trace_fleet_never_builds_or_loads_the_kernel(package, tmp_path):
    from repro.core import save_package
    root = save_package(package, tmp_path / "pkg")
    proc = subprocess.run([sys.executable, "-c", TRACE_FLEET, str(root)],
                          env=_env(tmp_path), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_missing_compiler_is_a_typed_error(monkeypatch, tmp_path):
    monkeypatch.setattr(native, "COMPILER", str(tmp_path / "no-such-cc"))
    with pytest.raises(native.KernelBuildError) as info:
        native.build(tmp_path)
    assert info.value.command[0] == native.COMPILER
    assert info.value.stderr
    assert not list(tmp_path.iterdir())


def test_failed_build_carries_the_compilers_stderr(monkeypatch, tmp_path):
    broken = tmp_path / "broken.c"
    broken.write_text("int shift_conv(void) { return }\n")
    monkeypatch.setattr(native, "SOURCES", (broken,))
    with pytest.raises(native.KernelBuildError) as info:
        native.build(tmp_path / "lib")
    assert str(broken) in info.value.command
    assert "error" in info.value.stderr
    assert not list((tmp_path / "lib").iterdir())
