"""Engine output pinned to the bits of the multi-executor engine.

``InferenceEngine`` used to pick between a whole-frame shortcut, an
ungated tiled executor and a gated one, each over an fp32 or a ``_quant``
kernel.  It now has one tile loop over one precision-parameterised
kernel, and this suite holds that loop to the old bits:
``engine_digests.json`` was recorded from the last commit that had the
separate executors (f249963), for every precision over whole-frame,
tiled, threaded, gated, reuse and blocked-kernel configurations at scale
1 and 2.  Single frames are pinned at all three precisions; 3-frame
batches at fp32/fp16 only — an int8 batch deliberately changed (per-frame
activation scale, see ``TestInt8BatchInvariance`` in ``test_engine.py``).

fp32/fp16 bits depend on the BLAS build, so the file also records a
canary digest over both BLAS builds the kernels call — numpy's (the
blocked kernel's ``matmul``) and scipy's own (the shift kernel's
accumulating ``sgemm``); on a different BLAS the suite skips instead of
failing.  Regenerate (only for a deliberate numerical change) with
``PYTHONPATH=src python tests/sr/test_engine_digests.py``.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg.blas import sgemm

from repro.sr import EDSR, EdsrConfig, InferenceEngine

DIGEST_FILE = Path(__file__).parent / "engine_digests.json"
DIGESTS = json.loads(DIGEST_FILE.read_text())

PRECISIONS = ("fp32", "fp16", "int8")
CONFIGS = {
    "whole": {},
    "tiled": {"tile": 12},
    "threads": {"tile": 12, "threads": 2},
    "gated": {"tile": 12, "skip_gate": 2e-4},
    "reuse": {"tile": 12, "reuse": True},
    "gated-reuse": {"tile": 12, "skip_gate": 2e-4, "reuse": True},
    "blocked": {"kernel": "blocked"},
    "blocked-tiled": {"kernel": "blocked", "tile": 12, "skip_gate": 2e-4},
}


def _digest(*arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()[:16]


def _canary() -> str:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((40, 72)).astype(np.float32)
    b = rng.standard_normal((72, 8)).astype(np.float32)
    parts = [a @ b]
    # The shift kernel's calls at the engine's K = Cin — AB for numpy to
    # add (tiles) and C += AB in place (frames) — with pixel counts either
    # side of OpenBLAS's small-matrix and threading thresholds.
    for k, m in ((8, 300), (8, 20000), (12, 300), (12, 20000)):
        x = rng.standard_normal((m, k)).astype(np.float32)
        tap = rng.standard_normal((k, k)).astype(np.float32)
        c = rng.standard_normal((m, k)).astype(np.float32)
        parts.append(sgemm(1.0, tap.T, x.T))
        parts.append(sgemm(1.0, tap.T, x.T, beta=1.0, c=c.T, overwrite_c=1))
    return _digest(*parts)


def _frames(scale: int) -> np.ndarray:
    """Three 30x40 frames: textured left, flat right (so the gate skips
    some tiles), frame 1 repeating frame 0 (so reuse hits)."""
    rng = np.random.default_rng(10 + scale)
    frames = rng.random((3, 30, 40, 3), dtype=np.float32)
    frames[:, :, 24:, :] = 0.5
    frames[1] = frames[0]
    return frames


def _run(scale: int, precision: str, config: str, batched: bool) -> str:
    model = EDSR(EdsrConfig(n_resblocks=2, n_filters=8, scale=scale),
                 seed=20 + scale)
    engine = InferenceEngine(model, precision=precision, **CONFIGS[config])
    frames = _frames(scale)
    if batched:
        return _digest(engine.enhance_batch(frames))
    return _digest(*[engine.enhance(frame) for frame in frames])


def _cases():
    for scale in (1, 2):
        for precision in PRECISIONS:
            for config in CONFIGS:
                yield scale, precision, config, False
                if precision != "int8":
                    yield scale, precision, config, True


def _key(scale, precision, config, batched) -> str:
    return f"x{scale}-{precision}-{config}-{'batch' if batched else 'frames'}"


@pytest.mark.skipif(_canary() != DIGESTS.get("canary"),
                    reason="different BLAS build than the recorded digests")
@pytest.mark.parametrize("case", list(_cases()), ids=lambda c: _key(*c))
def test_engine_bits_match_recorded_engine(case):
    assert _run(*case) == DIGESTS[_key(*case)]


def test_digest_file_covers_the_grid():
    assert set(DIGESTS) == {"canary"} | {_key(*case) for case in _cases()}


if __name__ == "__main__":
    digests = {"canary": _canary()}
    digests.update({_key(*case): _run(*case) for case in _cases()})
    Path(sys.argv[1] if len(sys.argv) > 1 else DIGEST_FILE).write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n")
