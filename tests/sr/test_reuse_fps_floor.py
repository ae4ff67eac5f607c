"""Tier-2 FPS floor: the reuse fast path never regresses below half the
committed benchmark baseline.

``bench_results/sr_inference.json`` carries the full measured ladder
(``benchmarks/test_sr_inference.py``); this guard replays the same
workload shape — a 352x640 static-background session through the
``int8 + skip gate + exact reuse`` engine — and holds a 0.5x floor
against the committed ``int8 gated+reuse`` row, loose enough for machine
load, tight enough to catch a dispatch-path regression.  Weights don't
affect kernel timing, so the model is He-init rather than retrained.
"""

import time

import numpy as np
import pytest

from repro.bench import load_results
from repro.sr import EDSR, EdsrConfig, InferenceEngine

pytestmark = pytest.mark.timing

N_FRAMES = 16


def _session_frames():
    rng = np.random.default_rng(33)
    base = rng.random((352, 640, 3), dtype=np.float32)
    patch = rng.random((48, 48, 3), dtype=np.float32)
    frames = []
    for i in range(N_FRAMES):
        frame = base.copy()
        frame[64:112, 64 + i * 24:112 + i * 24] = patch
        frames.append(frame)
    return frames


def test_reuse_session_fps_holds_half_the_committed_baseline():
    results = load_results("sr_inference")
    assert results and "temporal_reuse" in results, (
        "run benchmarks/test_sr_inference.py to regenerate the baseline")
    committed = {row["variant"]: row["fps"]
                 for row in results["temporal_reuse"]["rows"]}
    baseline = committed["int8 gated+reuse"]

    model = EDSR(EdsrConfig(n_resblocks=2, n_filters=8), seed=40)
    engine = InferenceEngine(model, tile=128, precision="int8",
                             skip_gate=1e-3, reuse=True)
    frames = _session_frames()
    engine.enhance(frames[0])                      # warm packed weights

    best = float("inf")
    for _ in range(2):
        engine.reset_reuse()
        t0 = time.perf_counter()
        for frame in frames:
            engine.enhance(frame)
        best = min(best, time.perf_counter() - t0)
    fps = N_FRAMES / best
    assert fps >= 0.5 * baseline, (fps, baseline)
