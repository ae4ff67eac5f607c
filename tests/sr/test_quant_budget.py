"""Quantized inference and the tile skip gate: the fast-path contract.

Seeded property sweep over :class:`EdsrConfig` tiers asserting, for each
architecture:

- ``precision="fp32"`` with no gate is **bitwise identical** to the
  plain engine (the fast-path knobs are opt-in, never a silent change);
- reduced precisions stay within the budget the build-time calibration
  pass itself measures (`calibrate_quantized` is deterministic, and its
  reported ``psnr_quant`` is exactly what a client engine reproduces);
- the variance gate at its default threshold never fires on
  high-variance content, and a ``0.0`` threshold runs everything — both
  cases bitwise equal to the ungated engine;
- a flat frame trips the gate on every tile and falls back to bicubic.
"""

import numpy as np
import pytest

from repro.sr import (
    EDSR,
    EdsrConfig,
    InferenceEngine,
    calibrate_quantized,
)
from repro.video.sampling import upscale

#: Micro-model tiers swept by every property below (Table 1 adjacent).
TIERS = [
    EdsrConfig(n_resblocks=1, n_filters=4),
    EdsrConfig(n_resblocks=2, n_filters=8),
    EdsrConfig(n_resblocks=3, n_filters=8, scale=2),
]


def _noise_frame(seed, h=24, w=32):
    return np.random.default_rng(seed).random((h, w, 3), dtype=np.float32)


@pytest.mark.parametrize("tier", range(len(TIERS)))
class TestFp32IsBitwiseDefault:
    def test_fp32_no_gate_identical(self, tier):
        model = EDSR(TIERS[tier], seed=tier)
        frame = _noise_frame(tier)
        plain = InferenceEngine(model).enhance(frame)
        fast = InferenceEngine(model, precision="fp32",
                               skip_gate=None).enhance(frame)
        assert np.array_equal(plain, fast)

    def test_fp32_tiled_no_gate_identical(self, tier):
        model = EDSR(TIERS[tier], seed=tier)
        frame = _noise_frame(tier + 10)
        plain = InferenceEngine(model, tile=10).enhance(frame)
        fast = InferenceEngine(model, tile=10, precision="fp32").enhance(frame)
        assert np.array_equal(plain, fast)

    def test_zero_threshold_gate_runs_everything(self, tier):
        """variance >= 0.0 holds for every tile, so a 0-threshold gate is
        the ungated engine, bit for bit, with no skips counted."""
        model = EDSR(TIERS[tier], seed=tier)
        frame = _noise_frame(tier + 20)
        plain = InferenceEngine(model, tile=10).enhance(frame)
        gated_engine = InferenceEngine(model, tile=10,
                                       skip_gate=0.0)
        gated = gated_engine.enhance(frame)
        assert np.array_equal(plain, gated)
        assert gated_engine.stats.skipped_tiles == 0


@pytest.mark.parametrize("tier", range(len(TIERS)))
class TestQuantWithinCalibratedBudget:
    def test_client_reproduces_calibrated_psnr(self, tier):
        """The delta the server records is the delta a client gets: the
        quantized engine's output against the same reference scores the
        exact PSNR the calibration pass reported."""
        from repro.video.quality import psnr

        config = TIERS[tier]
        model = EDSR(config, seed=tier)
        rng = np.random.default_rng(tier)
        lq = rng.random((2, 16, 20, 3), dtype=np.float32)
        hr = np.stack([upscale(f, config.scale) for f in lq]) \
            if config.scale > 1 else lq.copy()
        results = calibrate_quantized(model, lq, hr)
        for precision, record in results.items():
            out = InferenceEngine(model, precision=precision).enhance_batch(lq)
            assert min(psnr(out, hr), 99.0) == pytest.approx(
                record.psnr_quant, abs=1e-9)
            assert np.isfinite(record.delta_db)

    def test_fp16_budget_is_tight(self, tier):
        """fp16 only rounds operands: on random models its PSNR cost is
        far below the 0.3 dB shipping budget."""
        config = TIERS[tier]
        model = EDSR(config, seed=tier + 5)
        rng = np.random.default_rng(tier + 5)
        lq = rng.random((2, 16, 20, 3), dtype=np.float32)
        hr = np.stack([upscale(f, config.scale) for f in lq]) \
            if config.scale > 1 else lq.copy()
        results = calibrate_quantized(model, lq, hr, precisions=("fp16",))
        assert abs(results["fp16"].delta_db) <= 0.05

    def test_int8_tracks_fp32_output(self, tier):
        """W8A8 noise is bounded relative to the fp32 forward itself
        (the budget the manifest records is content-specific; this is
        the architecture-level sanity floor)."""
        from repro.video.quality import psnr

        model = EDSR(TIERS[tier], seed=tier + 9)
        frame = _noise_frame(tier + 9, h=16, w=20)
        fp32 = InferenceEngine(model).enhance(frame)
        int8 = InferenceEngine(model, precision="int8").enhance(frame)
        assert psnr(int8, fp32) >= 24.0

    def test_size_monotone(self, tier):
        results = calibrate_quantized(
            EDSR(TIERS[tier], seed=tier),
            _noise_frame(tier)[None], _noise_frame(tier)[None]
            if TIERS[tier].scale == 1
            else upscale(_noise_frame(tier), TIERS[tier].scale)[None])
        assert results["int8"].size_bytes < results["fp16"].size_bytes


class TestSkipGate:
    def test_default_gate_never_fires_on_high_variance(self):
        """Random noise tiles sit orders of magnitude above the default
        threshold, so a gated engine is a no-op there."""
        model = EDSR(EdsrConfig(n_resblocks=2, n_filters=8), seed=0)
        frame = _noise_frame(42, h=30, w=40)
        plain = InferenceEngine(model, tile=10).enhance(frame)
        engine = InferenceEngine(model, tile=10, skip_gate=2e-4)
        gated = engine.enhance(frame)
        assert engine.stats.skipped_tiles == 0
        assert np.array_equal(plain, gated)

    def test_flat_frame_skips_every_tile(self):
        model = EDSR(EdsrConfig(n_resblocks=2, n_filters=8), seed=1)
        frame = np.full((20, 30, 3), 0.5, dtype=np.float32)
        engine = InferenceEngine(model, tile=10,
                                 skip_gate=1e-6)
        out = engine.enhance(frame)
        assert engine.stats.tile_count == 0
        assert engine.stats.skipped_tiles == 6
        # Scale 1: the bicubic fallback is a passthrough copy.
        assert np.array_equal(out, frame)

    def test_flat_frame_skip_matches_bicubic_at_scale(self):
        config = EdsrConfig(n_resblocks=1, n_filters=4, scale=2)
        model = EDSR(config, seed=2)
        frame = np.full((16, 20, 3), 0.25, dtype=np.float32)
        engine = InferenceEngine(model, tile=8,
                                 skip_gate=1e-6)
        out = engine.enhance(frame)
        assert engine.stats.tile_count == 0
        assert out.shape == (32, 40, 3)
        assert np.allclose(out, upscale(frame, 2), atol=1e-6)

    def test_mixed_frame_runs_only_detailed_tiles(self):
        """Half flat, half noise: the gate splits the tile grid and the
        engine's counters stay sum-consistent."""
        model = EDSR(EdsrConfig(n_resblocks=2, n_filters=8), seed=3)
        frame = np.full((20, 40, 3), 0.5, dtype=np.float32)
        frame[:, 20:] = _noise_frame(7, h=20, w=20)
        engine = InferenceEngine(model, tile=10,
                                 skip_gate=1e-4)
        out = engine.enhance(frame)
        stats = engine.stats
        assert stats.skipped_tiles == 4      # the flat half of a 2x4 grid
        assert stats.tile_count == 4
        assert stats.tile_count + stats.skipped_tiles == 8
        # Detailed tiles match the ungated engine exactly.
        plain = InferenceEngine(model, tile=10).enhance(frame)
        assert np.array_equal(out[:, 20:], plain[:, 20:])
        # Flat tiles are the bicubic (here: passthrough) fallback.
        assert np.array_equal(out[:, :20], frame[:, :20])

    def test_gate_threshold_validation(self):
        with pytest.raises(ValueError):
            InferenceEngine(EDSR(EdsrConfig(1, 4), seed=0), skip_gate=-1.0)
        with pytest.raises(TypeError):
            InferenceEngine(EDSR(EdsrConfig(1, 4), seed=0), skip_gate="hi")
