"""Temporal tile reuse: bitwise-exact cache hits, precise invalidation,
bounded memory, and calibrated tolerance mode.

The central property mirrors the engine suite's: exact-mode reuse must be
*invisible* in the output bits — an engine with ``reuse`` enabled emits
exactly the frames a reuse-free engine would, it just runs fewer tiles.
Tolerance mode trades bits for hits, and ``calibrate_reuse`` measures the
PSNR price so a session plays with a known budget.
"""

import numpy as np
import pytest

from repro.sr import (EDSR, EdsrConfig, InferenceEngine, SkipGateConfig,
                      TileReuseCache, TileReuseConfig, calibrate_reuse,
                      receptive_field_radius)

H, W, TILE = 48, 64, 16           # 3x4 tile grid (12 tiles) at tile=16


def _model(seed=11):
    return EDSR(EdsrConfig(n_resblocks=2, n_filters=8), seed=seed)


def _frame(seed=0, h=H, w=W):
    return np.random.default_rng(seed).random((h, w, 3), dtype=np.float32)


def _total(stats):
    return stats.tile_count + stats.skipped_tiles + stats.reused_tiles


class TestExactReuse:
    def test_identical_frame_reuses_every_tile_bitwise(self):
        model = _model()
        frame = _frame(1)
        ref = InferenceEngine(model, tile=TILE).enhance(frame)
        engine = InferenceEngine(model, tile=TILE, reuse=True)
        first = engine.enhance(frame)
        second = engine.enhance(frame)
        assert engine.stats.reused_tiles == 12   # stats are per-call
        assert engine.stats.tile_count == 0
        assert np.array_equal(first, ref)
        assert np.array_equal(second, ref)

    def test_single_pixel_change_recomputes_only_touched_tiles(self):
        """A pixel at (8, 8) sits inside tile (0, 0)'s halo-expanded
        region and no other's (halo 7 < 16 - 8), so exactly one tile
        recomputes and eleven ride the cache."""
        model = _model()
        assert receptive_field_radius(model.config) == 7
        frame = _frame(2)
        changed = frame.copy()
        changed[8, 8, 0] = 1.0 - changed[8, 8, 0]
        engine = InferenceEngine(model, tile=TILE, reuse=True)
        engine.enhance(frame)
        out = engine.enhance(changed)
        assert engine.stats.tile_count == 1      # stats are per-call
        assert engine.stats.reused_tiles == 11
        # Correctness, not just accounting: the composite equals a full
        # recompute of the changed frame, bit for bit.
        ref = InferenceEngine(model, tile=TILE).enhance(changed)
        assert np.array_equal(out, ref)

    def test_reuse_engine_is_bitwise_invisible_on_real_sequences(self):
        """Across a varied sequence (static, drifting, cut), every frame
        from the reuse engine equals the reuse-free engine's bits."""
        model = _model()
        rng = np.random.default_rng(3)
        base = rng.random((H, W, 3), dtype=np.float32)
        drift = base.copy()
        drift[20:30, 40:50] = rng.random((10, 10, 3))
        cut = rng.random((H, W, 3), dtype=np.float32)
        plain = InferenceEngine(model, tile=TILE)
        reuse = InferenceEngine(model, tile=TILE, reuse=True)
        reused = 0
        for frame in (base, base, drift, drift, cut, base):
            assert np.array_equal(reuse.enhance(frame), plain.enhance(frame))
            reused += reuse.stats.reused_tiles   # stats are per-call
        # Static repeat (12) + drift repeat (12) + the drifted frame's
        # untouched tiles (6: the 10x10 patch plus halo spans 3x2 tiles).
        assert reused == 12 + 6 + 12

    def test_batch_chains_against_in_batch_anchor(self):
        """[f, f, g, g]: frame 1 reuses all 12 tiles from frame 0, frame 2
        recomputes against frame 1's content, frame 3 reuses frame 2."""
        model = _model()
        f, g = _frame(4), _frame(5)
        engine = InferenceEngine(model, tile=TILE, reuse=True)
        batch = np.stack([f, f, g, g])
        out = engine.enhance_batch(batch)
        assert engine.stats.reused_tiles == 24
        assert _total(engine.stats) == 4 * 12
        ref = InferenceEngine(model, tile=TILE)
        for i, frame in enumerate((f, f, g, g)):
            assert np.array_equal(out[i], ref.enhance(frame))


class TestInvariantAndStats:
    def test_three_way_invariant_with_gate(self):
        """Every (frame, tile) pair is exactly one of executed, gate-
        skipped, or reused — with both gates stacked."""
        model = _model()
        frame = np.zeros((H, W, 3), dtype=np.float32)
        frame[:TILE, :TILE] = _frame(6)[:TILE, :TILE]
        engine = InferenceEngine(model, tile=TILE, reuse=True,
                                 skip_gate=SkipGateConfig(1e-4))
        engine.enhance_batch(np.stack([frame, frame]))
        stats = engine.stats
        assert _total(stats) == 2 * 12
        assert stats.reused_tiles == 12          # whole second frame
        assert stats.skipped_tiles == 11         # flat tiles, first frame
        assert stats.tile_count == 1

    def test_reused_counter_recorded(self):
        from repro.obs import Observability

        obs = Observability(root_name="test")
        engine = InferenceEngine(_model(), tile=TILE, reuse=True, obs=obs)
        frame = _frame(8)
        engine.enhance(frame)
        engine.enhance(frame)
        counter = obs.metrics.counter("dcsr_sr_reused_tiles_total")
        assert counter.value() == 12


class TestBoundedCache:
    def test_lru_never_exceeds_budget_and_peak_is_tracked(self):
        engine = InferenceEngine(_model(), tile=TILE,
                                 reuse=TileReuseConfig(max_tiles=4))
        frame = _frame(9)
        engine.enhance(frame)
        assert len(engine.reuse_cache) <= 4
        assert engine.reuse_cache.peak_resident == 4

    def test_thrashing_cache_reuses_nothing_but_stays_correct(self):
        """Budget below the 12-tile grid: sequential insertion evicts
        every entry before its next lookup — zero hits, right bits."""
        model = _model()
        frame = _frame(10)
        engine = InferenceEngine(model, tile=TILE,
                                 reuse=TileReuseConfig(max_tiles=4))
        engine.enhance(frame)
        out = engine.enhance(frame)
        assert engine.stats.reused_tiles == 0
        assert np.array_equal(out, InferenceEngine(model,
                                                   tile=TILE).enhance(frame))

    def test_reset_forgets_all_anchors(self):
        engine = InferenceEngine(_model(), tile=TILE, reuse=True)
        frame = _frame(12)
        engine.enhance(frame)
        engine.reset_reuse()
        assert len(engine.reuse_cache) == 0
        engine.enhance(frame)
        assert engine.stats.tile_count == 12     # stats are per-call
        assert engine.stats.reused_tiles == 0

    def test_cache_reset_api(self):
        cache = TileReuseCache(2)
        cache.put("a", object())
        cache.put("b", object())
        cache.put("c", object())
        assert len(cache) == 2
        assert cache.get("a") is None            # evicted
        assert cache.get("c") is not None
        cache.reset()
        assert len(cache) == 0
        assert cache.peak_resident == 2


class TestToleranceMode:
    def test_small_noise_reused_within_tolerance(self):
        model = _model()
        rng = np.random.default_rng(13)
        frame = _frame(14)
        noisy = np.clip(frame + rng.uniform(-0.004, 0.004,
                                            frame.shape).astype(np.float32),
                        0.0, 1.0)
        engine = InferenceEngine(model, tile=TILE, reuse=0.01)
        engine.enhance(frame)
        engine.enhance(noisy)
        assert engine.stats.reused_tiles == 12

    def test_noise_beyond_tolerance_recomputes(self):
        model = _model()
        frame = _frame(15)
        far = np.clip(frame + 0.05, 0.0, 1.0)
        engine = InferenceEngine(model, tile=TILE, reuse=0.01)
        engine.enhance(frame)
        engine.enhance(far)
        assert engine.stats.reused_tiles == 0

    def test_calibrated_delta_stays_in_budget(self):
        """The acceptance budget: on a slowly drifting sequence the
        tolerance-mode PSNR cost is measured and bounded (|delta| <=
        0.3 dB), with a real hit rate to show for it."""
        model = _model()
        rng = np.random.default_rng(16)
        base = rng.random((H, W, 3), dtype=np.float32)
        frames, hrs = [], []
        for i in range(6):
            jitter = rng.uniform(-0.003, 0.003, base.shape).astype(np.float32)
            lq = np.clip(base + jitter, 0.0, 1.0)
            frames.append(lq)
            hrs.append(np.clip(lq * 1.01, 0.0, 1.0))
        cal = calibrate_reuse(model, np.stack(frames), np.stack(hrs),
                              tolerance=0.01, tile=TILE)
        assert cal.reuse_rate > 0.5
        assert abs(cal.delta_db) <= 0.3
        # Exact mode is free by construction.
        exact = calibrate_reuse(model, np.stack([base, base]),
                                np.stack([hrs[0], hrs[0]]),
                                tolerance=0.0, tile=TILE)
        assert exact.delta_db == 0.0
        assert exact.reuse_rate > 0.0


class TestValidation:
    def test_rejects_bad_reuse_configs(self):
        model = _model()
        with pytest.raises(ValueError, match="tolerance"):
            TileReuseConfig(tolerance=-0.1)
        with pytest.raises(ValueError, match="max_tiles"):
            TileReuseConfig(max_tiles=0)
        with pytest.raises(ValueError, match="max_tiles"):
            TileReuseConfig(max_tiles=None)
        with pytest.raises(TypeError, match="reuse"):
            InferenceEngine(model, reuse="yes")
        with pytest.raises(ValueError, match="kernel"):
            InferenceEngine(model, kernel="winograd")

    def test_unbounded_cache_cannot_be_constructed(self):
        with pytest.raises(ValueError, match="max_tiles"):
            TileReuseCache(None)
        with pytest.raises(ValueError, match="max_tiles"):
            TileReuseCache(0)

    def test_reuse_false_and_none_disable_the_cache(self):
        model = _model()
        for off in (None, False):
            engine = InferenceEngine(model, tile=TILE, reuse=off)
            assert engine.reuse_cache is None
            frame = _frame(17)
            engine.enhance(frame)
            engine.enhance(frame)
            assert engine.stats.reused_tiles == 0


class TestComposition:
    def test_reuse_composes_with_quantization_and_gate(self):
        """One dispatch path: reuse -> gate -> int8 kernels.  The second
        identical frame rides the cache entirely, and the reused bits are
        the quantized engine's bits."""
        model = _model()
        frame = _frame(18)
        engine = InferenceEngine(model, tile=TILE, precision="int8",
                                 reuse=True, skip_gate=SkipGateConfig(1e-6))
        first = engine.enhance(frame)
        second = engine.enhance(frame)
        assert engine.stats.reused_tiles == 12
        assert np.array_equal(first, second)

    def test_reuse_with_threads_is_deterministic(self):
        model = _model()
        frame = _frame(19)
        one = InferenceEngine(model, tile=TILE, reuse=True, threads=1)
        many = InferenceEngine(model, tile=TILE, reuse=True, threads=4)
        assert np.array_equal(one.enhance(frame), many.enhance(frame))
        assert np.array_equal(one.enhance(frame), many.enhance(frame))
        assert one.stats.reused_tiles == many.stats.reused_tiles == 12
