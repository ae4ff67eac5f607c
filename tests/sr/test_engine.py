"""Tiled NHWC inference engine: equivalence, halo math, threading, timing.

The central property: for random ``EdsrConfig``s, the engine's output
matches the reference NCHW forward within 1e-5, tiled output matches
whole-frame bitwise-comparable (<= 1e-5), and thread count never changes
a single bit (tiles write disjoint output regions).
"""

import time

import numpy as np
import pytest

from repro.sr import EDSR, EdsrConfig, InferenceEngine, receptive_field_radius


def _frame(rng, h=24, w=32):
    return rng.random((h, w, 3), dtype=np.float32)


def _random_config(rng):
    scale = int(rng.choice([1, 1, 2, 3, 4]))
    return EdsrConfig(
        n_resblocks=int(rng.integers(1, 5)),
        n_filters=int(rng.choice([4, 8, 12, 16])),
        scale=scale,
        res_scale=float(rng.choice([1.0, 0.5, 0.1])),
        kernel_size=int(rng.choice([3, 3, 5])),
    )


class TestEngineEquivalence:
    def test_random_config_sweep(self):
        """Property-style sweep: engine == reference forward (<= 1e-5) and
        tiled == whole-frame (<= 1e-5) across random architectures."""
        rng = np.random.default_rng(0)
        for trial in range(6):
            config = _random_config(rng)
            model = EDSR(config, seed=trial)
            frame = _frame(rng)
            ref = model.enhance(frame)                     # reference path
            whole = InferenceEngine(model).enhance(frame)
            assert whole.shape == ref.shape
            assert np.abs(whole - ref).max() <= 2e-5, config
            tile_edge = int(rng.integers(7, 20))
            tiled = InferenceEngine(model, tile=tile_edge).enhance(frame)
            assert np.abs(tiled - whole).max() <= 1e-5, (config, tile_edge)

    def test_tiled_equals_whole_uneven_grid(self):
        model = EDSR(EdsrConfig(n_resblocks=2, n_filters=8), seed=1)
        rng = np.random.default_rng(2)
        frame = _frame(rng, h=25, w=37)                    # non-divisible
        whole = InferenceEngine(model).enhance(frame)
        for tile in (9, 16, 23):
            tiled = InferenceEngine(model, tile=tile).enhance(frame)
            assert np.abs(tiled - whole).max() <= 1e-5

    def test_threads_are_bitwise_identical(self):
        model = EDSR(EdsrConfig(n_resblocks=2, n_filters=8), seed=3)
        frame = _frame(np.random.default_rng(4), h=30, w=40)
        one = InferenceEngine(model, tile=12, threads=1).enhance(frame)
        for threads in (2, 4):
            many = InferenceEngine(model, tile=12,
                                   threads=threads).enhance(frame)
            assert np.array_equal(one, many)

    def test_upscaling_tiles_and_threads(self):
        """Scale 2 re-lays the activation out at the pixel shuffle: tiles
        still reproduce the whole frame, threads still change no bit."""
        model = EDSR(EdsrConfig(n_resblocks=2, n_filters=8, scale=2), seed=3)
        frame = _frame(np.random.default_rng(4), h=25, w=37)
        whole = InferenceEngine(model).enhance(frame)
        one = InferenceEngine(model, tile=12, threads=1).enhance(frame)
        two = InferenceEngine(model, tile=12, threads=2).enhance(frame)
        assert np.abs(one - whole).max() <= 1e-5
        assert np.array_equal(one, two)

    def test_batch_matches_per_frame(self):
        model = EDSR(EdsrConfig(n_resblocks=1, n_filters=8), seed=5)
        rng = np.random.default_rng(6)
        frames = rng.random((3, 16, 20, 3), dtype=np.float32)
        engine = InferenceEngine(model, tile=10)
        batch = engine.enhance_batch(frames)
        for i in range(3):
            assert np.abs(batch[i] - engine.enhance(frames[i])).max() <= 1e-6

    def test_upscaling_output_shape(self):
        model = EDSR(EdsrConfig(n_resblocks=1, n_filters=8, scale=2), seed=7)
        out = InferenceEngine(model, tile=9).enhance(
            _frame(np.random.default_rng(8), h=15, w=21))
        assert out.shape == (30, 42, 3)

    def test_output_clipped_to_unit_range(self):
        model = EDSR(EdsrConfig(n_resblocks=1, n_filters=4), seed=9)
        out = InferenceEngine(model).enhance(
            _frame(np.random.default_rng(10)))
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestHaloAndStats:
    def test_receptive_field_values(self):
        # (k//2) * (2 + 2*n_resblocks) body terms + upsampler/tail terms
        assert receptive_field_radius(
            EdsrConfig(n_resblocks=4, n_filters=16)) == 11
        assert receptive_field_radius(
            EdsrConfig(n_resblocks=2, n_filters=8)) == 7
        assert receptive_field_radius(
            EdsrConfig(n_resblocks=2, n_filters=8, scale=2)) == 8
        assert receptive_field_radius(
            EdsrConfig(n_resblocks=2, n_filters=8, kernel_size=5)) == 14

    def test_stats_populated(self):
        model = EDSR(EdsrConfig(n_resblocks=1, n_filters=4), seed=11)
        engine = InferenceEngine(model, tile=10)
        engine.enhance(_frame(np.random.default_rng(12), h=24, w=32))
        assert engine.stats.tile_count == 3 * 4            # ceil(24/10)*ceil(32/10)
        assert engine.stats.frames == 1
        assert engine.stats.flops > 0

    def test_rejects_bad_construction(self):
        model = EDSR(EdsrConfig(n_resblocks=1, n_filters=4), seed=13)
        with pytest.raises(ValueError):
            InferenceEngine(model, tile=0)
        with pytest.raises(ValueError):
            InferenceEngine(model, threads=0)

    @pytest.mark.parametrize("layer, padding", [
        ("head", 0), ("head", 2), ("tail.out", 0)])
    def test_rejects_a_conv_that_is_not_same(self, layer, padding):
        """The engine's layout bakes 'same' padding in; it used to run a
        ``padding=0`` head as 'same' and return (16, 16, 3) where the
        model's own forward returns (14, 14, 3)."""
        model = EDSR(EdsrConfig(n_resblocks=1, n_filters=4), seed=14)
        conv = model.head if layer == "head" else model.tail.layers[1]
        conv.padding = padding
        with pytest.raises(ValueError, match=f"'same'.*{layer}"):
            InferenceEngine(model)

    def test_weight_update_reflected_without_rebuild(self):
        model = EDSR(EdsrConfig(n_resblocks=1, n_filters=4), seed=16)
        frame = _frame(np.random.default_rng(17))
        engine = InferenceEngine(model)
        before = engine.enhance(frame)
        for p in model.parameters():
            p.data -= 0.05
        after = engine.enhance(frame)
        assert not np.array_equal(before, after)
        assert np.abs(after - model.enhance(frame)).max() <= 2e-5


class TestFlopAccounting:
    def test_tiled_flops_exceed_whole_frame(self):
        """Regression: tiles are halo-expanded before inference, so the
        tiled path computes strictly *more* FLOPs than whole-frame — the
        engine used to report the nominal ``n*h*w`` pixels for both,
        hiding the halo overhead from every telemetry consumer."""
        model = EDSR(EdsrConfig(n_resblocks=2, n_filters=8), seed=20)
        frame = _frame(np.random.default_rng(21), h=48, w=64)
        whole = InferenceEngine(model)
        whole.enhance(frame)
        tiled = InferenceEngine(model, tile=20)
        tiled.enhance(frame)
        assert tiled.stats.flops > whole.stats.flops

    def test_tiled_flops_count_expanded_pixels(self):
        """The tiled total equals fpp times the sum of halo-expanded tile
        areas (computable in closed form for an interior-free grid)."""
        model = EDSR(EdsrConfig(n_resblocks=1, n_filters=4), seed=22)
        frame = _frame(np.random.default_rng(23), h=20, w=20)
        whole = InferenceEngine(model)
        whole.enhance(frame)
        fpp = whole.stats.flops / (20 * 20)
        engine = InferenceEngine(model, tile=10)
        engine.enhance(frame)
        from repro.sr import receptive_field_radius
        halo = receptive_field_radius(model.config)
        expanded = 0
        for y in (0, 10):
            for x in (0, 10):
                ey0, ey1 = max(0, y - halo), min(20, y + 10 + halo)
                ex0, ex1 = max(0, x - halo), min(20, x + 10 + halo)
                expanded += (ey1 - ey0) * (ex1 - ex0)
        assert engine.stats.flops == pytest.approx(fpp * expanded, rel=1e-6)


class TestPerFrameStats:
    def test_split_with_gate(self):
        """The gate decides per (frame, tile) pair of a batched call: the
        flat frame's grid is skipped, the textured frame's grid runs, and
        the call's counters partition the pairs."""
        from repro.sr import SkipGateConfig

        model = EDSR(EdsrConfig(n_resblocks=1, n_filters=4), seed=26)
        frames = np.zeros((2, 20, 20, 3), dtype=np.float32)
        frames[0] = np.random.default_rng(27).random((20, 20, 3))
        engine = InferenceEngine(model, tile=10,
                                 skip_gate=SkipGateConfig(1e-4))
        engine.enhance_batch(frames)
        agg = engine.stats
        assert agg.frames == 2
        assert agg.skipped_tiles == 4          # the all-zero frame's grid
        assert agg.tile_count == 4             # the textured frame's
        assert agg.reused_tiles == 0


class TestInt8BatchInvariance:
    """int8 activations take one scale per frame, so an ``(N, ...)`` call
    is N single-frame calls bit for bit.  It used to take one scale over
    the batch (max |delta| 0.3 on an untrained model), which also broke
    exact-mode reuse over a batch: dropping a reused frame changed the
    survivors' scale."""

    def _setup(self):
        model = EDSR(EdsrConfig(n_resblocks=2, n_filters=8), seed=30)
        rng = np.random.default_rng(31)
        frames = rng.random((3, 24, 32, 3), dtype=np.float32)
        frames[1] *= 0.1                   # a dark frame between bright ones
        return model, frames

    @pytest.mark.parametrize("tile", [None, 10])
    @pytest.mark.parametrize("kernel", ["shift", "blocked"])
    def test_batch_equals_per_frame(self, tile, kernel):
        model, frames = self._setup()
        engine = InferenceEngine(model, tile=tile, precision="int8",
                                 kernel=kernel)
        batch = engine.enhance_batch(frames)
        for i, frame in enumerate(frames):
            assert np.array_equal(batch[i], engine.enhance(frame))

    def test_exact_reuse_over_a_batch_is_invisible(self):
        """The brightest frame of the batch is served from the cache, so
        the conv stack sees only the darker survivors — whose bits must
        not depend on who else was in the batch."""
        model, frames = self._setup()
        frames[2] *= 0.5
        plain = InferenceEngine(model, tile=10, precision="int8")
        reusing = InferenceEngine(model, tile=10, precision="int8",
                                  reuse=True)
        reusing.enhance(frames[0])                  # anchor for the batch
        out = reusing.enhance_batch(frames)
        assert reusing.stats.reused_tiles == 12
        assert np.array_equal(out, plain.enhance_batch(frames))


class TestOneExecutionPath:
    def test_engine_has_one_tile_loop_and_one_thread_pool(self):
        """The acceptance shape of the merge: whole-frame, tiled and gated
        execution are one method, not three kept equal by tests."""
        import inspect

        source = inspect.getsource(InferenceEngine)
        assert source.count("ThreadPoolExecutor(") == 1
        assert source.count("self._tile_spans(") == 1

    def test_one_span_returns_the_forward_result_without_a_copy(self):
        model = EDSR(EdsrConfig(n_resblocks=1, n_filters=4), seed=32)
        engine = InferenceEngine(model)
        seen = []
        forward = engine._forward
        engine._forward = lambda x: seen.append(forward(x)) or seen[-1]
        x = np.random.default_rng(33).random((2, 12, 16, 3), dtype=np.float32)
        out = engine.infer_nhwc(x)
        assert out is seen[0]


@pytest.mark.timing
class TestFastPathTiming:
    def test_fast_path_not_slower_than_reference_360p(self):
        """Tier-1-safe guard: the engine must never lose to the reference
        forward on a 360p frame (the ISSUE's 3x claim is asserted in
        ``benchmarks/test_sr_inference.py``; here we only hold a 1.0x
        floor so machine load can't flake the suite)."""
        model = EDSR(EdsrConfig(n_resblocks=2, n_filters=8), seed=18)
        frame = np.random.default_rng(19).random((360, 640, 3),
                                                 dtype=np.float32)
        engine = InferenceEngine(model)
        model.enhance(frame)                               # warm caches
        engine.enhance(frame)
        ref_s = min(_timed(model.enhance, frame) for _ in range(2))
        fast_s = min(_timed(engine.enhance, frame) for _ in range(2))
        assert fast_s <= ref_s, (fast_s, ref_s)


def _timed(fn, arg):
    t0 = time.perf_counter()
    fn(arg)
    return time.perf_counter() - t0
