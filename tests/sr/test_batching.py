"""Leader–follower SR batching: threaded submitters merge into one engine
call, every rider gets its own frame's bits and its own share of the
counters — at every precision, since int8 activations are quantized per
frame.
"""

import threading

import numpy as np
import pytest

from repro.sr import EDSR, EdsrConfig, InferenceEngine
from repro.sr.batching import BatchingInferenceEngine


class TestBatchingEngine:
    def test_direct_submit_matches_single_frame_engine(self):
        model = EDSR(EdsrConfig(n_resblocks=1, n_filters=4), seed=5)
        batcher = BatchingInferenceEngine(max_batch=4, max_wait_s=0.0)
        rng = np.random.default_rng(0)
        frame = rng.random((16, 20, 3), dtype=np.float32)
        out = batcher.engine_for(model).enhance(frame)
        ref = InferenceEngine(model).enhance(frame)
        assert np.array_equal(out, ref)
        assert batcher.stats.n_batches == 1
        assert batcher.stats.n_frames == 1

    def test_concurrent_submissions_share_batches(self):
        model = EDSR(EdsrConfig(n_resblocks=1, n_filters=4), seed=5)
        batcher = BatchingInferenceEngine(max_batch=8, max_wait_s=0.2)
        rng = np.random.default_rng(1)
        frames = [rng.random((16, 20, 3), dtype=np.float32)
                  for _ in range(8)]
        outs = [None] * 8
        barrier = threading.Barrier(8)

        def worker(i):
            barrier.wait()
            outs[i] = batcher.engine_for(model).enhance(frames[i])

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        engine = InferenceEngine(model)
        for i in range(8):
            assert np.array_equal(outs[i], engine.enhance(frames[i]))
        assert batcher.stats.n_frames == 8
        # Co-arriving frames were actually merged (fewer batches than
        # frames) — with an 0.2 s door this is reliable, not timing luck.
        assert batcher.stats.n_batches < 8
        assert batcher.stats.max_batch_seen >= 2

    def test_merged_int8_batch_matches_serial_engine(self):
        """int8 activations are quantized per frame, so which frames a
        rider shares its batch with cannot change its bits (it used to:
        one scale was taken over the whole batch)."""
        model = EDSR(EdsrConfig(n_resblocks=1, n_filters=4), seed=5)
        batcher = BatchingInferenceEngine(max_batch=4, max_wait_s=0.2,
                                          precision="int8", tile=10)
        rng = np.random.default_rng(3)
        frames = [rng.random((16, 20, 3), dtype=np.float32) * gain
                  for gain in (1.0, 0.05, 0.4, 0.9)]
        outs = [None] * 4
        barrier = threading.Barrier(4)

        def worker(i):
            barrier.wait()
            outs[i] = batcher.engine_for(model).enhance(frames[i])

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert batcher.stats.max_batch_seen >= 2
        engine = InferenceEngine(model, precision="int8", tile=10)
        for i in range(4):
            assert np.array_equal(outs[i], engine.enhance(frames[i]))

    def test_stats_report_per_frame_share(self):
        model = EDSR(EdsrConfig(n_resblocks=1, n_filters=4), seed=5)
        batcher = BatchingInferenceEngine(max_batch=2, max_wait_s=0.0)
        adapter = batcher.engine_for(model)
        frame = np.zeros((16, 20, 3), dtype=np.float32)
        adapter.enhance(frame)
        assert adapter.stats.frames == 1
        assert adapter.stats.flops > 0

    def test_rider_stats_sum_to_batch_aggregate(self):
        """Regression: riders used to receive the *whole* batched call's
        counters, so fleet rollups summed tile_count N times per merged
        batch.  Each rider must now get exactly its per-frame share —
        summing across riders reproduces the true total, regardless of
        how the frames happened to group into batches."""
        model = EDSR(EdsrConfig(n_resblocks=1, n_filters=4), seed=5)
        batcher = BatchingInferenceEngine(max_batch=6, max_wait_s=0.2,
                                          tile=10)
        rng = np.random.default_rng(2)
        frames = [rng.random((16, 20, 3), dtype=np.float32)
                  for _ in range(6)]
        shares = [None] * 6
        barrier = threading.Barrier(6)

        def worker(i):
            adapter = batcher.engine_for(model)
            barrier.wait()
            adapter.enhance(frames[i])
            shares[i] = adapter.stats

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # 2x2 tile grid per (16, 20) frame at tile=10; six riders.
        assert all(s.frames == 1 for s in shares)
        assert sum(s.tile_count for s in shares) == 6 * 4
        assert sum(s.skipped_tiles for s in shares) == 0
        assert all(s.flops > 0 for s in shares)
        # The merge actually happened, so the old N-per-batch inflation
        # would have tripped the equality above.
        assert batcher.stats.max_batch_seen >= 2

    def test_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            BatchingInferenceEngine(max_batch=0)
        with pytest.raises(ValueError, match="max_wait_s"):
            BatchingInferenceEngine(max_wait_s=-1)
        model = EDSR(EdsrConfig(n_resblocks=1, n_filters=4), seed=5)
        batcher = BatchingInferenceEngine()
        with pytest.raises(ValueError, match="RGB frame"):
            batcher.submit(model, np.zeros((16, 20), dtype=np.float32))
