"""The content-addressed training cache: hits skip training, stale keys miss."""

import numpy as np
import pytest

import repro.core.server as server_mod
from repro.core import ParallelConfig, ServerConfig, TrainingCache, build_package
from repro.features import VaeTrainConfig
from repro.nn import serialize_to_bytes
from repro.sr import EdsrConfig, SrTrainConfig
from repro.video import make_video
from repro.video.codec import CodecConfig


@pytest.fixture(scope="module")
def tiny_clip():
    return make_video("cache", "news", seed=3, size=(32, 32),
                      duration_seconds=3.0, fps=8, n_distinct_scenes=3)


def cached_config(cache_dir, **overrides) -> ServerConfig:
    base = dict(
        codec=CodecConfig(crf=51),
        fixed_segment_len=6,
        vae_train=VaeTrainConfig(epochs=3, batch_size=4),
        sr_train=SrTrainConfig(epochs=2, steps_per_epoch=3, batch_size=2,
                               patch_size=8),
        micro_config=EdsrConfig(n_resblocks=1, n_filters=4),
        k_override=2,
        validate_in_loop=False,
        train_cache_dir=str(cache_dir),
    )
    base.update(overrides)
    return ServerConfig(**base)


@pytest.fixture
def train_spy(monkeypatch):
    """Counts ``train_sr`` calls made by the (serial) build."""
    calls = []
    real_train = server_mod.train_sr

    def counting_train(model, lq, hr, config, **kwargs):
        calls.append(lq.shape[0])
        return real_train(model, lq, hr, config, **kwargs)

    monkeypatch.setattr(server_mod, "train_sr", counting_train)
    return calls


class TestCacheHits:
    def test_second_build_skips_training(self, tiny_clip, tmp_path, train_spy):
        first = build_package(tiny_clip, cached_config(tmp_path))
        assert len(train_spy) == first.n_models
        assert first.telemetry.cache_misses == first.n_models
        assert first.telemetry.cache_hits == 0

        train_spy.clear()
        second = build_package(tiny_clip, cached_config(tmp_path))
        assert train_spy == []          # full cache hit: train_sr never called
        assert second.telemetry.cache_hits == second.n_models
        assert second.telemetry.cache_misses == 0
        assert second.telemetry.train_flops == 0

        for label in first.models:
            assert (serialize_to_bytes(first.models[label])
                    == serialize_to_bytes(second.models[label]))
        assert first.manifest == second.manifest

    def test_hits_bypass_the_pool_too(self, tiny_clip, tmp_path, four_cores):
        build_package(tiny_clip, cached_config(tmp_path))
        warm = build_package(tiny_clip, cached_config(
            tmp_path, parallel=ParallelConfig(workers=2, backend="process")))
        assert warm.telemetry.cache_hits == warm.n_models
        assert warm.telemetry.cache_misses == 0

    def test_cache_directory_contents(self, tiny_clip, tmp_path):
        package = build_package(tiny_clip, cached_config(tmp_path))
        cache = TrainingCache(tmp_path)
        assert len(list(cache.root.glob("*.npz"))) == package.n_models


class TestStaleKeys:
    def test_changed_crf_misses(self, tiny_clip, tmp_path, train_spy):
        build_package(tiny_clip, cached_config(tmp_path))
        train_spy.clear()
        changed = build_package(tiny_clip, cached_config(
            tmp_path, codec=CodecConfig(crf=45)))
        # New CRF -> new decoded LQ frames -> every key misses.
        assert len(train_spy) == changed.n_models
        assert changed.telemetry.cache_hits == 0

    def test_changed_train_config_misses(self, tiny_clip, tmp_path, train_spy):
        build_package(tiny_clip, cached_config(tmp_path))
        train_spy.clear()
        changed = build_package(tiny_clip, cached_config(
            tmp_path,
            sr_train=SrTrainConfig(epochs=3, steps_per_epoch=3, batch_size=2,
                                   patch_size=8)))
        assert len(train_spy) == changed.n_models
        assert changed.telemetry.cache_hits == 0

    def test_changed_seed_misses(self, tiny_clip, tmp_path, train_spy):
        build_package(tiny_clip, cached_config(tmp_path))
        train_spy.clear()
        changed = build_package(tiny_clip, cached_config(tmp_path, seed=11))
        assert len(train_spy) == changed.n_models


class TestKeyScheme:
    LQ = np.zeros((2, 8, 8, 3), dtype=np.float32)
    HR = np.ones((2, 16, 16, 3), dtype=np.float32)
    MODEL = EdsrConfig(n_resblocks=1, n_filters=4)
    TRAIN = SrTrainConfig(epochs=1, steps_per_epoch=1)

    def key(self, **overrides):
        args = dict(lq_frames=self.LQ, hr_frames=self.HR,
                    model_config=self.MODEL, train_config=self.TRAIN, seed=0)
        args.update(overrides)
        return TrainingCache.key(args["lq_frames"], args["hr_frames"],
                                 args["model_config"], args["train_config"],
                                 args["seed"])

    def test_deterministic(self):
        assert self.key() == self.key()

    def test_frame_content_sensitive(self):
        assert self.key() != self.key(lq_frames=self.LQ + 0.5)

    def test_frame_order_sensitive(self):
        """The patch sampler indexes frames, so order is part of the key."""
        hr = np.stack([self.HR[0], self.HR[1] * 2.0])
        assert (TrainingCache.key(self.LQ, hr, self.MODEL, self.TRAIN, 0)
                != TrainingCache.key(self.LQ, hr[::-1], self.MODEL,
                                     self.TRAIN, 0))

    def test_config_and_seed_sensitive(self):
        assert self.key() != self.key(model_config=EdsrConfig(
            n_resblocks=2, n_filters=4))
        assert self.key() != self.key(train_config=SrTrainConfig(
            epochs=2, steps_per_epoch=1))
        assert self.key() != self.key(seed=1)

    def test_roundtrip(self, tmp_path):
        from repro.sr import EDSR
        cache = TrainingCache(tmp_path)
        model = EDSR(self.MODEL, seed=5)
        key = self.key()
        assert key not in cache
        cache.put(key, model)
        assert key in cache
        restored = cache.get(key, self.MODEL)
        assert serialize_to_bytes(restored) == serialize_to_bytes(model)

    def test_miss_returns_none(self, tmp_path):
        cache = TrainingCache(tmp_path)
        assert cache.get("0" * 64, self.MODEL) is None
