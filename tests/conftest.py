"""Shared fixtures: one small dcSR package built once per test session.

Training is the expensive part, so pipeline tests share a single package
built with reduced (but functional) settings.
"""

import numpy as np
import pytest

from repro.core import ServerConfig, build_package
from repro.features import VaeTrainConfig
from repro.sr import EdsrConfig, SrTrainConfig
from repro.video import make_video
from repro.video.codec import CodecConfig


@pytest.fixture(scope="session")
def small_clip():
    return make_video("fixture", "music", seed=7, size=(48, 64),
                      duration_seconds=8.0, fps=10, n_distinct_scenes=3)


@pytest.fixture(scope="session")
def small_config():
    return ServerConfig(
        codec=CodecConfig(crf=48),
        vae_train=VaeTrainConfig(epochs=10, batch_size=4),
        sr_train=SrTrainConfig(epochs=25, steps_per_epoch=10, batch_size=8,
                               patch_size=16, learning_rate=5e-3,
                               lr_decay_epochs=10),
        micro_config=EdsrConfig(n_resblocks=2, n_filters=8),
        seed=0,
    )


@pytest.fixture(scope="session")
def package(small_clip, small_config):
    return build_package(small_clip, small_config)


@pytest.fixture
def host_cores(monkeypatch):
    """``host_cores(n)`` pins the core count the server build's worker cap
    sees (``ParallelConfig.resolve_workers`` reads ``os.cpu_count``)."""
    import repro.core.parallel as parallel_mod

    def pin(n):
        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: n)
    return pin


@pytest.fixture
def four_cores(host_cores):
    """Enough cores that ``x2``-``x4`` pool requests run as real pools on
    any CI box."""
    host_cores(4)
