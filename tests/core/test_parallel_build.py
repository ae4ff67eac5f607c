"""Parallel server builds: determinism, config validation, error paths.

The determinism contract (docs/performance.md): for a fixed ``ServerConfig``
— including ``ParallelConfig.chunk_size`` — the built package is
bit-identical at any worker count and backend, because each stage has one
task function, run inline or on a pool, and models cross the task boundary
through the lossless ``repro.nn.serialize`` round-trip.
"""

import numpy as np
import pytest

import repro.core.server as server_mod
from repro.core import (
    ClusterTrainingError,
    ParallelConfig,
    ServerConfig,
    build_package,
)
from repro.core.parallel import BUILD_STAGES
from repro.features import VaeTrainConfig
from repro.nn import serialize_to_bytes
from repro.sr import EdsrConfig, SrTrainConfig
from repro.video import make_video
from repro.video.codec import CodecConfig


@pytest.fixture(scope="module")
def tiny_clip():
    return make_video("parallel", "news", seed=3, size=(32, 32),
                      duration_seconds=3.0, fps=8, n_distinct_scenes=3)


def tiny_config(**overrides) -> ServerConfig:
    base = dict(
        codec=CodecConfig(crf=51),
        fixed_segment_len=6,
        vae_train=VaeTrainConfig(epochs=3, batch_size=4),
        sr_train=SrTrainConfig(epochs=2, steps_per_epoch=3, batch_size=2,
                               patch_size=8),
        micro_config=EdsrConfig(n_resblocks=1, n_filters=4),
        k_override=2,
        validate_in_loop=False,
        parallel=ParallelConfig(chunk_size=2),
    )
    base.update(overrides)
    return ServerConfig(**base)


def assert_identical_packages(a, b):
    assert a.manifest == b.manifest
    assert set(a.models) == set(b.models)
    for label in a.models:
        assert (serialize_to_bytes(a.models[label])
                == serialize_to_bytes(b.models[label]))
    assert np.array_equal(a.features, b.features)
    for seg_a, seg_b in zip(a.encoded.segments, b.encoded.segments):
        assert seg_a.payload == seg_b.payload
        assert seg_a.frames == seg_b.frames
    for frame_a, frame_b in zip(a.decoded_low.frames, b.decoded_low.frames):
        assert np.array_equal(frame_a.y, frame_b.y)


@pytest.fixture(scope="module")
def serial_package(tiny_clip):
    return build_package(tiny_clip, tiny_config())


@pytest.mark.usefixtures("four_cores")
class TestDeterminism:
    def test_process_pool_bit_identical(self, tiny_clip, serial_package):
        pooled = build_package(tiny_clip, tiny_config(
            parallel=ParallelConfig(workers=2, backend="process",
                                    chunk_size=2)))
        assert_identical_packages(serial_package, pooled)

    def test_thread_pool_bit_identical(self, tiny_clip, serial_package):
        pooled = build_package(tiny_clip, tiny_config(
            parallel=ParallelConfig(workers=3, backend="thread",
                                    chunk_size=2)))
        assert_identical_packages(serial_package, pooled)

    def test_worker_count_does_not_matter(self, tiny_clip):
        two = build_package(tiny_clip, tiny_config(
            parallel=ParallelConfig(workers=2, backend="thread",
                                    chunk_size=2)))
        four = build_package(tiny_clip, tiny_config(
            parallel=ParallelConfig(workers=4, backend="thread",
                                    chunk_size=2)))
        assert_identical_packages(two, four)


class TestParallelConfig:
    def test_bad_backend(self):
        with pytest.raises(ValueError, match="backend"):
            ParallelConfig(backend="gpu")

    def test_bad_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ParallelConfig(workers=0, backend="process")

    def test_bad_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            ParallelConfig(chunk_size=0)

    def test_one_worker_degrades_to_serial(self, tiny_clip, four_cores):
        package = build_package(tiny_clip, tiny_config(
            parallel=ParallelConfig(workers=1, backend="thread",
                                    chunk_size=2)))
        assert package.telemetry.backend == "serial"
        assert package.telemetry.workers == 1

    def test_default_is_serial(self):
        config = ParallelConfig()
        assert config.workers == 1
        assert config.resolve_workers() == 1

    def test_workers_none_resolves_to_cpu_count(self):
        import os
        config = ParallelConfig(workers=None, backend="process")
        assert config.resolve_workers() == (os.cpu_count() or 1)


class TestAutoCalibration:
    """Honesty gate: a pool that cannot win must not *report* a pool.

    ``parallel_build.json`` once published "process x2" rows measured on
    a single-core host — speedups structurally <= 1.0x.  Worker requests
    are capped at the host's cores, so such a config runs and reports
    serial.
    """

    def test_single_core_host_calibrates_to_serial(self, host_cores):
        host_cores(1)
        assert ParallelConfig(workers=2).resolve_workers() == 1
        assert ParallelConfig(workers=None).resolve_workers() == 1

    def test_multi_core_host_keeps_the_pool(self, tiny_clip, four_cores):
        package = build_package(tiny_clip, tiny_config(
            parallel=ParallelConfig(workers=2, backend="process",
                                    chunk_size=2)))
        assert package.telemetry.backend == "process"
        assert package.telemetry.workers == 2

    def test_request_above_cores_is_capped(self, four_cores):
        assert ParallelConfig(workers=16).resolve_workers() == 4
        assert ParallelConfig(workers=3).resolve_workers() == 3

    def test_calibrated_build_reports_serial(self, tiny_clip, host_cores):
        host_cores(1)
        package = build_package(tiny_clip, tiny_config(
            parallel=ParallelConfig(workers=2, backend="process",
                                    chunk_size=2)))
        assert package.telemetry.backend == "serial"
        assert package.telemetry.workers == 1
        assert package.telemetry.summary_lines()[0] == \
            "build stages (serial x1):"


@pytest.mark.usefixtures("four_cores")
class TestErrorPropagation:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_pool_failure_carries_cluster_id(self, tiny_clip, monkeypatch,
                                             backend):
        def failing_train(model, lq, hr, config):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(server_mod, "train_sr", failing_train)
        with pytest.raises(ClusterTrainingError, match="cluster 0"):
            build_package(tiny_clip, tiny_config(
                parallel=ParallelConfig(workers=2, backend=backend,
                                        chunk_size=2)))

    def test_error_label_attribute(self, tiny_clip, monkeypatch):
        monkeypatch.setattr(
            server_mod, "train_sr",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")))
        with pytest.raises(ClusterTrainingError) as excinfo:
            build_package(tiny_clip, tiny_config(
                parallel=ParallelConfig(workers=2, backend="thread",
                                        chunk_size=2)))
        assert excinfo.value.label == 0
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_serial_failure_carries_cluster_id(self, tiny_clip, monkeypatch):
        """One error contract: the inline worker attributes a training
        failure exactly as a pool does (it used to raise the bare
        exception)."""
        monkeypatch.setattr(
            server_mod, "train_sr",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")))
        with pytest.raises(ClusterTrainingError, match="boom") as excinfo:
            build_package(tiny_clip, tiny_config())
        assert excinfo.value.label == 0
        assert isinstance(excinfo.value.__cause__, RuntimeError)


class TestTelemetry:
    def test_stages_recorded(self, serial_package):
        telemetry = serial_package.telemetry
        for name in ("split", "encode", "embed", "cluster", "train"):
            assert name in telemetry.stage_seconds
        assert "validate" not in telemetry.stage_seconds  # disabled above
        assert set(telemetry.stage_seconds) <= set(BUILD_STAGES)
        assert telemetry.total_seconds > 0
        assert telemetry.train_flops > 0
        assert telemetry.backend == "serial"
        assert telemetry.workers == 1

    def test_validate_stage_recorded_when_enabled(self, tiny_clip):
        package = build_package(tiny_clip, tiny_config(validate_in_loop=True))
        assert "validate" in package.telemetry.stage_seconds

    def test_parallel_metadata(self, tiny_clip, four_cores):
        package = build_package(tiny_clip, tiny_config(
            parallel=ParallelConfig(workers=2, backend="thread",
                                    chunk_size=2)))
        telemetry = package.telemetry
        assert telemetry.backend == "thread"
        assert telemetry.workers == 2
        assert set(telemetry.train_seconds_per_cluster) == set(package.models)

    @pytest.mark.parametrize("parallel", [
        ParallelConfig(chunk_size=2),
        ParallelConfig(workers=2, backend="thread", chunk_size=2),
        ParallelConfig(workers=2, backend="process", chunk_size=2),
    ], ids=["serial", "thread", "process"])
    def test_training_trace_is_the_same_on_every_backend(
            self, tiny_clip, four_cores, parallel):
        """The task returns what it timed and the parent records it, so a
        pool build's trace carries the per-cluster ``train_sr`` span and
        the epoch histogram exactly as the inline build's does (pools
        used to record neither)."""
        config = tiny_config(parallel=parallel)
        package = build_package(tiny_clip, config)
        obs = package.telemetry.obs
        clusters = obs.tracer.root.find("train_cluster")
        assert len(clusters) == package.n_models
        assert sorted(s.attrs["cluster"] for s in clusters) == \
            sorted(package.models)
        for span in clusters:
            (train_sr,) = span.find("train_sr")
            assert train_sr.attrs["epochs"] == config.sr_train.epochs
            assert 0 < train_sr.elapsed <= span.elapsed
            assert span.elapsed == pytest.approx(
                package.telemetry.train_seconds_per_cluster[
                    span.attrs["cluster"]])
        assert obs.metrics.histogram("dcsr_sr_epoch_seconds").count() == \
            package.n_models * config.sr_train.epochs

    def test_summary_lines_printable(self, serial_package):
        lines = serial_package.telemetry.summary_lines()
        assert any("train" in line for line in lines)
        assert any("total" in line for line in lines)
