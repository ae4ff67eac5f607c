"""Parallel server build: the training-cost speedup curve and incremental
rebuilds.

Two operational claims on top of the paper's ~3x-cheaper training:

- per-cluster micro-model training (and per-segment encode/decode) is
  embarrassingly parallel, so the build speeds up with workers until the
  K training tasks are spread one-per-core;
- a content-addressed training cache makes rebuilding an unchanged video
  free of training entirely.

The speedup assertion only fires on machines with >= 4 cores (a
single-core box runs the same code without the parallel win); the cache
assertion holds everywhere.

Honesty contract: every row records the backend and worker count the
build actually ran with, not the requested ones.  ``ParallelConfig`` caps
a request at the host's cores, so on a single-core host the table can
never again publish a "process x2" row whose speedup is structurally
<= 1.0x — those rows now read "serial x1" and the saved JSON carries a
``capped`` flag plus the measurement conditions (``cpu_count``).
"""

import os
import time

from benchmarks.conftest import run_once
from repro.bench import print_table, save_results
from repro.core import ParallelConfig, ServerConfig, build_package
from repro.features import VaeTrainConfig
from repro.sr import EdsrConfig, SrTrainConfig
from repro.video import make_video
from repro.video.codec import CodecConfig

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))
WORKER_COUNTS = (1, 2, 4)
K = 4


def _clip():
    return make_video("parallel-build", genre="music", seed=7, size=(48, 64),
                      duration_seconds=4.0 if FAST else 8.0, fps=10,
                      n_distinct_scenes=K)


def _config(workers: int, cache_dir: str | None = None) -> ServerConfig:
    epochs = 6 if FAST else 20
    return ServerConfig(
        codec=CodecConfig(crf=51),
        max_segment_len=10,
        vae_train=VaeTrainConfig(epochs=4 if FAST else 10, batch_size=4),
        sr_train=SrTrainConfig(epochs=epochs, steps_per_epoch=10,
                               batch_size=8, patch_size=16,
                               lr_decay_epochs=max(2, epochs // 2)),
        micro_config=EdsrConfig(n_resblocks=2, n_filters=8),
        k_override=K,
        validate_in_loop=False,
        parallel=ParallelConfig(workers=workers),
        train_cache_dir=cache_dir,
    )


def test_parallel_build_speedup(benchmark):
    clip = _clip()

    def experiment():
        rows = []
        for workers in WORKER_COUNTS:
            t0 = time.perf_counter()
            package = build_package(clip, _config(workers))
            total = time.perf_counter() - t0
            ran = (f"{package.telemetry.backend} "
                   f"x{package.telemetry.workers}")
            rows.append([workers, ran, total,
                         package.telemetry.stage_seconds["train"],
                         package.telemetry.stage_seconds["encode"],
                         rows[0][2] / total if rows else 1.0])
        return rows

    rows = run_once(benchmark, experiment)
    capped = any(not ran.endswith(f"x{workers}") for workers, ran, *_ in rows)
    print_table("Parallel build: wall-clock vs workers "
                f"(K = {K}, {os.cpu_count()} cores"
                + (", requests capped at the core count)"
                   if capped else ")"),
                ["requested", "ran", "build (s)", "train (s)",
                 "encode (s)", "speedup"], rows)
    save_results("parallel_build", {
        "cpu_count": os.cpu_count(),
        "k": K,
        "capped": capped,
        "rows": [[w, ran, t, tr, en, s]
                 for w, ran, t, tr, en, s in rows],
    })

    speedup_at_max = rows[-1][-1]
    if (os.cpu_count() or 1) >= 4:
        # K >= 3 independent training tasks over 4 process workers must
        # beat the sequential build clearly.
        assert speedup_at_max >= 1.5
    else:
        # The larger requests were capped at the core count: the rows past
        # it ran the same build, so no speedup can be asked of them.
        assert capped
        assert speedup_at_max > 0.3


def test_training_cache_incremental_rebuild(benchmark, tmp_path):
    clip = _clip()
    cache_dir = str(tmp_path / "train-cache")

    def experiment():
        t0 = time.perf_counter()
        cold = build_package(clip, _config(1, cache_dir))
        cold_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = build_package(clip, _config(1, cache_dir))
        warm_seconds = time.perf_counter() - t0
        return cold, cold_seconds, warm, warm_seconds

    cold, cold_seconds, warm, warm_seconds = run_once(benchmark, experiment)
    print_table("Training cache: cold vs warm rebuild",
                ["build", "total (s)", "train (s)", "hits", "misses"],
                [["cold", cold_seconds,
                  cold.telemetry.stage_seconds["train"],
                  cold.telemetry.cache_hits, cold.telemetry.cache_misses],
                 ["warm", warm_seconds,
                  warm.telemetry.stage_seconds["train"],
                  warm.telemetry.cache_hits, warm.telemetry.cache_misses]])
    save_results("parallel_build_cache", {
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "cold_train_seconds": cold.telemetry.stage_seconds["train"],
        "warm_train_seconds": warm.telemetry.stage_seconds["train"],
        "hits": warm.telemetry.cache_hits,
    })

    # Second build of the same clip is a full training-cache hit ...
    assert warm.telemetry.cache_hits == warm.n_models
    assert warm.telemetry.cache_misses == 0
    # ... which reduces the train stage to checkpoint loads.
    assert (warm.telemetry.stage_seconds["train"]
            < cold.telemetry.stage_seconds["train"] / 2)
