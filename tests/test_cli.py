"""Tests for the command-line interface."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def video_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "video.npz"
    rc = main(["generate", "--genre", "news", "--seconds", "3",
               "--seed", "5", "--out", str(path)])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def package_dir(video_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "pkg"
    rc = main(["prepare", str(video_file), "--out", str(out),
               "--epochs", "4"])
    assert rc == 0
    return out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "--out", "x.npz", "--genre", "sports"])
        assert args.command == "generate"
        assert args.genre == "sports"

    def test_plan_defaults(self):
        args = build_parser().parse_args(["plan"])
        assert args.device == "jetson"
        assert args.resolution == "1080p"

    def test_prepare_parallel_defaults(self):
        args = build_parser().parse_args(
            ["prepare", "v.npz", "--out", "pkg"])
        assert args.workers == 1
        assert args.backend == "process"
        assert args.train_cache is None

    def test_prepare_parallel_flags(self):
        args = build_parser().parse_args(
            ["prepare", "v.npz", "--out", "pkg", "--workers", "4",
             "--backend", "thread", "--train-cache", "cache/"])
        assert args.workers == 4
        assert args.backend == "thread"
        assert args.train_cache == "cache/"


class TestGenerate:
    def test_output_contents(self, video_file):
        with np.load(video_file) as data:
            assert data["frames"].shape[0] == 30  # 3 s at 10 fps
            assert data["frames"].shape[3] == 3
            assert float(data["fps"]) == 10.0


class TestPrepareInfoPlay:
    def test_package_layout(self, package_dir):
        assert (package_dir / "manifest.json").exists()
        assert list((package_dir / "models").glob("*.npz"))

    def test_info(self, package_dir, capsys):
        assert main(["info", str(package_dir)]) == 0
        out = capsys.readouterr().out
        assert "segments" in out
        assert "caching" in out

    def test_play_with_reference(self, package_dir, video_file, capsys):
        assert main(["play", str(package_dir),
                     "--reference", str(video_file)]) == 0
        out = capsys.readouterr().out
        assert "PSNR" in out

    def test_play_without_reference(self, package_dir, capsys):
        assert main(["play", str(package_dir)]) == 0
        assert "quality" not in capsys.readouterr().out

    @pytest.mark.parametrize("flag, message", [
        ("--sr-batch", "sr_batch must be >= 1"),
        ("--sr-threads", "threads must be >= 1"),
    ])
    def test_play_rejects_an_explicit_zero(self, package_dir, flag, message):
        """``0`` is an invalid value the user typed, not "unset": it must
        reach the config's own check instead of playing as the default."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "play", str(package_dir),
             flag, "0"], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode != 0
        assert message in proc.stderr


class TestServe:
    @pytest.mark.parametrize("flags", [["--reuse"], ["--reuse-tol", "0.01"]])
    def test_trace_mode_refuses_reuse(self, package_dir, flags, capsys):
        """Trace sessions run no SR engine, so ``--reuse`` used to print
        capacity numbers the flag never touched.  It is answered like
        ``--origin`` without playback mode: stderr and rc 2."""
        rc = main(["serve", str(package_dir), "--sessions", "2",
                   "--mode", "trace"] + flags)
        captured = capsys.readouterr()
        assert rc == 2
        assert "--mode playback" in captured.err
        assert "completed" not in captured.out


class TestPrepareParallel:
    def test_parallel_prepare_with_cache(self, video_file, tmp_path, capsys):
        out = tmp_path / "pkg"
        cache = tmp_path / "cache"
        rc = main(["prepare", str(video_file), "--out", str(out),
                   "--epochs", "2", "--workers", "2",
                   "--train-cache", str(cache)])
        assert rc == 0
        first = capsys.readouterr().out
        # The reported backend follows the host: a pool is requested, but
        # a single-core machine runs (and reports) serial.
        from repro.core import BuildTelemetry, ParallelConfig
        from repro.obs import Observability
        ran = BuildTelemetry.for_build(ParallelConfig(workers=2),
                                       Observability())
        assert f"build stages ({ran.backend} x{ran.workers}):" in first
        assert "train" in first
        assert "hits" in first
        assert list(cache.glob("*.npz"))

        rc = main(["prepare", str(video_file), "--out", str(tmp_path / "p2"),
                   "--epochs", "2", "--workers", "2",
                   "--train-cache", str(cache)])
        assert rc == 0
        second = capsys.readouterr().out
        assert "0 misses" in second  # full training-cache hit


class TestObservabilityFlags:
    def test_play_trace_out(self, package_dir, tmp_path, capsys):
        import json

        from repro.obs import stage_totals

        trace_path = tmp_path / "trace.json"
        assert main(["play", str(package_dir),
                     "--trace-out", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert f"trace -> {trace_path}" in out

        data = json.loads(trace_path.read_text())
        assert data["name"] == "play"
        totals = stage_totals(data)
        assert "decode" in totals
        # Per-stage totals in the exported tree match the printed summary
        # (up to the 2-decimal rounding of the table formatter).
        compared = 0
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0] in totals:
                assert float(parts[1]) == pytest.approx(
                    totals[parts[0]], abs=5.1e-3)
                compared += 1
        assert compared >= 2

    def test_play_metrics_out(self, package_dir, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.prom"
        assert main(["play", str(package_dir),
                     "--metrics-out", str(metrics_path)]) == 0
        assert f"metrics -> {metrics_path}" in capsys.readouterr().out
        text = metrics_path.read_text()
        assert "# TYPE dcsr_playback_frames_total counter" in text
        assert "dcsr_playback_stage_seconds_total" in text
        assert 'stage="decode"' in text

    def test_prepare_trace_and_metrics_out(self, video_file, tmp_path,
                                           capsys):
        import json

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.prom"
        rc = main(["prepare", str(video_file), "--out", str(tmp_path / "pkg"),
                   "--epochs", "2", "--trace-out", str(trace_path),
                   "--metrics-out", str(metrics_path)])
        assert rc == 0
        capsys.readouterr()
        data = json.loads(trace_path.read_text())
        assert data["name"] == "prepare"
        assert [c["name"] for c in data["children"]] == ["build"]
        assert "dcsr_build_stage_seconds_total" in metrics_path.read_text()


class TestSummaryFormat:
    def test_playback_summary_renders_a_table(self, package_dir, capsys):
        """Pin the shared-format contract: the stage block of the playback
        summary is a ``format_table`` rendering (header + dashes), under
        the preserved ``playback stages`` headline."""
        assert main(["play", str(package_dir)]) == 0
        lines = capsys.readouterr().out.splitlines()
        (start,) = [i for i, line in enumerate(lines)
                    if line.startswith("playback stages")]
        header = lines[start + 1].split()
        assert header == ["stage", "seconds"]
        assert set(lines[start + 2].strip()) <= {"-", " "}
        stages = []
        for line in lines[start + 3:]:
            assert line.startswith("  ")      # table rows stay indented
            stages.append(line.split()[0])
            if stages[-1] == "total":
                break
        assert stages[0] == "download"
        assert stages[-1] == "total"


class TestPlan:
    def test_plan_jetson_4k_shows_oom(self, capsys):
        assert main(["plan", "--device", "jetson", "--resolution", "4k"]) == 0
        out = capsys.readouterr().out
        assert "OOM" in out
        assert "dcSR-1" in out

    def test_plan_desktop_no_oom(self, capsys):
        assert main(["plan", "--device", "desktop", "--resolution", "4k"]) == 0
        assert "OOM" not in capsys.readouterr().out
