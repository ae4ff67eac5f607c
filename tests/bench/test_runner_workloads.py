"""Tests for the benchmark harness (result printers and workloads)."""

import json

import numpy as np
import pytest

from repro.bench import (
    CORPUS_GENRES,
    cdf_points,
    corpus_spec,
    format_table,
    make_corpus,
    print_series,
    print_table,
    quality_big_train_config,
    quality_server_config,
    save_results,
)


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table("Demo", ["name", "value"],
                            [["alpha", 1.5], ["b", 20.25]])
        lines = text.splitlines()
        assert lines[0] == "== Demo =="
        assert "name" in lines[1] and "value" in lines[1]
        assert "alpha" in lines[3]

    def test_float_formatting(self):
        text = format_table("F", ["x"], [[0.000123], [12345.6], [3.14159], [0.0]])
        assert "0.000123" in text
        assert "3.14" in text
        assert "0" in text

    def test_print_helpers_do_not_crash(self, capsys):
        print_table("T", ["a"], [[1]])
        print_series("S", [1, 2], {"y": [10, 20]})
        out = capsys.readouterr().out
        assert "== T ==" in out
        assert "== S ==" in out


class TestCdfPoints:
    def test_empty(self):
        assert cdf_points([]) == []

    def test_sorted_fractions(self):
        points = cdf_points([3.0, 1.0, 2.0])
        values = [v for v, _ in points]
        fracs = [f for _, f in points]
        assert values == [1.0] * 5 + [2.0] * 5 + [3.0]
        assert fracs == [i / 10 for i in range(11)]

    def test_point_count(self):
        points = cdf_points(list(range(100)))
        assert len(points) == 11

    def test_single_value_input(self):
        points = cdf_points([4.2])
        assert len(points) == 11
        assert all(v == 4.2 for v, _ in points)
        assert points[0][1] == 0.0
        assert points[-1][1] == 1.0


class TestSaveResults:
    def test_writes_json(self, tmp_path):
        path = save_results("unit", {"a": 1, "arr": np.array([1.0, 2.0]),
                                     "np_int": np.int64(5)},
                            directory=tmp_path)
        data = json.loads(path.read_text())
        assert data["a"] == 1
        assert data["arr"] == [1.0, 2.0]
        assert data["np_int"] == 5

    def test_unserializable_raises(self, tmp_path):
        with pytest.raises(TypeError):
            save_results("bad", {"x": object()}, directory=tmp_path)

    def test_trace_is_embedded(self, tmp_path):
        from repro.obs import Observability, SimulatedClock, stage_totals

        obs = Observability(clock=SimulatedClock())
        with obs.tracer.span("decode", stage="decode"):
            obs.clock.advance(1.5)
        path = save_results("traced", {"fps": 30.0}, directory=tmp_path,
                            trace=obs)
        data = json.loads(path.read_text())
        assert data["fps"] == 30.0
        assert data["trace"]["name"] == "session"
        assert stage_totals(data["trace"]) == {"decode": 1.5}


class TestWorkloads:
    def test_corpus_has_six_genres(self):
        assert len(CORPUS_GENRES) == 6
        assert len(set(CORPUS_GENRES)) == 6

    def test_corpus_deterministic(self):
        spec = corpus_spec()
        a = make_corpus(spec)
        b = make_corpus(spec)
        assert len(a) == 6
        for clip_a, clip_b in zip(a, b):
            np.testing.assert_array_equal(clip_a.frames, clip_b.frames)

    def test_corpus_names_and_genres(self):
        corpus = make_corpus()
        for clip, genre in zip(corpus, CORPUS_GENRES):
            assert clip.genre == genre
            assert genre in clip.name

    def test_fast_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_FAST", "1")
        spec = corpus_spec()
        assert spec.fast
        assert spec.duration_seconds < 10.0
        assert spec.sr_epochs < 25

    def test_server_config_uses_spec(self):
        spec = corpus_spec()
        config = quality_server_config(spec)
        assert config.codec.crf == spec.crf
        assert config.max_segment_len == spec.max_segment_frames
        assert config.sr_train.epochs == spec.sr_epochs

    def test_big_train_config_matches_step_budget(self):
        spec = corpus_spec()
        big = quality_big_train_config(spec)
        micro = quality_server_config(spec).sr_train
        assert big.epochs == micro.epochs
        assert big.steps_per_epoch == micro.steps_per_epoch
