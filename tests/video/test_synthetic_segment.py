"""Tests for the synthetic video generator and segmentation."""

import numpy as np
import pytest

from repro.video import (
    GENRES,
    detect_segments,
    fixed_length_segments,
    frame_difference,
    make_video,
)
from repro.video.segment import Segment
from repro.video.synthetic import make_scene, render_frame, scene_schedule


class TestSceneRendering:
    def test_deterministic(self):
        a = render_frame(make_scene(0, 42, "sports"), 3, 32, 48)
        b = render_frame(make_scene(0, 42, "sports"), 3, 32, 48)
        np.testing.assert_array_equal(a, b)

    def test_different_scenes_differ(self):
        a = render_frame(make_scene(0, 42, "sports"), 0, 32, 48)
        b = render_frame(make_scene(1, 42, "sports"), 0, 32, 48)
        assert np.mean(np.abs(a - b)) > 0.02

    def test_output_range_and_shape(self):
        frame = render_frame(make_scene(2, 1, "news"), 5, 32, 48)
        assert frame.shape == (32, 48, 3)
        assert frame.min() >= 0.0 and frame.max() <= 1.0
        assert frame.dtype == np.float32

    def test_motion_between_frames(self):
        spec = make_scene(0, 3, "sports")
        a = render_frame(spec, 0, 32, 48)
        b = render_frame(spec, 5, 32, 48)
        assert np.mean(np.abs(a - b)) > 1e-4

    def test_news_less_motion_than_sports(self):
        def motion(genre):
            spec = make_scene(0, 11, genre)
            a = render_frame(spec, 0, 48, 64)
            b = render_frame(spec, 10, 48, 64)
            return float(np.mean(np.abs(a - b)))
        assert motion("news") < motion("sports")


class TestScheduleAndVideo:
    def test_schedule_covers_exactly(self):
        sched = scene_schedule(300, 30.0, "music", seed=5, n_distinct_scenes=4)
        assert sum(n for _, n in sched) == 300

    def test_schedule_no_adjacent_repeats(self):
        sched = scene_schedule(600, 30.0, "music", seed=5, n_distinct_scenes=3)
        for (a, _), (b, _) in zip(sched[:-1], sched[1:]):
            assert a != b

    def test_schedule_has_recurrence(self):
        sched = scene_schedule(2000, 30.0, "music", seed=5,
                               n_distinct_scenes=3, recurrence=0.5)
        ids = [s for s, _ in sched]
        assert len(ids) > len(set(ids))  # some scene appears twice

    def test_one_scene_is_a_single_shot(self):
        """Regression: the second shot used to draw from an empty set of
        scenes other than the previous one."""
        assert scene_schedule(300, 30.0, "music", seed=5,
                              n_distinct_scenes=1) == [(0, 300)]
        clip = make_video("one", "news", seed=1, size=(32, 48),
                          duration_seconds=30.0, fps=10, n_distinct_scenes=1)
        assert clip.n_frames == 300
        assert not clip.scene_ids.any()

    def test_multi_scene_schedules_are_pinned(self):
        """The RNG draws of schedules with two or more scenes are part of
        every seeded clip in the repo; they must not move."""
        assert scene_schedule(300, 30.0, "music", seed=5, n_distinct_scenes=4) == [
            (0, 102), (1, 77), (0, 58), (1, 45), (2, 18)]
        assert scene_schedule(120, 10.0, "sports", seed=9, n_distinct_scenes=2) == [
            (0, 44), (1, 38), (0, 38)]

    def test_schedule_bad_args(self):
        with pytest.raises(ValueError):
            scene_schedule(10, 30.0, "music", 0, n_distinct_scenes=0)

    def test_make_video_shapes(self):
        clip = make_video("v", "news", seed=1, size=(32, 48),
                          duration_seconds=2.0, fps=10)
        assert clip.frames.shape == (20, 32, 48, 3)
        assert clip.scene_ids.shape == (20,)
        assert clip.n_frames == 20
        assert clip.height == 32 and clip.width == 48
        assert np.isclose(clip.duration_seconds, 2.0)

    def test_make_video_deterministic(self):
        a = make_video("v", "gaming", seed=9, size=(32, 48), duration_seconds=1.0, fps=10)
        b = make_video("v", "gaming", seed=9, size=(32, 48), duration_seconds=1.0, fps=10)
        np.testing.assert_array_equal(a.frames, b.frames)

    def test_make_video_seed_changes_content(self):
        a = make_video("v", "gaming", seed=1, size=(32, 48), duration_seconds=1.0, fps=10)
        b = make_video("v", "gaming", seed=2, size=(32, 48), duration_seconds=1.0, fps=10)
        assert np.mean(np.abs(a.frames - b.frames)) > 0.01

    def test_unknown_genre(self):
        with pytest.raises(ValueError):
            make_video("v", "nope", seed=1)

    def test_unaligned_size(self):
        with pytest.raises(ValueError):
            make_video("v", "news", seed=1, size=(30, 48))

    def test_all_genres_render(self):
        for genre in GENRES:
            clip = make_video("v", genre, seed=3, size=(32, 48),
                              duration_seconds=0.5, fps=10)
            assert clip.n_frames == 5

    def test_scene_changes_listed(self):
        clip = make_video("v", "music", seed=7, size=(32, 48),
                          duration_seconds=20.0, fps=10, n_distinct_scenes=4)
        changes = clip.scene_changes()
        assert changes  # a 20 s music video has several shots
        for c in changes:
            assert clip.scene_ids[c] != clip.scene_ids[c - 1]


class TestFrameDifference:
    def test_identical_frames_zero(self):
        frames = np.zeros((3, 8, 8, 3), dtype=np.float32)
        np.testing.assert_allclose(frame_difference(frames), 0.0)

    def test_single_frame(self):
        assert frame_difference(np.zeros((1, 8, 8, 3), np.float32)).size == 0

    def test_cut_has_large_difference(self):
        clip = make_video("v", "music", seed=7, size=(32, 48),
                          duration_seconds=10.0, fps=10, n_distinct_scenes=3)
        diffs = frame_difference(clip.frames)
        changes = clip.scene_changes()
        if changes:
            cut_diffs = diffs[[c - 1 for c in changes]]
            within = np.delete(diffs, [c - 1 for c in changes])
            assert cut_diffs.min() > within.mean()

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            frame_difference(np.zeros((3, 8, 8), np.float32))


class TestDetectSegments:
    def _clip(self):
        return make_video("v", "music", seed=7, size=(32, 48),
                          duration_seconds=15.0, fps=10, n_distinct_scenes=4)

    def test_segments_tile_video(self):
        clip = self._clip()
        segs = detect_segments(clip.frames)
        assert segs[0].start == 0
        assert segs[-1].end == clip.n_frames
        for a, b in zip(segs[:-1], segs[1:]):
            assert a.end == b.start

    def test_matches_ground_truth_cuts(self):
        clip = self._clip()
        segs = detect_segments(clip.frames)
        detected = {s.start for s in segs} - {0}
        truth = set(clip.scene_changes())
        # Detection should recover at least 80% of real cuts on synthetic content.
        assert len(detected & truth) >= 0.8 * len(truth)

    def test_min_length_respected(self):
        clip = self._clip()
        segs = detect_segments(clip.frames)
        assert all(s.n_frames >= 2 for s in segs)

    def test_max_length_respected(self):
        clip = self._clip()
        segs = detect_segments(clip.frames, max_length=10)
        assert all(s.n_frames <= 10 for s in segs)

    def test_segment_indices_sequential(self):
        segs = detect_segments(self._clip().frames)
        assert [s.index for s in segs] == list(range(len(segs)))


class TestFixedLength:
    def test_exact_division(self):
        segs = fixed_length_segments(20, 5)
        assert len(segs) == 4
        assert all(s.n_frames == 5 for s in segs)

    def test_remainder(self):
        segs = fixed_length_segments(22, 5)
        assert segs[-1].n_frames == 2

    def test_bad_args(self):
        with pytest.raises(ValueError):
            fixed_length_segments(10, 0)
        with pytest.raises(ValueError):
            fixed_length_segments(0, 5)


class TestSegmentDataclass:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Segment(index=0, start=5, end=5)
