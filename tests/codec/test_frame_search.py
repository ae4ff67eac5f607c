"""The encoder's whole-frame motion search held to the per-macroblock search
it replaced.

``motion.search_frame`` finds every macroblock's integer vector in a fixed
number of array passes, refines all of them to half-pel at once and picks
B modes for the whole frame.  ``scalar_reference.choose_prediction`` keeps
the old search: one clipped-window ``np.argmin`` per macroblock and
reference, one ``compensate_halfpel`` per refinement, Python's ``min`` over
(forward, backward, bidirectional).  Every SAD is exact, so the two must
agree on vector, SAD and mode to the last tie — over a seeded sweep of
frame sizes, search ranges, half-pel on and off, P and B frames, and
contents where offsets tie: constant frames (every offset ties), flat
patches and stripes (many do), and B frames whose two references are the
same plane (forward, backward and bidirectional SADs all equal).

The search's temporaries are banded: its peak allocation at 352x640 and the
widest window stays below one uint16 copy of the frame per horizontal
offset.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from repro.video.codec.motion import MB, search_frame

from . import scalar_reference as ref

SIZES = ((32, 16), (48, 64), (48, 80))
RANGES = (1, 3, 7, 20)
KINDS = ("moving", "constant", "patches", "stripes")


def _planes(kind, height, width, n_refs, seed):
    """A target and ``n_refs`` reference luma planes (uint8)."""
    rng = np.random.default_rng(seed)
    if kind == "constant":
        levels = rng.integers(0, 256, size=n_refs + 1)
        planes = [np.full((height, width), v, dtype=np.uint8) for v in levels]
        return planes[0], planes[1:]
    if kind == "moving":
        # One scene seen through shifted windows, plus a little noise.
        scene = rng.integers(0, 256, size=(height + 24, width + 24))
        planes = []
        for _ in range(n_refs + 1):
            dy, dx = rng.integers(0, 25, size=2)
            noise = rng.integers(-2, 3, size=(height, width))
            planes.append(np.clip(scene[dy:dy + height, dx:dx + width]
                                  + noise, 0, 255).astype(np.uint8))
        return planes[0], planes[1:]
    if kind == "patches":
        # 8x8 flat patches of four levels: whole runs of offsets tie.
        def one():
            grid = rng.integers(0, 4, size=(height // 8, width // 8)) * 60
            return np.kron(grid, np.ones((8, 8), dtype=np.int64)).astype(
                np.uint8)
        planes = [one() for _ in range(n_refs + 1)]
        return planes[0], planes[1:]
    # Stripes with a short period: every period along x ties.
    period = int(rng.integers(2, 5))
    def one():
        phase = int(rng.integers(0, period))
        row = ((np.arange(width) + phase) % period) * 50
        return np.broadcast_to(row, (height, width)).astype(np.uint8)
    planes = [one() for _ in range(n_refs + 1)]
    return planes[0], planes[1:]


def _assert_matches_scalar(target, refs, search_range, half_pel):
    modes, mvs, sads = search_frame(target, refs, search_range, half_pel)
    height, width = target.shape
    corners = [(y, x) for y in range(0, height, MB)
               for x in range(0, width, MB)]
    assert len(modes) == len(corners)
    for k, (y0, x0) in enumerate(corners):
        mode, vectors, sad = ref.choose_prediction(
            target, refs, y0, x0, search_range, half_pel)
        got = (int(modes[k]), mvs[k, :len(vectors)].tolist(), float(sads[k]))
        assert got == (mode, [list(v) for v in vectors], sad), (k, y0, x0)
        if mode != 2:
            assert not mvs[k, 1].any()


@pytest.mark.parametrize("height,width", SIZES)
@pytest.mark.parametrize("search_range", RANGES)
@pytest.mark.parametrize("half_pel", (False, True))
def test_frame_search_equals_scalar_search(height, width, search_range,
                                           half_pel):
    for n_refs, kind in itertools.product((1, 2), KINDS):
        seed = [height, width, search_range, half_pel, n_refs,
                KINDS.index(kind)]
        target, refs = _planes(kind, height, width, n_refs, seed)
        _assert_matches_scalar(target, refs, search_range, half_pel)


@pytest.mark.parametrize("half_pel", (False, True))
@pytest.mark.parametrize("kind", ("moving", "patches"))
def test_equal_references_tie_forward_backward_and_bidirectional(
        half_pel, kind):
    """Both references are the same plane: all three SADs are equal, so
    the first, forward, must win every macroblock."""
    target, (plane,) = _planes(kind, 48, 80, 1, seed=11)
    modes, _, _ = search_frame(target, [plane, plane], 7, half_pel)
    assert not modes.any()
    _assert_matches_scalar(target, [plane, plane.copy()], 7, half_pel)


def test_frame_search_equals_scalar_search_at_frame_size():
    target, refs = _planes("moving", 352, 640, 2, seed=5)
    _assert_matches_scalar(target, refs, 7, True)


def test_window_is_clamped_to_the_frame():
    """A 32x16 frame admits only dx = 0, whatever the range."""
    target, refs = _planes("moving", 32, 16, 2, seed=3)
    _, mvs, _ = search_frame(target, refs, 20, False)
    assert not mvs[:, :, 1].any()
    assert np.abs(mvs[:, :, 0]).max() <= 16


def test_peak_allocation_is_banded():
    """352x640, +/-20: one uint16 frame per horizontal offset would be
    41 * 352 * 640 * 2 bytes = 18.5 MB; the banded search stays well
    under half of that."""
    target, refs = _planes("moving", 352, 640, 2, seed=9)
    search_frame(target, refs, 20, True)            # warm numpy's caches
    tracemalloc.start()
    try:
        search_frame(target, refs, 20, True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak
