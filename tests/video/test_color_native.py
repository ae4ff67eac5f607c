"""The compiled colour conversion held to the numpy formulas it replaced.

``repro.video.color`` converts each way in one pass of ``_color.c``; the
numpy it replaced is kept in ``color_reference.py``.  Over a seeded sweep
the kernel must return the reference's bits — RGB compared as uint32, the
YUV planes as uint8:

- at 2x2, 48x64, 352x640 and 720x1280;
- RGB samples on exact .5 rounding ties of Y, U and V, saturated colours
  whose chroma clips at 255, the samples 0 and 1, and overshoots
  within the 1e-3 the range check clips; YUV planes holding 0 and 255
  whose colours lie outside the RGB gamut;
- non-contiguous planes and RGB, and float64 RGB; planes of the wrong
  size are refused before the kernel runs;
- the frames of an encoded and decoded clip;
- the range check's bounds, to the float32 on either side, and NaN;
- two threads converting different frames at the same time.
"""

import threading

import numpy as np
import pytest

from repro.video import YuvFrame, rgb_to_yuv420, yuv420_to_rgb

from . import color_reference as reference

SIZES = [(2, 2), (48, 64), (352, 640), (720, 1280)]
#: Saturated and grey pixels: pure red and blue clip their chroma at 255
#: (no RGB colour reaches the clip at 0), black's is exactly 128.
PALETTE = np.array([[0, 0, 0], [1, 1, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                    [1, 1, 0], [0, 1, 1], [1, 0, 1], [0.5, 0.5, 0.5]],
                   np.float32)


def _ties(rng, n) -> np.ndarray:
    """``n`` pixels, most of whose Y lands exactly on a .5: red and blue on
    the uint8 grid, green solved for a half-integer Y and moved up to four
    float32 steps either way."""
    r = rng.integers(0, 256, n).astype(np.float32) / 255
    b = rng.integers(0, 256, n).astype(np.float32) / 255
    target = rng.integers(0, 255, n) + 0.5
    g = ((target - 0.299 * 255 * r - 0.114 * 255 * b)
         / (0.587 * 255)).astype(np.float32)
    g += rng.integers(-4, 5, n) * np.spacing(g)
    return np.clip(np.stack([r, g, b], axis=-1), 0, 1)


def _rgb(rng, h, w) -> np.ndarray:
    """A shuffled mix of tie pixels, palette colours, uniform samples and
    overshoots the range check clips, as 2x2 blocks of one kind each (a
    block of one palette colour keeps its clipped chroma)."""
    n = h * w // 4
    kinds = [
        _ties(rng, 4 * n),
        np.repeat(PALETTE[rng.integers(0, len(PALETTE), n)], 4, axis=0),
        PALETTE[rng.integers(0, len(PALETTE), 4 * n)],
        rng.random((4 * n, 3), dtype=np.float32),
        rng.uniform(-1e-3, 1 + 1e-3, (4 * n, 3)).astype(np.float32),
    ]
    blocks = np.stack(kinds).reshape(len(kinds), n, 4, 3)[
        rng.integers(0, len(kinds), n), np.arange(n)]       # (n, 4, 3)
    return np.ascontiguousarray(
        blocks.reshape(h // 2, w // 2, 2, 2, 3).transpose(0, 2, 1, 3, 4)
        .reshape(h, w, 3))


def _yuv(rng, h, w) -> YuvFrame:
    planes = [rng.integers(0, 256, shape, dtype=np.uint8)
              for shape in ((h, w), (h // 2, w // 2), (h // 2, w // 2))]
    for plane in planes:
        plane.flat[0], plane.flat[-1] = 0, 255
    return YuvFrame(*planes)


def _assert_same_rgb(got, want):
    assert got.dtype == np.float32 and got.shape == want.shape
    assert got.flags.c_contiguous and got.flags.owndata
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


def _assert_same_yuv(got, want):
    for a, b in zip((got.y, got.u, got.v), (want.y, want.u, want.v)):
        assert a.dtype == np.uint8 and a.flags.owndata
        assert np.array_equal(a, b)


@pytest.mark.parametrize("h, w", SIZES)
def test_rgb_to_yuv_returns_the_reference_bits(h, w):
    rng = np.random.default_rng(h * w)
    for _ in range(3):
        rgb = _rgb(rng, h, w)
        before = rgb.copy()
        _assert_same_yuv(rgb_to_yuv420(rgb), reference.rgb_to_yuv420(rgb))
        assert np.array_equal(rgb, before)
    if h * w >= 48 * 64:
        # The sweep reaches what it is meant to: ties in every plane,
        # black, clipped chroma, overshoots on both sides.
        y, u, v = reference.unrounded_yuv420(rgb)
        for plane in (y, u, v):
            assert (plane - np.floor(plane) == 0.5).any()
        assert (y == 0).any() and (u == 255).any() and (v == 255).any()
        assert (rgb < 0).any() and (rgb > 1).any()


@pytest.mark.parametrize("h, w", SIZES)
def test_yuv_to_rgb_returns_the_reference_bits(h, w):
    rng = np.random.default_rng(h + w)
    for _ in range(3):
        yuv = _yuv(rng, h, w)
        before = yuv.copy()
        want = reference.yuv420_to_rgb(yuv)
        _assert_same_rgb(yuv420_to_rgb(yuv), want)
        assert yuv == before
    if h * w >= 48 * 64:
        assert (want == 0).any() and (want == 1).any()


def test_strided_planes_and_rgb():
    """Views with row and column strides, negative ones and channels
    split across planes get the reference's bits too."""
    rng = np.random.default_rng(40)
    h, w = 48, 64
    big = _yuv(rng, 2 * h, 3 * w)
    yuv = YuvFrame(big.y[::2, ::3], big.u[::2, ::3], big.v[::-2, ::3])
    assert not yuv.y.flags.c_contiguous
    _assert_same_rgb(yuv420_to_rgb(yuv), reference.yuv420_to_rgb(yuv))
    rgb = _rgb(rng, 2 * h, 2 * w)
    for view in (rgb[::2, ::-2],
                 np.ascontiguousarray(rgb.transpose(2, 0, 1))
                 .transpose(1, 2, 0),
                 np.asfortranarray(rgb)):
        _assert_same_yuv(rgb_to_yuv420(view), reference.rgb_to_yuv420(view))


def test_planes_swapped_after_construction_are_refused():
    """``YuvFrame`` checks its planes when built, but they stay
    assignable; the kernel must never read past a wrong-sized plane."""
    yuv = _yuv(np.random.default_rng(43), 8, 12)
    yuv.u = np.zeros((2, 6), np.uint8)
    with pytest.raises(ValueError, match="not a 4:2:0 frame"):
        yuv420_to_rgb(yuv)


def test_float64_rgb_is_taken_as_float32():
    rng = np.random.default_rng(41)
    rgb = rng.uniform(-1e-3, 1 + 1e-3, (48, 64, 3))
    _assert_same_yuv(rgb_to_yuv420(rgb), reference.rgb_to_yuv420(rgb))


def test_decoded_frames(package, small_clip):
    """The frames of a real encode and decode: every decoded frame to RGB,
    every source frame to YUV."""
    for frame in package.decoded_low.frames:
        _assert_same_rgb(yuv420_to_rgb(frame), reference.yuv420_to_rgb(frame))
    for rgb in small_clip.frames:
        _assert_same_yuv(rgb_to_yuv420(rgb), reference.rgb_to_yuv420(rgb))


def _bounds():
    """(last float32 accepted, first rejected) at each end of the range
    ``validate_rgb`` accepts, ``float(x)`` compared in double."""
    lo, hi = np.float32(-1e-3), np.float32(1 + 1e-3)
    if float(lo) < -1e-3:
        lo = np.nextafter(lo, np.float32(0))
    if float(hi) > 1 + 1e-3:
        hi = np.nextafter(hi, np.float32(0))
    return [(lo, np.nextafter(lo, np.float32(-1))),
            (hi, np.nextafter(hi, np.float32(2)))]


@pytest.mark.parametrize("inside, outside", _bounds())
@pytest.mark.parametrize("where", [(0, 0, 0), (3, 5, 1), (-1, -1, 2)])
def test_the_range_check_is_validate_rgbs(inside, outside, where):
    """A sample at the bound is clipped, one float32 step beyond it (or a
    NaN) raises ``ValueError`` — wherever it sits, first row or last."""
    rgb = np.full((4, 6, 3), 0.5, np.float32)
    rgb[where] = inside
    _assert_same_yuv(rgb_to_yuv420(rgb), reference.rgb_to_yuv420(rgb))
    for bad in (outside, np.nan):
        rgb[where] = bad
        for convert in (rgb_to_yuv420, reference.rgb_to_yuv420):
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
                convert(rgb)


def test_two_threads_converting_at_once_get_the_reference_bits():
    """The kernel holds no state between calls: two threads converting
    different frames at the same time each get their own frame's bits."""
    rng = np.random.default_rng(42)
    work = [(_rgb(rng, 352, 640), _yuv(rng, 352, 640)) for _ in range(2)]
    want = [(reference.rgb_to_yuv420(rgb), reference.yuv420_to_rgb(yuv))
            for rgb, yuv in work]
    barrier, errors = threading.Barrier(2), []

    def convert(i):
        rgb, yuv = work[i]
        barrier.wait()
        try:
            for _ in range(20):
                _assert_same_yuv(rgb_to_yuv420(rgb), want[i][0])
                _assert_same_rgb(yuv420_to_rgb(yuv), want[i][1])
        except AssertionError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=convert, args=(i,)) for i in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
