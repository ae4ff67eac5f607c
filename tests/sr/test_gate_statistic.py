"""The skip gate's statistic held to the expression it replaced.

``engine._tile_variance`` adds a tile's channels one after another instead
of calling ``interior.mean(axis=3)``, whose reduction runs a 3-wide inner
loop per pixel.  numpy also adds an axis shorter than 8 in sequence, so
the two must agree bit for bit on every tile the engine cuts: a one-ulp
drift would flip any gate decision that sits on the threshold.  The
oracle is the old expression, ``interior.mean(axis=3).var(axis=(1, 2))``.
"""

import numpy as np
import pytest

from repro.sr import EDSR, EdsrConfig, InferenceEngine, SkipGateConfig
from repro.sr import engine as engine_module


def _oracle(interior):
    return interior.mean(axis=3).var(axis=(1, 2))


def _assert_bitwise(interior):
    new, old = engine_module._tile_variance(interior), _oracle(interior)
    assert new.dtype == old.dtype == np.float32
    assert new.shape == old.shape == (len(interior),)
    assert np.array_equal(new.view(np.uint32), old.view(np.uint32))


def _frames(rng, n, h, w, c=3):
    """Texture at amplitudes from 1 down to near-flat, the last of
    several frames exactly flat: variances from ~1e-1 to 0."""
    frames = rng.random((n, h, w, c), dtype=np.float32)
    frames *= np.geomspace(1.0, 1e-4, n, dtype=np.float32)[:, None, None,
                                                           None]
    if n > 1:
        frames[-1] = 0.25
    return frames


def _spans(h, w, tile):
    model = EDSR(EdsrConfig(n_resblocks=1, n_filters=4), seed=0)
    return InferenceEngine(model, tile=tile)._tile_spans(h, w)


@pytest.mark.parametrize("n", [1, 3])
def test_frame_tiles_at_tile_128(n):
    """Every tile of a 352x640 frame: interior 128x128 and the 96-row
    bottom edge."""
    frames = _frames(np.random.default_rng(40 + n), n, 352, 640)
    spans = _spans(352, 640, 128)
    assert {(y1 - y0, x1 - x0) for y0, y1, x0, x1 in spans} == {
        (128, 128), (96, 128)}
    for y0, y1, x0, x1 in spans:
        _assert_bitwise(frames[:, y0:y1, x0:x1, :])


@pytest.mark.parametrize("n", [1, 3])
def test_small_tiles_and_one_pixel_tiles(n):
    frames = _frames(np.random.default_rng(50 + n), n, 30, 40)
    for y0, y1, x0, x1 in _spans(30, 40, 12):      # 12x12 down to 6x4
        _assert_bitwise(frames[:, y0:y1, x0:x1, :])
    for x in range(40):                            # one pixel wide
        _assert_bitwise(frames[:, :, x:x + 1, :])
    for y in range(30):                            # one pixel tall
        _assert_bitwise(frames[:, y:y + 1, :, :])
    _assert_bitwise(frames[:, 7:8, 9:10, :])       # one pixel


@pytest.mark.parametrize("n", [1, 3])
def test_strided_views(n):
    """NCHW-transposed (channel stride of a whole plane), subsampled and
    reversed views."""
    rng = np.random.default_rng(60 + n)
    nchw = _frames(rng, n, 64, 96).transpose(0, 3, 1, 2).copy()
    nhwc = nchw.transpose(0, 2, 3, 1)
    assert not nhwc.flags.c_contiguous
    for view in (nhwc, nhwc[:, 5:45, 7:60], nhwc[:, ::2, ::3],
                 nhwc[:, ::-1, 1::2], nhwc[::-1, 3:4, :, ::-1]):
        _assert_bitwise(view)


@pytest.mark.parametrize("c", [1, 2, 4, 7])
def test_other_channel_counts_below_eight(c):
    frames = _frames(np.random.default_rng(70 + c), 3, 30, 41, c)
    for y0, y1, x0, x1 in _spans(30, 41, 12):
        _assert_bitwise(frames[:, y0:y1, x0:x1, :])


@pytest.mark.parametrize("precision", ["fp32", "int8"])
def test_gate_decisions_straddling_the_threshold(monkeypatch, precision):
    """A threshold equal to one tile's variance, with tiles on both sides:
    the same tiles run and skip, and the same bits come out, as with the
    oracle statistic patched in."""
    rng = np.random.default_rng(80)
    frames = rng.random((2, 60, 80, 3), dtype=np.float32)
    amplitude = np.geomspace(1.0, 1e-3, 12, dtype=np.float32).reshape(3, 4)
    frames *= np.kron(amplitude, np.ones((20, 20), np.float32))[..., None]
    variances = sorted(float(v) for y0, y1, x0, x1 in _spans(60, 80, 20)
                       for v in _oracle(frames[:, y0:y1, x0:x1, :]))
    threshold = variances[len(variances) // 2]     # that tile runs
    model = EDSR(EdsrConfig(n_resblocks=1, n_filters=4, scale=2), seed=81)

    def run():
        engine = InferenceEngine(model, tile=20, precision=precision,
                                 skip_gate=SkipGateConfig(threshold))
        return engine.enhance_batch(frames), engine.stats

    out, stats = run()
    monkeypatch.setattr(engine_module, "_tile_variance", _oracle)
    oracle_out, oracle_stats = run()
    assert stats.skipped_tiles == oracle_stats.skipped_tiles == 12
    assert stats.tile_count == oracle_stats.tile_count == 12
    assert np.array_equal(out, oracle_out)
