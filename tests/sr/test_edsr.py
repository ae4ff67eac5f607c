"""Tests for the EDSR model and its configurations."""

import numpy as np
import pytest

from repro.nn.gradcheck import check_layer_gradients
from repro.sr import (
    EDSR,
    DCSR_CONFIGS,
    EdsrConfig,
    InferenceEngine,
    RESOLUTIONS,
    TABLE1_FILTERS,
    TABLE1_RESBLOCKS,
    big_model_config,
    dcsr_config,
    model_size_table,
)


class TestEdsrConfig:
    def test_defaults_valid(self):
        EdsrConfig()

    def test_validation(self):
        with pytest.raises(ValueError):
            EdsrConfig(n_resblocks=0)
        with pytest.raises(ValueError):
            EdsrConfig(scale=0)
        with pytest.raises(ValueError):
            EdsrConfig(kernel_size=4)

    def test_label(self):
        assert EdsrConfig(4, 16, scale=2).label == "edsr-rb4-f16-x2"


class TestEdsrModel:
    def test_scale1_preserves_shape(self):
        model = EDSR(EdsrConfig(n_resblocks=2, n_filters=8))
        x = np.random.default_rng(0).uniform(size=(2, 3, 16, 24)).astype(np.float32)
        assert model.forward(x).shape == x.shape

    def test_scale2_doubles(self):
        model = EDSR(EdsrConfig(n_resblocks=1, n_filters=4, scale=2))
        x = np.random.default_rng(1).uniform(size=(1, 3, 8, 8)).astype(np.float32)
        assert model.forward(x).shape == (1, 3, 16, 16)

    def test_scale4(self):
        model = EDSR(EdsrConfig(n_resblocks=1, n_filters=4, scale=4))
        x = np.random.default_rng(2).uniform(size=(1, 3, 4, 4)).astype(np.float32)
        assert model.forward(x).shape == (1, 3, 16, 16)

    def test_gradients(self):
        rng = np.random.default_rng(3)
        model = EDSR(EdsrConfig(n_resblocks=1, n_filters=4), seed=0)
        x = rng.uniform(size=(1, 3, 8, 8)).astype(np.float32)
        check_layer_gradients(model, x, rng)

    def test_deterministic_by_seed(self):
        a = EDSR(EdsrConfig(n_resblocks=2, n_filters=8), seed=5)
        b = EDSR(EdsrConfig(n_resblocks=2, n_filters=8), seed=5)
        x = np.random.default_rng(4).uniform(size=(1, 3, 8, 8)).astype(np.float32)
        np.testing.assert_array_equal(a.forward(x), b.forward(x))

    def test_enhance_frame_interface(self):
        model = EDSR(EdsrConfig(n_resblocks=1, n_filters=4))
        frame = np.random.default_rng(5).uniform(size=(16, 24, 3)).astype(np.float32)
        out = InferenceEngine(model).enhance(frame)
        assert out.shape == frame.shape
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_enhance_rejects_bad_shape(self):
        engine = InferenceEngine(EDSR(EdsrConfig(n_resblocks=1, n_filters=4)))
        with pytest.raises(ValueError):
            engine.enhance(np.zeros((16, 24), np.float32))
        with pytest.raises(ValueError):
            engine.enhance_batch(np.zeros((2, 16, 24), np.float32))

    def test_enhance_batch(self):
        model = EDSR(EdsrConfig(n_resblocks=1, n_filters=4, scale=2))
        frames = np.random.default_rng(6).uniform(size=(3, 8, 8, 3)).astype(np.float32)
        assert InferenceEngine(model).enhance_batch(frames).shape \
            == (3, 16, 16, 3)

    def test_size_grows_with_config(self):
        small = EDSR(EdsrConfig(n_resblocks=2, n_filters=8))
        big = EDSR(EdsrConfig(n_resblocks=8, n_filters=32))
        assert big.size_bytes() > small.size_bytes()


class TestConfigs:
    def test_dcsr_levels_match_paper(self):
        """dcSR-1/2/3 = 4/12/16 ResBlocks, 16 filters (Section 4)."""
        assert DCSR_CONFIGS["dcSR-1"].n_resblocks == 4
        assert DCSR_CONFIGS["dcSR-2"].n_resblocks == 12
        assert DCSR_CONFIGS["dcSR-3"].n_resblocks == 16
        assert all(c.n_filters == 16 for c in DCSR_CONFIGS.values())

    def test_dcsr_config_scale(self):
        cfg = dcsr_config(2, scale=4)
        assert cfg.n_resblocks == 12 and cfg.scale == 4

    def test_dcsr_bad_level(self):
        with pytest.raises(ValueError):
            dcsr_config(4)

    def test_big_model_grows_with_resolution(self):
        sizes = [EDSR(big_model_config(r)).size_bytes()
                 for r in ("720p", "1080p", "4k")]
        assert sizes[0] < sizes[1] < sizes[2]

    def test_big_model_unknown_resolution(self):
        with pytest.raises(ValueError):
            big_model_config("8k")

    def test_resolutions_table(self):
        assert RESOLUTIONS["4k"].sr_scale == 4
        assert RESOLUTIONS["1080p"].pixels == 1920 * 1080


class TestModelSizeTable:
    def test_full_grid(self):
        table = model_size_table()
        assert len(table) == len(TABLE1_FILTERS) * len(TABLE1_RESBLOCKS)

    def test_monotone_in_both_axes(self):
        """Table 1: size grows along both the filter and ResBlock axes."""
        table = model_size_table()
        for f in TABLE1_FILTERS:
            sizes = [table[(f, rb)] for rb in TABLE1_RESBLOCKS]
            assert all(a < b for a, b in zip(sizes[:-1], sizes[1:]))
        for rb in TABLE1_RESBLOCKS:
            sizes = [table[(f, rb)] for f in TABLE1_FILTERS]
            assert all(a < b for a, b in zip(sizes[:-1], sizes[1:]))

    def test_size_roughly_quadratic_in_filters(self):
        """Body parameters scale ~ nf^2 * nRB (the Table 1 structure)."""
        table = model_size_table()
        small = table[(4, 64)]
        large = table[(8, 64)]
        assert 2.5 < large / small < 4.5
