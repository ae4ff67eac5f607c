"""Tests for patch sampling, SR training, and the minimum-model search."""

import numpy as np
import pytest

from repro.sr import (
    EDSR,
    EdsrConfig,
    SrTrainConfig,
    evaluate_sr,
    find_minimum_working_model,
    sample_patch_pairs,
    train_sr,
)


def _pairs(n=4, size=24, noise=0.08, seed=0):
    """Degraded/clean frame pairs: clean smooth content + blocky noise."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size] / (size - 1)
    hr = np.stack([
        np.stack([
            0.5 + 0.3 * np.sin(2 * np.pi * (yy + i / n)) * np.cos(np.pi * xx),
            0.5 + 0.3 * np.cos(np.pi * (xx + i / n)),
            np.full_like(yy, 0.4 + 0.05 * i),
        ], axis=-1)
        for i in range(n)
    ]).astype(np.float32)
    block_noise = rng.normal(0, noise, size=(n, size // 4, size // 4, 3))
    block_noise = np.repeat(np.repeat(block_noise, 4, axis=1), 4, axis=2)
    lr = np.clip(hr + block_noise, 0, 1).astype(np.float32)
    return lr, hr


class TestPatchSampling:
    def test_shapes(self):
        lr, hr = _pairs()
        rng = np.random.default_rng(0)
        lp, hp = sample_patch_pairs(lr, hr, 8, 10, rng)
        assert lp.shape == (10, 3, 8, 8)
        assert hp.shape == (10, 3, 8, 8)

    def test_scale_alignment(self):
        rng = np.random.default_rng(1)
        lr = rng.uniform(size=(2, 8, 8, 3)).astype(np.float32)
        hr = np.repeat(np.repeat(lr, 2, axis=1), 2, axis=2)
        lp, hp = sample_patch_pairs(lr, hr, 4, 20, rng, scale=2)
        assert hp.shape == (20, 3, 8, 8)
        # Nearest-expanded HR means every HR 2x2 block equals the LR pixel.
        np.testing.assert_allclose(hp[:, :, ::2, ::2], lp)

    def test_patches_come_from_frames(self):
        lr, hr = _pairs(n=1)
        rng = np.random.default_rng(2)
        lp, _ = sample_patch_pairs(lr, hr, 24, 3, rng)  # full-frame patch
        for p in lp:
            np.testing.assert_array_equal(p, lr[0].transpose(2, 0, 1))

    def test_validation(self):
        lr, hr = _pairs()
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            sample_patch_pairs(lr, hr[:2], 8, 4, rng)
        with pytest.raises(ValueError):
            sample_patch_pairs(lr, hr, 100, 4, rng)
        with pytest.raises(ValueError):
            sample_patch_pairs(lr, hr, 8, 0, rng)
        with pytest.raises(ValueError):
            sample_patch_pairs(lr, hr, 8, 4, rng, scale=2)


class TestTraining:
    def test_loss_decreases_and_quality_improves(self):
        lr, hr = _pairs()
        model = EDSR(EdsrConfig(n_resblocks=2, n_filters=8), seed=0)
        before = evaluate_sr(model, lr, hr)["psnr"]
        history = train_sr(model, lr, hr, SrTrainConfig(
            epochs=15, steps_per_epoch=15, batch_size=8, patch_size=16,
            learning_rate=5e-3, lr_decay_epochs=6, seed=0))
        after = evaluate_sr(model, lr, hr)
        assert history.losses[-1] < history.losses[0]
        assert after["psnr"] > before

    @pytest.mark.tier2
    def test_beats_identity_baseline(self):
        """Trained SR must beat just displaying the degraded input."""
        from repro.video.quality import psnr
        lr, hr = _pairs(seed=4)
        baseline = float(np.mean([psnr(a, b) for a, b in zip(lr, hr)]))
        model = EDSR(EdsrConfig(n_resblocks=2, n_filters=8), seed=0)
        train_sr(model, lr, hr, SrTrainConfig(
            epochs=25, steps_per_epoch=15, batch_size=8, patch_size=16,
            learning_rate=5e-3, lr_decay_epochs=10, seed=0))
        assert evaluate_sr(model, lr, hr)["psnr"] > baseline

    def test_deterministic(self):
        lr, hr = _pairs()
        cfg = SrTrainConfig(epochs=2, steps_per_epoch=3, batch_size=4,
                            patch_size=12, seed=3)
        a = EDSR(EdsrConfig(n_resblocks=1, n_filters=4), seed=1)
        b = EDSR(EdsrConfig(n_resblocks=1, n_filters=4), seed=1)
        ha = train_sr(a, lr, hr, cfg)
        hb = train_sr(b, lr, hr, cfg)
        np.testing.assert_allclose(ha.losses, hb.losses)

    def test_step_count(self):
        lr, hr = _pairs()
        cfg = SrTrainConfig(epochs=3, steps_per_epoch=4, batch_size=2,
                            patch_size=12)
        model = EDSR(EdsrConfig(n_resblocks=1, n_filters=4))
        history = train_sr(model, lr, hr, cfg)
        assert history.n_steps == 12
        assert len(history.losses) == 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SrTrainConfig(loss="huber")
        with pytest.raises(ValueError):
            SrTrainConfig(epochs=0)

    def test_patch_clamped_to_frame(self):
        """Patch size larger than the frame silently clamps (small I frames)."""
        lr, hr = _pairs(size=16)
        model = EDSR(EdsrConfig(n_resblocks=1, n_filters=4))
        history = train_sr(model, lr, hr, SrTrainConfig(
            epochs=1, steps_per_epoch=2, batch_size=2, patch_size=64))
        assert history.n_steps == 2

    def test_fewer_training_frames_lower_final_loss(self):
        """Figure 11's premise: less data is easier to memorise."""
        lr, hr = _pairs(n=8, seed=5)
        cfg = SrTrainConfig(epochs=12, steps_per_epoch=12, batch_size=8,
                            patch_size=16, learning_rate=5e-3, seed=0)
        model_small = EDSR(EdsrConfig(n_resblocks=1, n_filters=6), seed=2)
        model_large = EDSR(EdsrConfig(n_resblocks=1, n_filters=6), seed=2)
        h_small = train_sr(model_small, lr[:2], hr[:2], cfg)
        h_large = train_sr(model_large, lr, hr, cfg)
        assert h_small.final_loss <= h_large.final_loss


class TestMinimumModel:
    def test_search_returns_working_config(self):
        lr, hr = _pairs(seed=6)
        grid = [EdsrConfig(n_resblocks=1, n_filters=4),
                EdsrConfig(n_resblocks=2, n_filters=8)]
        cfg = SrTrainConfig(epochs=10, steps_per_epoch=10, batch_size=8,
                            patch_size=16, learning_rate=5e-3, seed=0)
        search = find_minimum_working_model(lr, hr, big_psnr=10.0, grid=grid,
                                            train_config=cfg)
        # A trivially low target: the smallest config suffices.
        assert search.config == grid[0]
        assert search.psnr >= search.target_psnr
        assert len(search.evaluated) == 1

    def test_search_falls_back_to_best(self):
        lr, hr = _pairs(seed=7)
        grid = [EdsrConfig(n_resblocks=1, n_filters=4)]
        cfg = SrTrainConfig(epochs=2, steps_per_epoch=2, batch_size=4,
                            patch_size=16)
        search = find_minimum_working_model(lr, hr, big_psnr=99.0, grid=grid,
                                            train_config=cfg)
        assert search.config == grid[0]
        assert search.psnr < search.target_psnr

    def test_empty_grid_raises(self):
        lr, hr = _pairs()
        with pytest.raises(ValueError):
            find_minimum_working_model(lr, hr, 30.0, [])
