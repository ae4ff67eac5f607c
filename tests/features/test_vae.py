"""Tests for the VAE feature extractor."""

import numpy as np
import pytest

from repro.features import (
    ConvVAE,
    VaeTrainConfig,
    extract_features,
    frames_to_batch,
    train_vae,
)


def _images(n=8, size=16, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, size=(n, 3, size, size)).astype(np.float32)


class TestConvVAEStructure:
    def test_encode_shapes(self):
        vae = ConvVAE(latent_dim=4, input_size=16)
        mu, logvar = vae.encode(_images(5, 16))
        assert mu.shape == (5, 4)
        assert logvar.shape == (5, 4)

    def test_decode_shape(self):
        vae = ConvVAE(latent_dim=4, input_size=16)
        z = np.zeros((3, 4), dtype=np.float32)
        assert vae.decode(z).shape == (3, 3, 16, 16)

    def test_forward_shapes(self):
        vae = ConvVAE(latent_dim=4, input_size=16)
        x = _images(2, 16)
        x_hat, mu, logvar = vae.forward(x, np.random.default_rng(0))
        assert x_hat.shape == x.shape
        assert mu.shape == (2, 4)

    def test_output_in_unit_range(self):
        vae = ConvVAE(latent_dim=4, input_size=16)
        x_hat, _, _ = vae.forward(_images(2, 16), np.random.default_rng(0))
        assert x_hat.min() >= 0.0 and x_hat.max() <= 1.0

    def test_bad_input_size(self):
        with pytest.raises(ValueError):
            ConvVAE(latent_dim=4, input_size=20)

    def test_bad_input_shape(self):
        vae = ConvVAE(latent_dim=4, input_size=16)
        with pytest.raises(ValueError):
            vae.encode(np.zeros((2, 3, 8, 8), np.float32))

    def test_embed_is_deterministic(self):
        vae = ConvVAE(latent_dim=4, input_size=16)
        x = _images(3, 16)
        np.testing.assert_array_equal(vae.embed(x), vae.embed(x))

    def test_backward_before_forward_raises(self):
        vae = ConvVAE(latent_dim=4, input_size=16)
        with pytest.raises(RuntimeError):
            vae.backward(np.zeros((1, 3, 16, 16), np.float32),
                         np.zeros((1, 4), np.float32),
                         np.zeros((1, 4), np.float32))

    def test_parameter_count_positive(self):
        vae = ConvVAE(latent_dim=4, input_size=16)
        assert sum(p.size for p in vae.parameters()) > 0

    def test_deterministic_construction(self):
        a = ConvVAE(latent_dim=4, input_size=16, seed=3)
        b = ConvVAE(latent_dim=4, input_size=16, seed=3)
        x = _images(2, 16)
        np.testing.assert_array_equal(a.embed(x), b.embed(x))


class TestVAETraining:
    def test_loss_decreases(self):
        vae = ConvVAE(latent_dim=4, input_size=16)
        images = _images(12, 16)
        history = train_vae(vae, images, VaeTrainConfig(epochs=15, batch_size=6,
                                                        seed=1))
        assert history.total[-1] < history.total[0]

    def test_history_lengths(self):
        vae = ConvVAE(latent_dim=4, input_size=16)
        history = train_vae(vae, _images(6, 16),
                            VaeTrainConfig(epochs=5, batch_size=3))
        assert len(history.total) == 5
        assert len(history.reconstruction) == 5
        assert len(history.kl) == 5

    def test_deterministic_training(self):
        cfg = VaeTrainConfig(epochs=3, batch_size=4, seed=7)
        a = ConvVAE(latent_dim=4, input_size=16, seed=0)
        b = ConvVAE(latent_dim=4, input_size=16, seed=0)
        images = _images(8, 16)
        ha = train_vae(a, images, cfg)
        hb = train_vae(b, images, cfg)
        np.testing.assert_allclose(ha.total, hb.total)

    def test_empty_input_raises(self):
        vae = ConvVAE(latent_dim=4, input_size=16)
        with pytest.raises(ValueError):
            train_vae(vae, np.zeros((0, 3, 16, 16), np.float32))

    def test_bad_config(self):
        with pytest.raises(ValueError):
            VaeTrainConfig(epochs=0)

    def test_latent_space_separates_distinct_content(self):
        """Two visually distinct image groups embed far apart relative to
        within-group spread — the property clustering relies on."""
        rng = np.random.default_rng(5)
        smooth = np.tile(
            np.linspace(0.2, 0.6, 16, dtype=np.float32)[None, None, :, None],
            (8, 3, 1, 16))
        smooth += rng.normal(0, 0.01, smooth.shape).astype(np.float32)
        noisy = rng.uniform(0.4, 1.0, size=(8, 3, 16, 16)).astype(np.float32)
        images = np.clip(np.concatenate([smooth, noisy]), 0, 1)

        vae = ConvVAE(latent_dim=4, input_size=16, seed=2)
        train_vae(vae, images, VaeTrainConfig(epochs=25, batch_size=8, seed=2))
        z = vae.embed(images)
        mu_a, mu_b = z[:8].mean(axis=0), z[8:].mean(axis=0)
        between = float(np.linalg.norm(mu_a - mu_b))
        within = float(np.mean([z[:8].std(), z[8:].std()]))
        assert between > within


class TestHelpers:
    def test_frames_to_batch_shape(self):
        frames = np.random.default_rng(0).uniform(
            size=(4, 24, 36, 3)).astype(np.float32)
        batch = frames_to_batch(frames, 16)
        assert batch.shape == (4, 3, 16, 16)

    def test_frames_to_batch_bad_shape(self):
        with pytest.raises(ValueError):
            frames_to_batch(np.zeros((4, 24, 36), np.float32), 16)

    def test_extract_features_shape(self):
        vae = ConvVAE(latent_dim=6, input_size=16)
        frames = np.random.default_rng(1).uniform(
            size=(5, 32, 48, 3)).astype(np.float32)
        feats = extract_features(vae, frames)
        assert feats.shape == (5, 6)
