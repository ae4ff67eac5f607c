"""Convolutional variational autoencoder for I-frame feature extraction.

Section 3.1.1 of the paper: the VAE learns a regularized latent space from
I-frame thumbnails; only the *encoder* is used afterwards — its mean vector
is the feature fed to K-means.  The loss is Eq. (1):
``c * ||x - x_hat||^2 + KL[N(mu, sigma), N(0, 1)]``.

The reparameterisation trick's backward pass is orchestrated here by hand on
top of the layer framework: ``z = mu + exp(0.5 * logvar) * eps`` routes the
decoder's input gradient into both encoder heads.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .. import nn

__all__ = ["ConvVAE"]


class ConvVAE:
    """VAE over ``(N, 3, S, S)`` image tensors with ``S = input_size``.

    The encoder downsamples by 8 with three strided convolutions; a dense
    head produces ``[mu | logvar]``.  The decoder mirrors it with nearest
    upsampling + convolution stages and a sigmoid output.  The first conv
    has 8 channels, doubling at each downsampling.
    """

    def __init__(self, latent_dim: int = 8, input_size: int = 32,
                 seed: int = 0):
        if input_size % 8 != 0:
            raise ValueError("input_size must be divisible by 8")
        rng = np.random.default_rng(seed)
        self.latent_dim = int(latent_dim)
        self.input_size = int(input_size)
        c = 8
        spatial = input_size // 8
        self._bottleneck = (4 * c, spatial, spatial)
        flat = 4 * c * spatial * spatial

        self.encoder = nn.Sequential(
            nn.Conv2d(3, c, 3, stride=2, padding=1, rng=rng, name="enc.conv1"),
            nn.ReLU(),
            nn.Conv2d(c, 2 * c, 3, stride=2, padding=1, rng=rng, name="enc.conv2"),
            nn.ReLU(),
            nn.Conv2d(2 * c, 4 * c, 3, stride=2, padding=1, rng=rng,
                      name="enc.conv3"),
            nn.ReLU(),
            nn.Flatten(),
            nn.Dense(flat, 2 * latent_dim, rng=rng, name="enc.head"),
        )
        self.decoder = nn.Sequential(
            nn.Dense(latent_dim, flat, rng=rng, name="dec.head", init="he"),
            nn.ReLU(),
            nn.Reshape(self._bottleneck),
            nn.NearestUpsample(2),
            nn.Conv2d(4 * c, 2 * c, 3, rng=rng, name="dec.conv1"),
            nn.ReLU(),
            nn.NearestUpsample(2),
            nn.Conv2d(2 * c, c, 3, rng=rng, name="dec.conv2"),
            nn.ReLU(),
            nn.NearestUpsample(2),
            nn.Conv2d(c, 3, 3, rng=rng, name="dec.conv3"),
            nn.Sigmoid(),
        )
        self._cache: dict | None = None

    # ------------------------------------------------------------------

    def parameters(self) -> Iterator[nn.Parameter]:
        yield from self.encoder.parameters()
        yield from self.decoder.parameters()

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------------

    def encode(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(mu, logvar)`` for a batch (no sampling)."""
        self._check_input(x)
        head = self.encoder.forward(x)
        mu = head[:, :self.latent_dim]
        logvar = np.clip(head[:, self.latent_dim:], -10.0, 10.0)
        return mu, logvar

    def embed(self, x: np.ndarray) -> np.ndarray:
        """Deterministic features: the posterior mean (what dcSR clusters)."""
        mu, _ = self.encode(x)
        return mu

    def decode(self, z: np.ndarray) -> np.ndarray:
        return self.decoder.forward(z)

    def forward(
        self, x: np.ndarray, rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample the posterior and reconstruct; returns ``(x_hat, mu, logvar)``.

        Caches intermediates for :meth:`backward`.
        """
        mu, logvar = self.encode(x)
        eps = rng.normal(size=mu.shape).astype(np.float32)
        std = np.exp(0.5 * logvar).astype(np.float32)
        z = mu + std * eps
        x_hat = self.decoder.forward(z)
        self._cache = {"eps": eps, "std": std}
        return x_hat, mu, logvar

    def backward(
        self, grad_x_hat: np.ndarray, grad_mu: np.ndarray,
        grad_logvar: np.ndarray,
    ) -> None:
        """Backpropagate the VAE loss.

        ``grad_x_hat`` flows through the decoder; its gradient with respect
        to ``z`` is combined with the direct KL gradients on ``mu`` and
        ``logvar`` and routed through the reparameterisation into the
        encoder head.
        """
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        grad_z = self.decoder.backward(grad_x_hat)
        eps, std = self._cache["eps"], self._cache["std"]
        g_mu = grad_z + grad_mu
        # d z / d logvar = 0.5 * std * eps
        g_logvar = grad_z * (0.5 * std * eps) + grad_logvar
        head_grad = np.concatenate([g_mu, g_logvar], axis=1).astype(np.float32)
        self.encoder.backward(head_grad)
        self._cache = None

    # ------------------------------------------------------------------

    def _check_input(self, x: np.ndarray) -> None:
        expected = (3, self.input_size, self.input_size)
        if x.ndim != 4 or x.shape[1:] != expected:
            raise ValueError(
                f"expected input of shape (N, {expected[0]}, {expected[1]}, "
                f"{expected[2]}), got {x.shape}"
            )
