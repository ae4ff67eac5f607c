"""VAE training loop and I-frame feature extraction helpers."""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..nn.losses import KL_WEIGHT
from ..video.sampling import resize
from .vae import ConvVAE

__all__ = ["VaeTrainConfig", "VaeHistory", "train_vae", "frames_to_batch",
           "extract_features"]


@dataclass(frozen=True)
class VaeTrainConfig:
    """Hyper-parameters for :func:`train_vae` (Adam at learning rate 2e-3,
    gradients clipped to norm 10, the loss of :func:`repro.nn.vae_loss`)."""

    epochs: int = 40
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")


@dataclass
class VaeHistory:
    """Per-epoch training diagnostics."""

    total: list[float] = field(default_factory=list)
    reconstruction: list[float] = field(default_factory=list)
    kl: list[float] = field(default_factory=list)


def frames_to_batch(frames: np.ndarray, size: int) -> np.ndarray:
    """Resize RGB frames ``(N, H, W, 3)`` to ``(N, 3, size, size)`` NCHW."""
    if frames.ndim != 4 or frames.shape[-1] != 3:
        raise ValueError(f"expected (N, H, W, 3) frames, got {frames.shape}")
    thumbs = np.stack([resize(f, (size, size)) for f in frames])
    return np.ascontiguousarray(thumbs.transpose(0, 3, 1, 2)).astype(np.float32)


def train_vae(
    vae: ConvVAE, images: np.ndarray, config: VaeTrainConfig | None = None,
    obs=None,
) -> VaeHistory:
    """Train ``vae`` on ``(N, 3, S, S)`` images with Adam.

    Returns the loss history; training is deterministic given
    ``config.seed``.  ``obs`` (an optional
    :class:`~repro.obs.Observability`) wraps the run in a ``train_vae``
    span and feeds per-epoch wall seconds into the
    ``dcsr_vae_epoch_seconds`` histogram; timing never affects the
    trained parameters.
    """
    config = config or VaeTrainConfig()
    if images.ndim != 4:
        raise ValueError(f"expected (N, 3, S, S) images, got {images.shape}")
    n = images.shape[0]
    if n < 1:
        raise ValueError("need at least one training image")

    rng = np.random.default_rng(config.seed)
    optimizer = nn.Adam(vae.parameters(), lr=2e-3)
    history = VaeHistory()
    epoch_hist = (obs.metrics.histogram(
        "dcsr_vae_epoch_seconds", "Wall seconds per VAE training epoch")
        if obs is not None else None)

    with (obs.tracer.span("train_vae", epochs=config.epochs)
          if obs is not None else nullcontext()):
        for _ in range(config.epochs):
            e0 = obs.clock.now() if obs is not None else 0.0
            order = rng.permutation(n)
            epoch_total, epoch_recon, epoch_kl, batches = 0.0, 0.0, 0.0, 0
            for start in range(0, n, config.batch_size):
                batch = images[order[start:start + config.batch_size]]
                optimizer.zero_grad()
                x_hat, mu, logvar = vae.forward(batch, rng)
                total, grad_x_hat, grad_mu, grad_logvar = nn.vae_loss(
                    batch, x_hat, mu, logvar)
                recon = total - KL_WEIGHT * nn.kl_standard_normal(mu, logvar)[0]
                vae.backward(grad_x_hat, grad_mu, grad_logvar)
                nn.clip_grad_norm(vae.parameters(), 10.0)
                optimizer.step()
                epoch_total += total
                epoch_recon += recon
                epoch_kl += total - recon
                batches += 1
            history.total.append(epoch_total / batches)
            history.reconstruction.append(epoch_recon / batches)
            history.kl.append(epoch_kl / batches)
            if epoch_hist is not None:
                epoch_hist.observe(obs.clock.now() - e0)
    return history


def extract_features(vae: ConvVAE, frames: np.ndarray) -> np.ndarray:
    """Embed RGB frames ``(N, H, W, 3)`` into ``(N, latent_dim)`` features.

    Each frame's embedding is an independent row of the underlying GEMMs,
    which is what lets the server build embed the I frames in fixed-size
    chunks, one task per chunk.
    """
    return vae.embed(frames_to_batch(frames, vae.input_size))
