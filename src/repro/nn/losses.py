"""Loss functions.

Each loss returns ``(value, grad)`` where ``grad`` is the gradient of the
scalar loss with respect to the prediction, ready to feed into a network's
``backward``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["mse_loss", "l1_loss", "kl_standard_normal", "vae_loss"]


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all elements."""
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    value = float(np.mean(diff * diff))
    grad = (2.0 / diff.size) * diff
    return value, grad.astype(np.float32)


def l1_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean absolute error (the loss EDSR trains with)."""
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    value = float(np.mean(np.abs(diff)))
    grad = np.sign(diff) / diff.size
    return value, grad.astype(np.float32)


def kl_standard_normal(mu: np.ndarray, logvar: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """KL divergence ``KL[N(mu, sigma) || N(0, 1)]`` summed over latent dims,
    averaged over the batch.

    Returns ``(value, grad_mu, grad_logvar)``.
    """
    if mu.shape != logvar.shape:
        raise ValueError(f"shape mismatch: {mu.shape} vs {logvar.shape}")
    n = mu.shape[0]
    var = np.exp(logvar)
    value = float(0.5 * np.sum(mu * mu + var - 1.0 - logvar) / n)
    grad_mu = mu / n
    grad_logvar = 0.5 * (var - 1.0) / n
    return value, grad_mu.astype(np.float32), grad_logvar.astype(np.float32)


#: Weight of the KL term against the reconstruction term.  Eq. (1)
#: weights the reconstruction with a constant ``c``; a high effective c
#: (equivalently, a small KL weight) keeps the latents discriminative —
#: with the summed KL at full weight the tiny thumbnail posteriors
#: collapse toward the prior and all I frames embed alike.
KL_WEIGHT = 0.05


def vae_loss(
    x: np.ndarray, x_hat: np.ndarray, mu: np.ndarray, logvar: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """The VAE objective of Eq. (1): ``||x - x_hat||^2 + KL_WEIGHT * KL``.

    The reconstruction term is *summed* over pixels and averaged over the
    batch (matching the balance against the summed KL term).

    Returns ``(value, grad_x_hat, grad_mu, grad_logvar)``.
    """
    n = x.shape[0]
    diff = x_hat - x
    recon = float(np.sum(diff * diff) / n)
    grad_x_hat = (2.0 / n) * diff
    kl, grad_mu, grad_logvar = kl_standard_normal(mu, logvar)
    total = recon + KL_WEIGHT * kl
    return (
        total,
        grad_x_hat.astype(np.float32),
        (KL_WEIGHT * grad_mu).astype(np.float32),
        (KL_WEIGHT * grad_logvar).astype(np.float32),
    )
