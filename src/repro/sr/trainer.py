"""SR training loop (the overfit-on-video regime).

Per-video SR deliberately overfits: training and test data are the same
frames (Appendix A.1 of the paper), so training loss directly measures how
well the model will enhance the video.  Figure 11 reproduces the loss-vs-
training-set-size behaviour with this trainer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..obs import wall_clock
from ..video.quality import psnr, ssim
from .edsr import EDSR
from .engine import InferenceEngine
from .patches import sample_patch_pairs

__all__ = ["SrTrainConfig", "SrHistory", "train_sr", "evaluate_sr",
           "training_flops_estimate"]


@dataclass(frozen=True)
class SrTrainConfig:
    """Hyper-parameters for :func:`train_sr`.  The learning rate halves
    every ``lr_decay_epochs`` epochs; gradients are clipped to norm 5."""

    epochs: int = 40
    steps_per_epoch: int = 20
    batch_size: int = 8
    patch_size: int = 24
    learning_rate: float = 5e-3
    loss: str = "l1"
    lr_decay_epochs: int = 15
    seed: int = 0

    def __post_init__(self):
        if self.loss not in ("l1", "mse"):
            raise ValueError(f"loss must be 'l1' or 'mse', got {self.loss!r}")
        if min(self.epochs, self.steps_per_epoch, self.batch_size,
               self.patch_size) < 1:
            raise ValueError("all loop parameters must be >= 1")


@dataclass
class SrHistory:
    """Per-epoch mean training loss and wall seconds, plus the step count."""

    losses: list[float] = field(default_factory=list)
    n_steps: int = 0
    epoch_seconds: list[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


def train_sr(
    model: EDSR, lr_frames: np.ndarray, hr_frames: np.ndarray,
    config: SrTrainConfig | None = None,
) -> SrHistory:
    """Train ``model`` to map ``lr_frames`` to ``hr_frames``.

    Frames are ``(N, H, W, 3)`` RGB floats; HR frames are ``model.scale``
    times larger spatially.  Deterministic given ``config.seed`` and the
    model's initial parameters — including across process boundaries, which
    is what lets the parallel server build train clusters in pool workers
    bit-identically to the serial build, and what makes a training run
    memoizable by its inputs in :class:`~repro.core.persist.TrainingCache`.
    Frame *order* matters: the patch sampler draws frames by index.

    The run times its own epochs into ``SrHistory.epoch_seconds`` rather
    than into an observability session — a session does not cross process
    boundaries, a list of floats does — and the server build records them
    (``train_sr`` span, ``dcsr_sr_epoch_seconds`` histogram) in the parent.
    Timing never affects the trained parameters.
    """
    config = config or SrTrainConfig()
    loss_fn = nn.l1_loss if config.loss == "l1" else nn.mse_loss
    rng = np.random.default_rng(config.seed)
    optimizer = nn.Adam(model.parameters(), lr=config.learning_rate)
    schedule = nn.StepLR(optimizer, config.lr_decay_epochs)
    patch = min(config.patch_size, lr_frames.shape[1], lr_frames.shape[2])
    clock = wall_clock()

    history = SrHistory()
    for _ in range(config.epochs):
        e0 = clock.now()
        epoch_loss = 0.0
        for _ in range(config.steps_per_epoch):
            lr_b, hr_b = sample_patch_pairs(
                lr_frames, hr_frames, patch, config.batch_size, rng,
                scale=model.scale)
            optimizer.zero_grad()
            pred = model.forward(lr_b)
            loss, grad = loss_fn(pred, hr_b)
            model.backward(grad)
            nn.clip_grad_norm(model.parameters(), 5.0)
            optimizer.step()
            epoch_loss += loss
            history.n_steps += 1
        history.losses.append(epoch_loss / config.steps_per_epoch)
        schedule.step()
        history.epoch_seconds.append(clock.now() - e0)
    return history


def evaluate_sr(
    model: EDSR, lr_frames: np.ndarray, hr_frames: np.ndarray,
) -> dict[str, float]:
    """Full-frame evaluation: mean PSNR/SSIM of enhanced vs ground truth,
    enhanced by the inference engine the client runs."""
    enhanced = InferenceEngine(model).enhance_batch(lr_frames)
    psnrs = [psnr(e, h) for e, h in zip(enhanced, hr_frames)]
    ssims = [ssim(e, h) for e, h in zip(enhanced, hr_frames)]
    return {"psnr": float(np.mean(psnrs)), "ssim": float(np.mean(ssims))}


def training_flops_estimate(
    model: EDSR, config: SrTrainConfig,
) -> float:
    """Approximate training FLOPs: forward+backward ~ 3x forward cost.

    Used for the training-cost comparison (the paper reports ~3x cheaper
    micro-model training) and aggregated per build into
    :attr:`~repro.core.parallel.BuildTelemetry.train_flops` (clusters
    served from the training cache cost zero).
    """
    from ..devices.flops import model_forward_flops
    per_sample = model_forward_flops(model, config.patch_size,
                                     config.patch_size)
    steps = config.epochs * config.steps_per_epoch
    return 3.0 * per_sample * config.batch_size * steps
