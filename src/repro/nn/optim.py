"""Optimizers and learning-rate schedules."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .tensor import Parameter

__all__ = ["Optimizer", "Adam", "StepLR", "clip_grad_norm"]


def clip_grad_norm(params: Iterable[Parameter], max_norm: float) -> float:
    """Clip the global L2 norm of all gradients to ``max_norm``.

    Returns the pre-clip norm.
    """
    params = list(params)
    total = float(np.sqrt(sum(float(np.sum(p.grad ** 2)) for p in params)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total


class Optimizer:
    """Base optimizer holding a parameter list and a mutable learning rate."""

    def __init__(self, params: Iterable[Parameter], lr: float):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


#: Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Adam(Optimizer):
    """Adam (Kingma & Ba 2015) — the optimizer used for both EDSR and VAE."""

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3):
        super().__init__(params, lr)
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bc1 = 1.0 - _BETA1 ** self._t
        bc2 = 1.0 - _BETA2 ** self._t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * (g * g)
            m_hat = m / bc1
            v_hat = v / bc2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + _EPS)


class StepLR:
    """Halve the optimizer LR every ``step_size`` epochs."""

    def __init__(self, optimizer: Optimizer, step_size: int):
        if step_size < 1:
            raise ValueError("step_size must be >= 1")
        self.optimizer = optimizer
        self.step_size = int(step_size)
        self.base_lr = optimizer.lr
        self.epoch = 0

    def step(self) -> None:
        self.epoch += 1
        self.optimizer.lr = self.base_lr * 0.5 ** (self.epoch // self.step_size)
