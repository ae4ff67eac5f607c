"""Numerical gradient verification.

Used by the test suite to prove every layer's analytic backward pass against
central finite differences.  Checks run in float64 conceptually but the
layers store float32, so tolerances are set accordingly.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .layers import Layer

__all__ = ["numerical_gradient", "check_layer_gradients"]

#: Finite-difference step, and the absolute / relative tolerances of a check.
_EPS, _ATOL, _RTOL = 1e-3, 5e-3, 5e-2


def numerical_gradient(
    fn: Callable[[np.ndarray], float], x: np.ndarray,
) -> np.ndarray:
    """Central-difference gradient of scalar ``fn`` with respect to ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + _EPS
        plus = fn(x)
        flat[i] = orig - _EPS
        minus = fn(x)
        flat[i] = orig
        gflat[i] = (plus - minus) / (2.0 * _EPS)
    return grad


def check_layer_gradients(
    layer: Layer, x: np.ndarray, rng: np.random.Generator,
) -> None:
    """Verify input and parameter gradients of ``layer`` at point ``x``.

    The scalar objective is ``sum(forward(x) * R)`` for a fixed random ``R``,
    which exercises every output element with distinct weights.

    Raises ``AssertionError`` with a diagnostic message on mismatch.
    """
    x = np.asarray(x, dtype=np.float32)
    y = layer.forward(x.copy())
    weights = rng.normal(size=y.shape).astype(np.float32)

    def objective(x_in: np.ndarray) -> float:
        return float(np.sum(layer.forward(x_in.astype(np.float32)) * weights))

    # Analytic gradients.
    layer.zero_grad()
    layer.forward(x.copy())
    grad_x = layer.backward(weights)
    analytic_params = [p.grad.copy() for p in layer.parameters()]

    # Numerical input gradient.
    num_gx = numerical_gradient(objective, x.copy())
    _assert_close("input", grad_x, num_gx)

    # Numerical parameter gradients.
    for p, analytic in zip(layer.parameters(), analytic_params):
        def p_objective(v: np.ndarray, p=p) -> float:
            saved = p.data
            p.data = v.astype(np.float32)
            try:
                return float(np.sum(layer.forward(x.copy()) * weights))
            finally:
                p.data = saved

        num_gp = numerical_gradient(p_objective, p.data.copy())
        _assert_close(p.name, analytic, num_gp)


def _assert_close(
    label: str, analytic: np.ndarray, numeric: np.ndarray,
) -> None:
    analytic = np.asarray(analytic, dtype=np.float64)
    if analytic.shape != numeric.shape:
        raise AssertionError(
            f"{label}: analytic shape {analytic.shape} != numeric {numeric.shape}"
        )
    err = np.abs(analytic - numeric)
    tol = _ATOL + _RTOL * np.abs(numeric)
    if not np.all(err <= tol):
        worst = float(np.max(err - tol))
        raise AssertionError(
            f"gradient mismatch for {label}: max excess error {worst:.3e} "
            f"(atol={_ATOL}, rtol={_RTOL})"
        )
