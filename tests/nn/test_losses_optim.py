"""Tests for losses, optimizers, and LR schedules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import nn


FLOATS = st.floats(-10, 10, allow_nan=False, width=32)


class TestMSE:
    def test_zero_at_target(self):
        x = np.ones((3, 3), dtype=np.float32)
        value, grad = nn.mse_loss(x, x)
        assert value == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_known_value(self):
        pred = np.array([2.0, 0.0], dtype=np.float32)
        target = np.array([0.0, 0.0], dtype=np.float32)
        value, grad = nn.mse_loss(pred, target)
        assert np.isclose(value, 2.0)
        np.testing.assert_allclose(grad, [2.0, 0.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nn.mse_loss(np.zeros(2, np.float32), np.zeros(3, np.float32))

    @given(hnp.arrays(np.float32, (4,), elements=FLOATS),
           hnp.arrays(np.float32, (4,), elements=FLOATS))
    @settings(max_examples=30, deadline=None)
    def test_property_nonnegative_and_symmetric(self, a, b):
        va, _ = nn.mse_loss(a, b)
        vb, _ = nn.mse_loss(b, a)
        assert va >= 0
        assert np.isclose(va, vb, rtol=1e-5, atol=1e-6)

    def test_gradient_is_derivative(self):
        rng = np.random.default_rng(0)
        pred = rng.normal(size=(5,)).astype(np.float32)
        target = rng.normal(size=(5,)).astype(np.float32)
        _, grad = nn.mse_loss(pred, target)
        eps = 1e-3
        for i in range(5):
            p = pred.copy()
            p[i] += eps
            up, _ = nn.mse_loss(p, target)
            p[i] -= 2 * eps
            down, _ = nn.mse_loss(p, target)
            assert np.isclose(grad[i], (up - down) / (2 * eps), atol=1e-3)


class TestL1:
    def test_known_value(self):
        value, grad = nn.l1_loss(np.array([1.0, -1.0], np.float32),
                                 np.zeros(2, np.float32))
        assert np.isclose(value, 1.0)
        np.testing.assert_allclose(grad, [0.5, -0.5])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nn.l1_loss(np.zeros(2, np.float32), np.zeros((2, 1), np.float32))


class TestKL:
    def test_zero_at_standard_normal(self):
        mu = np.zeros((2, 4), dtype=np.float32)
        logvar = np.zeros((2, 4), dtype=np.float32)
        value, gmu, glv = nn.kl_standard_normal(mu, logvar)
        assert np.isclose(value, 0.0)
        np.testing.assert_allclose(gmu, 0.0)
        np.testing.assert_allclose(glv, 0.0)

    def test_positive_away_from_prior(self):
        mu = np.full((1, 3), 2.0, dtype=np.float32)
        logvar = np.full((1, 3), 1.0, dtype=np.float32)
        value, _, _ = nn.kl_standard_normal(mu, logvar)
        assert value > 0

    @given(hnp.arrays(np.float32, (2, 3), elements=st.floats(-3, 3, width=32)),
           hnp.arrays(np.float32, (2, 3), elements=st.floats(-3, 3, width=32)))
    @settings(max_examples=30, deadline=None)
    def test_property_nonnegative(self, mu, logvar):
        value, _, _ = nn.kl_standard_normal(mu, logvar)
        assert value >= -1e-5

    def test_gradients_numerical(self):
        rng = np.random.default_rng(1)
        mu = rng.normal(size=(2, 3)).astype(np.float32)
        logvar = rng.normal(size=(2, 3)).astype(np.float32)
        _, gmu, glv = nn.kl_standard_normal(mu, logvar)
        eps = 1e-3
        for arr, grad in [(mu, gmu), (logvar, glv)]:
            flat = arr.reshape(-1)
            gflat = grad.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                up, _, _ = nn.kl_standard_normal(mu, logvar)
                flat[i] = orig - eps
                down, _, _ = nn.kl_standard_normal(mu, logvar)
                flat[i] = orig
                assert np.isclose(gflat[i], (up - down) / (2 * eps), atol=1e-2)


class TestVAELoss:
    def test_perfect_reconstruction_leaves_kl(self):
        x = np.ones((2, 3), dtype=np.float32)
        mu = np.zeros((2, 4), dtype=np.float32)
        logvar = np.zeros((2, 4), dtype=np.float32)
        value, gx, gmu, glv = nn.vae_loss(x, x, mu, logvar)
        assert np.isclose(value, 0.0)
        np.testing.assert_allclose(gx, 0.0)


class TestOptimizers:
    def _quadratic_param(self):
        return nn.Parameter(np.array([5.0, -3.0], dtype=np.float32))

    def test_adam_descends(self):
        p = self._quadratic_param()
        opt = nn.Adam([p], lr=0.3)
        for _ in range(300):
            opt.zero_grad()
            p.accumulate(2 * p.data)
            opt.step()
        assert np.all(np.abs(p.data) < 1e-2)

    def test_empty_params_raise(self):
        with pytest.raises(ValueError):
            nn.Adam([], lr=0.1)

    def test_clip_grad_norm(self):
        p = nn.Parameter(np.zeros(4, dtype=np.float32))
        p.grad[...] = 10.0
        pre = nn.clip_grad_norm([p], max_norm=1.0)
        assert pre > 1.0
        assert np.isclose(np.linalg.norm(p.grad), 1.0, rtol=1e-5)

    def test_clip_noop_when_small(self):
        p = nn.Parameter(np.zeros(2, dtype=np.float32))
        p.grad[...] = 0.1
        nn.clip_grad_norm([p], max_norm=10.0)
        np.testing.assert_allclose(p.grad, 0.1)


class TestSchedules:
    def test_step_lr(self):
        p = nn.Parameter(np.zeros(1, dtype=np.float32))
        opt = nn.Adam([p], lr=1.0)
        sched = nn.StepLR(opt, step_size=2)
        lrs = []
        for _ in range(4):
            sched.step()
            lrs.append(opt.lr)
        assert lrs == [1.0, 0.5, 0.5, 0.25]

    def test_invalid_schedule_args(self):
        p = nn.Parameter(np.zeros(1, dtype=np.float32))
        opt = nn.Adam([p], lr=1.0)
        with pytest.raises(ValueError):
            nn.StepLR(opt, step_size=0)


class TestEndToEndTraining:
    def test_small_net_fits_linear_map(self):
        """A tiny dense net trained with Adam fits y = Ax."""
        rng = np.random.default_rng(3)
        a_true = rng.normal(size=(4, 2)).astype(np.float32)
        x = rng.normal(size=(64, 4)).astype(np.float32)
        y = x @ a_true

        net = nn.Sequential(
            nn.Dense(4, 16, rng=np.random.default_rng(4), init="he"),
            nn.Tanh(),
            nn.Dense(16, 2, rng=np.random.default_rng(5)),
        )
        opt = nn.Adam(net.parameters(), lr=1e-2)
        losses = []
        for _ in range(300):
            opt.zero_grad()
            pred = net.forward(x)
            loss, grad = nn.mse_loss(pred, y)
            net.backward(grad)
            opt.step()
            losses.append(loss)
        assert losses[-1] < 0.02 * losses[0]

    def test_conv_net_fits_blur_inverse(self):
        """A conv net reduces loss when learning a 3x3 filter mapping."""
        rng = np.random.default_rng(6)
        x = rng.normal(size=(8, 1, 8, 8)).astype(np.float32)
        kernel = np.zeros((1, 1, 3, 3), dtype=np.float32)
        kernel[0, 0] = np.array([[0, 1, 0], [1, 2, 1], [0, 1, 0]]) / 6.0
        from repro.nn import functional as F
        y = F.conv2d_forward(x, kernel, None, padding=1)

        net = nn.Conv2d(1, 1, 3, rng=np.random.default_rng(7))
        opt = nn.Adam(net.parameters(), lr=1e-2)
        first = None
        for _ in range(200):
            opt.zero_grad()
            loss, grad = nn.mse_loss(net.forward(x), y)
            if first is None:
                first = loss
            net.backward(grad)
            opt.step()
        assert loss < 0.01 * first


class TestAdamDetails:
    def test_bias_correction_first_step(self):
        """After one step with constant gradient g, Adam moves by ~lr."""
        p = nn.Parameter(np.array([0.0], dtype=np.float32))
        opt = nn.Adam([p], lr=0.1)
        opt.zero_grad()
        p.accumulate(np.array([3.0], dtype=np.float32))
        opt.step()
        # Bias-corrected m_hat/sqrt(v_hat) == g/|g| on step 1.
        assert np.isclose(p.data[0], -0.1, atol=1e-6)
