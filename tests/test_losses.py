"""Laplace loss and positivity-transform oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from forecast_uq.losses import (
    elu_plus_one,
    laplace_likelihood,
    laplace_nll,
    mae_loss,
)
from forecast_uq.nn import GradientTape, Tensor

import reference_ops as ops
from test_tensor import check_gradient


class TestEluPlusOne:
    def test_branch_boundary(self):
        assert elu_plus_one(0.0) == 1.0

    def test_positive_branch_is_shift(self):
        assert elu_plus_one(2.0) == 3.0

    def test_negative_branch_closed_form(self):
        np.testing.assert_allclose(elu_plus_one(-1.0), math.exp(-1.0), rtol=1e-15)

    def test_matches_closed_form_on_random_points(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-20.0, 20.0, size=1000)
        expected = np.array([(math.exp(v) - 1.0) + 1.0 if v < 0 else v + 1.0 for v in x])
        # atol covers the reference's own rounding when exp(v) - 1.0
        # absorbs the tiny exp(v) term
        np.testing.assert_allclose(elu_plus_one(x), expected, rtol=1e-12, atol=1e-15)

    def test_monotone_and_continuous(self):
        x = np.linspace(-30.0, 30.0, 20001)
        y = elu_plus_one(x)
        assert np.all(np.diff(y) > 0.0)
        left = elu_plus_one(-1e-12)
        right = elu_plus_one(1e-12)
        assert abs(left - 1.0) < 1e-11 and abs(right - 1.0) < 1e-11

    def test_stays_positive_deep_in_the_tail(self):
        values = elu_plus_one(np.array([-40.0, -100.0, -700.0]))
        assert np.all(values > 0.0)

    def test_strictly_positive_where_the_naive_form_cancels(self):
        # (e^x - 1) + 1 is exactly 0.0 below x = -37; e^x is not
        x = np.linspace(-50.0, 5.0, 1001)
        assert np.all(elu_plus_one(x) > 0.0)

    def test_tensor_input_matches_array_path(self):
        x = np.array([-3.0, -0.2, 0.0, 1.5])
        out = elu_plus_one(Tensor(x))
        np.testing.assert_allclose(out.data, elu_plus_one(x), rtol=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_taped_large_pre_activation_does_not_overflow(self):
        # e^800 overflows, but the positive branch never reads it
        x = Tensor(np.array([[-1.0, 800.0]]), requires_grad=True)
        with GradientTape() as tape:
            out = elu_plus_one(x)
            total = ops.sum(out)
        np.testing.assert_array_equal(out.data, [[math.exp(-1.0), 801.0]])
        np.testing.assert_array_equal(tape.gradients(total, [x])[x], [[math.exp(-1.0), 1.0]])


class TestLaplaceNll:
    def test_zero_residual_unit_scale_is_zero(self):
        assert laplace_nll([1.0, 2.0], [1.0, 2.0], [1.0, 1.0]) == 0.0

    def test_single_sample_closed_form(self):
        np.testing.assert_allclose(
            laplace_nll([2.0], [0.0], [2.0]), math.log(2.0) + 1.0, rtol=1e-15
        )

    def test_matches_per_sample_closed_form(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=200)
        mu = rng.normal(size=200)
        b = rng.uniform(0.1, 5.0, size=200)
        expected = np.sum(np.log(b) + np.abs(y - mu) / b)
        np.testing.assert_allclose(laplace_nll(y, mu, b), expected, atol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        y, mu, b = rng.normal(size=50), rng.normal(size=50), rng.uniform(0.5, 2.0, 50)
        perm = rng.permutation(50)
        np.testing.assert_allclose(
            laplace_nll(y, mu, b), laplace_nll(y[perm], mu[perm], b[perm]), rtol=1e-14
        )

    def test_scalar_shared_scale_minimized_at_mean_abs_residual(self):
        rng = np.random.default_rng(3)
        residuals = rng.laplace(0.0, 2.0, size=500)
        y, mu = residuals, np.zeros(500)
        target = np.abs(residuals).mean()
        grid = np.linspace(0.05, 2.0 * target, 400)
        values = [laplace_nll(y, mu, np.full(500, b)) for b in grid]
        best = grid[int(np.argmin(values))]
        np.testing.assert_allclose(best, target, rtol=2e-2)
        # convexity on the sampled grid up to twice the minimizer
        second_diff = np.diff(values, n=2)
        assert np.all(second_diff > -1e-8)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            laplace_nll([1.0], [0.0], [0.0])
        with pytest.raises(ValueError):
            laplace_nll([1.0], [0.0], [-1.0])
        with pytest.raises(ValueError):
            laplace_nll(Tensor([1.0]), Tensor([0.0]), Tensor([-0.5]))

    def test_nan_scale_rejected(self):
        scales = np.array([1.0, np.nan, 1.0])
        with pytest.raises(ValueError, match="strictly positive"):
            laplace_nll(np.ones(3), np.zeros(3), scales)
        with pytest.raises(ValueError, match="strictly positive"):
            laplace_nll(Tensor(np.ones(3)), Tensor(np.zeros(3)), Tensor(scales))

    def test_mismatched_shapes_rejected(self):
        # a (3,) target against a (3, 1) prediction would sum a 3x3 broadcast
        with pytest.raises(ValueError, match=r"\(3,\).*\(3, 1\)"):
            laplace_nll(np.ones(3), np.zeros((3, 1)), 1.0)
        with pytest.raises(ValueError, match=r"\(3, 1\).*\(3,\)"):
            laplace_nll(Tensor(np.ones((3, 1))), Tensor(np.zeros(3)), 1.0)
        for scales in (np.ones(2), np.ones((3, 1)), np.ones((1, 3))):
            with pytest.raises(ValueError, match=r"scales .*\(3,\)"):
                laplace_nll(np.ones(3), np.zeros(3), scales)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one sample"):
            laplace_nll(np.zeros(0), np.zeros(0), 1.0)
        with pytest.raises(ValueError, match="at least one sample"):
            laplace_nll(Tensor(np.zeros((0, 1))), Tensor(np.zeros((0, 1))), Tensor(np.ones((1, 1))))

    def test_shared_scale_forms_agree(self):
        y, mu = np.array([1.0, -2.0, 0.5]), np.zeros(3)
        expected = laplace_nll(y, mu, np.full(3, 2.0))
        for shared in (2.0, [2.0], np.full((1, 1), 2.0)):
            assert laplace_nll(y, mu, shared) == expected

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        y = Tensor(rng.normal(size=(10, 1)))
        mus = Tensor(rng.normal(size=(10, 1)), requires_grad=True)
        pre = Tensor(rng.normal(size=(10, 1)), requires_grad=True)

        def loss():
            scales = (ops.elu(pre) + 1.0).clip_min(1e-3)
            return laplace_nll(y, mus, scales)

        check_gradient(loss, [mus, pre], rtol=1e-6)

    def test_constant_scale_gradient_parallels_mae(self):
        rng = np.random.default_rng(5)
        y = Tensor(rng.normal(size=(8, 1)))
        mus = Tensor(rng.normal(size=(8, 1)), requires_grad=True)
        b = 2.5
        with GradientTape() as tape:
            nll = laplace_nll(y, mus, Tensor(np.full((8, 1), b)))
        g_nll = tape.gradients(nll, [mus])[mus]
        with GradientTape() as tape:
            mae = mae_loss(y, mus)
        g_mae = tape.gradients(mae, [mus])[mus]
        # sum-reduced NLL gradient = N * mean-reduced MAE gradient / b
        np.testing.assert_allclose(g_nll, 8.0 * g_mae / b, rtol=1e-12)


class TestLaplaceLikelihood:
    def test_peak_of_standard_density(self):
        assert laplace_likelihood(0.0, 0.0, 1.0) == 0.5

    def test_unit_offset_closed_form(self):
        np.testing.assert_allclose(
            laplace_likelihood(1.0, 0.0, 1.0), math.exp(-1.0) / 2.0, rtol=1e-15
        )

    def test_integrates_to_one(self):
        for mu, b in [(0.0, 1.0), (3.0, 0.5), (-2.0, 4.0)]:
            total, _ = quad(lambda y: laplace_likelihood(y, mu, b), mu - 40 * b, mu + 40 * b)
            np.testing.assert_allclose(total, 1.0, atol=1e-6)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            laplace_likelihood(0.0, 0.0, 0.0)

    def test_nan_scale_rejected(self):
        with pytest.raises(ValueError, match="strictly positive"):
            laplace_likelihood(np.zeros(2), 0.0, np.array([1.0, np.nan]))

    def test_consistent_with_nll(self):
        y, mu, b = 1.3, 0.4, 1.7
        # nll is the negative log density without the log(2) constant
        np.testing.assert_allclose(
            -math.log(laplace_likelihood(y, mu, b)),
            laplace_nll([y], [mu], [b]) + math.log(2.0),
            rtol=1e-12,
        )


class TestMaeLoss:
    def test_exact_match_is_zero(self):
        assert mae_loss([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_sum(self):
        assert mae_loss([1.0, 2.0], [2.0, 0.0]) == 1.5

    def test_translation_invariance(self):
        rng = np.random.default_rng(6)
        y, p = rng.normal(size=30), rng.normal(size=30)
        np.testing.assert_allclose(mae_loss(y, p), mae_loss(y + 7.0, p + 7.0), rtol=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mae_loss([], [])

    def test_empty_tensor_batch_rejected(self):
        empty = np.zeros((0, 1))
        with pytest.raises(ValueError, match="at least one sample"):
            mae_loss(Tensor(empty), Tensor(empty, requires_grad=True))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match=r"\(3,\).*\(3, 1\)"):
            mae_loss(np.ones(3), np.zeros((3, 1)))
        with pytest.raises(ValueError, match=r"\(2, 1\).*\(1, 1\)"):
            mae_loss(Tensor(np.ones((2, 1))), Tensor(np.zeros((1, 1))))

    def test_tensor_path_matches_array_path(self):
        rng = np.random.default_rng(7)
        y, p = rng.normal(size=12), rng.normal(size=12)
        out = mae_loss(Tensor(y), Tensor(p))
        np.testing.assert_allclose(float(out.data), mae_loss(y, p), rtol=1e-15)
