"""Adam optimizer contract tests."""

import numpy as np
import pytest

from forecast_uq.exceptions import TrainingError
from forecast_uq.nn import Adam, GradientTape, Tensor

import reference_ops as ops


def make_param(values) -> Tensor:
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


class TestAdam:
    def test_zero_gradient_is_identity(self):
        p = make_param([1.0, -2.0, 3.0])
        before = p.data.copy()
        opt = Adam([p])
        for _ in range(3):
            opt.step({p: np.zeros(3)})
        np.testing.assert_allclose(p.data, before)

    def test_first_step_is_signed_learning_rate(self):
        # bias correction makes m_hat = g and v_hat = g^2 on step one,
        # so the update is lr * g / (|g| + eps) ~= lr * sign(g)
        p = make_param([0.0, 0.0])
        opt = Adam([p], lr=0.1)
        opt.step({p: np.array([0.004, -250.0])})
        np.testing.assert_allclose(p.data, [-0.1, 0.1], rtol=1e-5)

    def test_step_counter_increments(self):
        p = make_param([1.0])
        opt = Adam([p])
        assert opt.t == 0
        opt.step({p: np.array([1.0])})
        opt.step({p: np.array([1.0])})
        assert opt.t == 2

    def test_deterministic_across_instances(self):
        grads_sequence = [np.array([0.3, -1.2]), np.array([0.1, 0.4]), np.array([-2.0, 0.0])]
        results = []
        for _ in range(2):
            p = make_param([5.0, -5.0])
            opt = Adam([p], lr=0.05)
            for g in grads_sequence:
                opt.step({p: g})
            results.append(p.data.copy())
        assert np.array_equal(results[0], results[1])

    def test_non_finite_gradient_raises(self):
        p = make_param([1.0])
        opt = Adam([p])
        with pytest.raises(TrainingError):
            opt.step({p: np.array([np.nan])})
        with pytest.raises(TrainingError):
            opt.step({p: np.array([np.inf])})

    def test_descends_a_quadratic(self):
        p = make_param([4.0])
        opt = Adam([p], lr=0.1)
        for _ in range(500):
            with GradientTape() as tape:
                loss = ops.sum(p * p)
            opt.step(tape.gradients(loss, [p]))
        assert abs(float(p.data[0])) < 1e-2

    def test_multiple_params_update_independently(self):
        a = make_param([1.0])
        b = make_param([[2.0, 3.0]])
        opt = Adam([a, b], lr=0.01)
        opt.step({a: np.array([1.0]), b: np.zeros((1, 2))})
        assert float(a.data[0]) < 1.0
        np.testing.assert_allclose(b.data, [[2.0, 3.0]])

    def test_flat_update_equals_per_parameter_loop(self):
        # the per-tensor Adam the flat update replaced, element for element
        shapes = [(1, 1), (3,), (4, 5), (2, 3), (7,)]
        rng = np.random.default_rng(0)
        init = [rng.normal(size=s) for s in shapes]
        steps = [[rng.normal(size=s) * 10.0 ** rng.integers(-4, 3) for s in shapes] for _ in range(6)]
        params = [make_param(a) for a in init]
        opt = Adam(params, lr=0.01, beta1=0.8, beta2=0.99, eps=1e-7)
        ref = [a.copy() for a in init]
        m = [np.zeros_like(a) for a in init]
        v = [np.zeros_like(a) for a in init]
        for t, grads in enumerate(steps, start=1):
            opt.step(dict(zip(params, grads)))
            for i, g in enumerate(grads):
                m[i] = 0.8 * m[i] + (1.0 - 0.8) * g
                v[i] = 0.99 * v[i] + (1.0 - 0.99) * g * g
                m_hat = m[i] / (1.0 - 0.8**t)
                v_hat = v[i] / (1.0 - 0.99**t)
                ref[i] -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-7)
            for p, r in zip(params, ref):
                assert p.data.shape == r.shape
                assert np.array_equal(p.data, r)

    def test_in_place_writes_reach_the_optimizer(self):
        p = make_param([[1.0, 2.0], [3.0, 4.0]])
        opt = Adam([make_param([0.0]), p], lr=0.1)
        p.data[...] = [[0.0, 0.0], [0.0, 0.0]]  # e.g. a best-state restore
        opt.step({opt.params[0]: np.zeros(1), p: np.ones((2, 2))})
        np.testing.assert_allclose(p.data, np.full((2, 2), -0.1), rtol=1e-6)

    def test_non_finite_gradient_changes_nothing_and_names_the_parameter(self):
        a = Tensor(np.ones(2), requires_grad=True, name="tower.weights")
        b = Tensor(np.ones(3), requires_grad=True, name="tower.bias")
        opt = Adam([a, b], lr=0.1)
        opt.step({a: np.ones(2), b: np.ones(3)})
        before = (a.data.copy(), b.data.copy(), opt.m.copy(), opt.v.copy(), opt.t)
        with pytest.raises(TrainingError, match="parameter tower.bias$"):
            opt.step({a: np.ones(2), b: np.array([1.0, np.inf, np.nan])})
        after = (a.data, b.data, opt.m, opt.v, opt.t)
        assert all(np.array_equal(x, y) for x, y in zip(before, after))
