"""Gradient-tape unit tests: each op against central finite differences."""

import threading

import numpy as np
import pytest

from forecast_uq.nn import GradientTape, Tensor, affine, as_tensor, concat

import reference_ops as ops


def finite_difference(loss_fn, param: Tensor, eps: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(param.data)
    it = np.nditer(param.data, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = param.data[idx]
        param.data[idx] = orig + eps
        up = float(loss_fn().data)
        param.data[idx] = orig - eps
        down = float(loss_fn().data)
        param.data[idx] = orig
        grad[idx] = (up - down) / (2.0 * eps)
    return grad


def check_gradient(loss_fn, params, rtol=1e-6):
    with GradientTape() as tape:
        loss = loss_fn()
    grads = tape.gradients(loss, params)
    for p in params:
        numeric = finite_difference(loss_fn, p)
        scale = max(np.abs(numeric).max(), np.abs(grads[p]).max(), 1e-10)
        np.testing.assert_allclose(grads[p], numeric, atol=rtol * scale)


class TestElementwiseOps:
    @pytest.mark.parametrize(
        "op",
        [
            lambda t: ops.sum(t * t),
            lambda t: ops.sum(t + t * 2.0),
            lambda t: ops.sum(ops.sub(t, 0.5)),
            lambda t: ops.sum(t / 3.0),
            lambda t: ops.sum(Tensor(2.0) / (t * t + 1.0)),
            lambda t: ops.sum(ops.relu(t)),
            lambda t: ops.sum(t.sigmoid()),
            lambda t: ops.sum(t.tanh()),
            lambda t: ops.sum(ops.elu(t, 1.0)),
            lambda t: ops.sum(ops.elu(t, 0.7)),
            lambda t: ops.sum(ops.abs(t)),
            lambda t: ops.mean(t),
            lambda t: ops.sum(t.clip_min(0.1)),
        ],
    )
    def test_gradient_matches_finite_differences(self, op):
        rng = np.random.default_rng(3)
        for _ in range(5):
            # offset away from relu/abs kinks so the FD oracle is clean
            data = rng.normal(size=(4, 3))
            data[np.abs(data) < 0.15] += 0.3
            p = Tensor(data, requires_grad=True)
            check_gradient(lambda: op(p), [p])

    def test_log_gradient(self):
        rng = np.random.default_rng(4)
        p = Tensor(rng.uniform(0.5, 3.0, size=(5,)), requires_grad=True)
        check_gradient(lambda: ops.sum(ops.log(p)), [p])

    def test_values_match_numpy(self):
        x = np.array([-1.5, 0.0, 2.0])
        t = Tensor(x)
        np.testing.assert_allclose(ops.relu(t).data, np.maximum(x, 0))
        np.testing.assert_allclose(t.tanh().data, np.tanh(x))
        np.testing.assert_allclose(t.sigmoid().data, 1.0 / (1.0 + np.exp(-x)))
        np.testing.assert_allclose(ops.abs(t).data, np.abs(x))

    def test_float64_coercion(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype == np.float64


class TestBroadcasting:
    def test_bias_broadcast_gradient_sums_over_batch(self):
        x = Tensor(np.random.default_rng(0).normal(size=(7, 3)))
        b = Tensor(np.zeros(3), requires_grad=True)
        with GradientTape() as tape:
            loss = ops.sum(x + b)
        grads = tape.gradients(loss, [b])
        np.testing.assert_allclose(grads[b], np.full(3, 7.0))

    def test_scalar_times_matrix(self):
        rng = np.random.default_rng(1)
        s = Tensor(np.array(2.0), requires_grad=True)
        x = Tensor(rng.normal(size=(3, 4)))
        check_gradient(lambda: ops.sum(s * x), [s])

    def test_column_broadcast(self):
        rng = np.random.default_rng(2)
        col = Tensor(rng.normal(size=(5, 1)), requires_grad=True)
        other = Tensor(rng.normal(size=(5, 4)))
        check_gradient(lambda: ops.mean(col * other), [col])


class TestMatmulAndShapes:
    def test_affine_gradient(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        check_gradient(lambda: ops.sum(affine(x, w, b).tanh()), [x, w, b])

    def test_affine_values(self):
        rng = np.random.default_rng(6)
        x, w, b = rng.normal(size=(4, 3)), rng.normal(size=(2, 3)), rng.normal(size=2)
        out = affine(Tensor(x), Tensor(w), Tensor(b))
        assert np.array_equal(out.data, x @ w.T + b)

    def test_affine_requires_2d(self):
        with pytest.raises(ValueError):
            affine(Tensor(np.ones(3)), Tensor(np.ones((2, 3))), Tensor(np.zeros(2)))

    def test_concat_gradient(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        check_gradient(lambda: ops.sum(ops.abs(concat([a, b], axis=1))), [a, b])

    def test_concat_values(self):
        a, b = Tensor(np.ones((2, 1))), Tensor(np.zeros((2, 2)))
        out = concat([a, b], axis=1)
        np.testing.assert_allclose(out.data, [[1, 0, 0], [1, 0, 0]])

    def test_item_of_size_one_tensors(self):
        value = ops.item(Tensor(np.full((1, 1), 2.5)))
        assert value == 2.5 and type(value) is float
        assert ops.item(Tensor(3.0)) == 3.0
        with pytest.raises(ValueError):
            ops.item(Tensor(np.ones(2)))


class TestTape:
    def test_constant_loss_has_zero_gradients(self):
        p = Tensor(np.ones(3), requires_grad=True)
        c = Tensor(np.full(3, 2.0))
        with GradientTape() as tape:
            loss = ops.sum(c * c)
        grads = tape.gradients(loss, [p])
        np.testing.assert_allclose(grads[p], np.zeros(3))

    def test_only_unreached_parameters_get_zeros(self):
        p = Tensor(np.ones((2, 3)), requires_grad=True)
        q = Tensor(np.ones(4), requires_grad=True)
        with GradientTape() as tape:
            loss = ops.sum(p * 3.0)
        grads = tape.gradients(loss, [p, q])
        np.testing.assert_allclose(grads[p], np.full((2, 3), 3.0))
        assert grads[q].shape == (4,) and not grads[q].any()

    def test_loss_must_be_scalar(self):
        p = Tensor(np.ones(3), requires_grad=True)
        with GradientTape() as tape:
            out = p * 2.0
        with pytest.raises(ValueError):
            tape.gradients(out, [p])

    def test_gradient_accumulates_over_reuse(self):
        p = Tensor(np.array([[2.0]]), requires_grad=True)
        with GradientTape() as tape:
            loss = ops.sum(p * p + p * 3.0)  # d/dp = 2p + 3 = 7
        np.testing.assert_allclose(tape.gradients(loss, [p])[p], [[7.0]])

    def test_ops_outside_tape_are_not_recorded(self):
        p = Tensor(np.ones(2), requires_grad=True)
        _ = ops.sum(p * 5.0)  # no active tape
        with GradientTape() as tape:
            loss = ops.sum(p * 2.0)
        np.testing.assert_allclose(tape.gradients(loss, [p])[p], np.full(2, 2.0))

    def test_nested_tape_raises(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        with GradientTape() as outer:
            loss = ops.sum(p * 2.0)
            with pytest.raises(RuntimeError, match="already recording"):
                with GradientTape():
                    pass
        np.testing.assert_allclose(outer.gradients(loss, [p])[p], [2.0])
        with GradientTape() as after:  # the failed open left no tape behind
            loss = ops.sum(p * 3.0)
        np.testing.assert_allclose(after.gradients(loss, [p])[p], [3.0])

    def test_tapes_are_thread_local(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        errors = []

        def worker():
            try:
                with GradientTape() as tape:
                    loss = ops.sum(p * 4.0)
                grads = tape.gradients(loss, [p])
                np.testing.assert_allclose(grads[p], [4.0])
            except Exception as exc:  # surface to the main thread
                errors.append(exc)

        with GradientTape() as tape:
            loss = ops.sum(p * 2.0)
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors
        np.testing.assert_allclose(tape.gradients(loss, [p])[p], [2.0])

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)

    def test_repeated_forward_is_bit_identical(self):
        rng = np.random.default_rng(8)
        t = Tensor(rng.normal(size=(6, 6)))
        bias = Tensor(np.zeros(6))
        first = affine(t.sigmoid(), t.tanh(), bias).data
        second = affine(t.sigmoid(), t.tanh(), bias).data
        assert np.array_equal(first, second)
