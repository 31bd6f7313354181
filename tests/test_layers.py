"""Dense layer and LSTM cell behavior, including hand-computed fixed points."""

import tracemalloc

import numpy as np
import pytest

from forecast_uq.exceptions import ShapeError
from forecast_uq.nn.layers import DenseLayer, LstmCell
from forecast_uq.nn.tensor import GradientTape, Tensor

import reference_ops as ops
from test_tensor import check_gradient


def step_chain(cell: LstmCell, steps) -> list[Tensor]:
    """The per-step taped reference for ``LstmCell.run``: every hidden state of a step chain."""
    h = c = np.zeros((steps[0].shape[0], cell.hidden_dim))
    hidden = []
    for x_t in steps:
        h, c = cell.step(h, c, x_t)
        hidden.append(h)
    return hidden


def make_dense(weights, bias, activation) -> DenseLayer:
    return DenseLayer(
        weights=Tensor(np.asarray(weights, dtype=np.float64), requires_grad=True),
        bias=Tensor(np.asarray(bias, dtype=np.float64), requires_grad=True),
        activation=activation,
    )


class TestDenseLayer:
    def test_identity_passthrough(self):
        layer = make_dense(np.eye(2), np.zeros(2), "identity")
        np.testing.assert_allclose(layer.forward([[3.0, -2.0]]).data[0], [3.0, -2.0])

    def test_relu_clamps_negatives(self):
        layer = make_dense(np.eye(2), np.zeros(2), "relu")
        np.testing.assert_allclose(layer.forward([[3.0, -2.0]]).data[0], [3.0, 0.0])

    def test_relu_with_bias(self):
        layer = make_dense([[1.0, 1.0], [1.0, -1.0]], [0.5, -0.5], "relu")
        out = layer.forward([[0.25, 1.0]]).data[0]
        np.testing.assert_allclose(out, [1.75, 0.0], atol=1e-15)

    def test_dimension_mismatch_raises(self):
        layer = make_dense(np.eye(2), np.zeros(2), "identity")
        with pytest.raises(ShapeError):
            layer.forward(Tensor(np.ones((1, 3))))
        with pytest.raises(ShapeError):
            layer.forward([3.0, -2.0])

    def test_batch_forward_matches_per_row(self):
        rng = np.random.default_rng(0)
        layer = DenseLayer.create(4, 3, "relu", rng)
        batch = rng.normal(size=(5, 4))
        together = layer.forward(Tensor(batch)).data
        for i in range(len(batch)):
            np.testing.assert_allclose(layer.forward(batch[i : i + 1]).data[0], together[i])

    def test_glorot_init_bounds_and_zero_bias(self):
        rng = np.random.default_rng(1)
        layer = DenseLayer.create(30, 20, "relu", rng)
        limit = np.sqrt(6.0 / 50.0)
        assert np.all(np.abs(layer.weights.data) <= limit)
        assert layer.weights.data.std() > 0.1 * limit
        np.testing.assert_allclose(layer.bias.data, np.zeros(20))

    def test_unknown_activation_rejected(self):
        for activation in ("softplus", "sigmoid", "elu", "tanh"):
            with pytest.raises(ValueError):
                make_dense(np.eye(2), np.zeros(2), activation)

    def test_gradients_through_layer(self):
        rng = np.random.default_rng(2)
        layer = DenseLayer.create(3, 2, "relu", rng)
        x = Tensor(rng.normal(size=(4, 3)))
        check_gradient(
            lambda: ops.sum(ops.abs(layer.forward(x))),
            list(layer.parameters().values()),
        )


class TestLstmCell:
    def zero_cell(self, hidden=1, inputs=1) -> LstmCell:
        def zeros(shape):
            return Tensor(np.zeros(shape), requires_grad=True)

        return LstmCell(
            w_f=zeros((hidden, hidden + inputs)),
            w_i=zeros((hidden, hidden + inputs)),
            w_c=zeros((hidden, hidden + inputs)),
            w_o=zeros((hidden, hidden + inputs)),
            b_f=zeros(hidden),
            b_i=zeros(hidden),
            b_c=zeros(hidden),
            b_o=zeros(hidden),
        )

    def test_zero_weights_zero_state_is_fixed_point(self):
        cell = self.zero_cell()
        h, c = cell.step([[0.0]], [[0.0]], [[5.0]])
        np.testing.assert_allclose(h.data, [[0.0]])
        np.testing.assert_allclose(c.data, [[0.0]])

    def test_zero_weights_unit_cell_state(self):
        # gates all sigmoid(0)=0.5; c' = 0.5*1 + 0.5*tanh(0) = 0.5
        cell = self.zero_cell()
        h, c = cell.step([[0.0]], [[1.0]], [[-3.0]])
        np.testing.assert_allclose(c.data, [[0.5]], atol=1e-15)
        np.testing.assert_allclose(h.data, [[0.23105857863000487]], atol=1e-15)

    def test_run_equals_manual_unroll(self):
        rng = np.random.default_rng(3)
        cell = LstmCell.create(2, 3, rng)
        steps = rng.normal(size=(3, 4, 2))
        h = np.zeros((4, 3))
        c = np.zeros((4, 3))
        for step in steps:
            h, c = cell.step(h, c, step)
        np.testing.assert_allclose(cell.run(Tensor(steps)).data, h.data)

    def test_run_sequence_lengths_and_shapes(self):
        rng = np.random.default_rng(4)
        cell = LstmCell.create(2, 5, rng)
        steps = rng.normal(size=(6, 3, 2))
        assert cell.run(steps, return_sequence=True).shape == (6, 3, 5)
        assert cell.run(steps).shape == (3, 5)

    @pytest.mark.parametrize("return_sequence", [False, True])
    def test_run_matches_step_chain_values_and_gradients(self, return_sequence):
        rng = np.random.default_rng(9)
        lower = LstmCell.create(2, 4, rng)
        upper = LstmCell.create(4, 3, rng)
        data = rng.normal(size=(5, 6, 2))
        weights = rng.normal(size=(5, 6, 3) if return_sequence else (6, 3))
        params = list(lower.parameters().values()) + list(upper.parameters().values())

        x = Tensor(data, requires_grad=True)
        with GradientTape() as tape:
            out = upper.run(lower.run(x, return_sequence=True), return_sequence)
            loss = ops.sum(out * Tensor(weights))
        grads = tape.gradients(loss, params + [x])

        steps = [Tensor(x_t, requires_grad=True) for x_t in data]
        with GradientTape() as tape:
            hidden = step_chain(upper, step_chain(lower, steps))
            if return_sequence:
                ref_out = np.stack([h.data for h in hidden])
                terms = [ops.sum(h * Tensor(w)) for h, w in zip(hidden, weights)]
                ref_loss = terms[0]
                for term in terms[1:]:
                    ref_loss = ref_loss + term
            else:
                ref_out = hidden[-1].data
                ref_loss = ops.sum(hidden[-1] * Tensor(weights))
        ref = tape.gradients(ref_loss, params + steps)

        np.testing.assert_allclose(out.data, ref_out, rtol=1e-12, atol=0.0)
        for p in params:
            np.testing.assert_allclose(grads[p], ref[p], rtol=1e-12, atol=1e-15)
        d_x = np.stack([ref[s] for s in steps])
        np.testing.assert_allclose(grads[x], d_x, rtol=1e-12, atol=1e-15)

    def test_run_is_one_tape_record_per_call(self):
        rng = np.random.default_rng(10)
        lower = LstmCell.create(1, 3, rng)
        upper = LstmCell.create(3, 2, rng)
        x = rng.normal(size=(7, 4, 1))
        with GradientTape() as tape:
            upper.run(lower.run(x, return_sequence=True))
        assert len(tape._records) == 2
        frozen = LstmCell(**{k: Tensor(v.data) for k, v in lower.parameters().items()})
        with GradientTape() as tape:
            frozen.run(x)
        assert tape._records == []

    def test_run_outside_a_tape_keeps_no_step_caches(self):
        rng = np.random.default_rng(11)
        cell = LstmCell.create(1, 16, rng)
        x = rng.normal(size=(200, 100, 1))
        # one step's [h, x_t], gates, c_t and tanh(c_t): a call outside a tape reuses one
        # set; a taped call keeps the gates and c_t of every step
        step_cache = 100 * (17 + 4 * 16 + 2 * 16) * 8
        tracemalloc.start()
        try:
            cell.run(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # caching every step would hold 200 step caches at once
        assert peak < 20 * step_cache

    @pytest.mark.parametrize("return_sequence", [False, True])
    def test_taped_run_keeps_only_gates_and_cell_states(self, return_sequence):
        n_steps, n_rows, hid, n_in = 50, 64, 16, 16
        rng = np.random.default_rng(12)
        cell = LstmCell.create(n_in, hid, rng)
        x = Tensor(rng.normal(size=(n_steps, n_rows, n_in)), requires_grad=True)
        params = list(cell.parameters().values()) + [x]
        gates = n_steps * 4 * n_rows * hid * 8
        cells = (n_steps + 1) * n_rows * hid * 8
        tracemalloc.start()
        try:
            with GradientTape() as tape:
                out = cell.run(x, return_sequence)
                held = tracemalloc.get_traced_memory()[0]
                loss = ops.sum(out)
            tracemalloc.reset_peak()
            grads = tape.gradients(loss, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # [h, x_t] and tanh(c_t) per step would add about half as much again
        assert held <= 1.1 * (gates + cells + out.data.nbytes)
        # the VJP's own arrays: the gate gradients, the rebuilt [h, x_t], d_x and
        # the upstream gradient of the output; per-step temporaries are (batch, dim)
        d_gates, rebuilt = n_steps * n_rows * 4 * hid * 8, n_steps * n_rows * (hid + n_in) * 8
        vjp_arrays = d_gates + rebuilt + x.data.nbytes + out.data.nbytes
        assert peak <= held + vjp_arrays + 8 * n_rows * (hid + n_in) * 8
        # the VJP reads its caches and overwrites none, so a second pass is the same
        again = tape.gradients(loss, params)
        for p in params:
            assert grads[p].tobytes() == again[p].tobytes()

    def test_forget_bias_initialized_to_one(self):
        cell = LstmCell.create(2, 4, np.random.default_rng(5))
        np.testing.assert_allclose(cell.b_f.data, np.ones(4))
        np.testing.assert_allclose(cell.b_i.data, np.zeros(4))

    def test_shape_mismatch_raises(self):
        cell = LstmCell.create(2, 3, np.random.default_rng(6))
        with pytest.raises(ShapeError):
            cell.step(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 5))))
        with pytest.raises(ShapeError):
            cell.step(Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 2))))
        with pytest.raises(ShapeError):
            cell.step(np.zeros(3), np.zeros(3), np.zeros(2))
        for bad in ([], np.zeros((4, 2)), np.zeros((0, 4, 2)), np.zeros((3, 0, 2)),
                    np.zeros((3, 4, 3)), np.zeros((3, 4, 2, 1))):
            with pytest.raises(ShapeError):
                cell.run(bad)

    def test_bptt_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        cell = LstmCell.create(1, 2, rng)
        steps = Tensor(rng.normal(size=(4, 3, 1)))
        check_gradient(
            lambda: ops.sum(ops.abs(cell.run(steps))),
            list(cell.parameters().values()),
            rtol=1e-5,
        )

    def test_stacked_cells_gradients(self):
        rng = np.random.default_rng(8)
        lower = LstmCell.create(1, 2, rng)
        upper = LstmCell.create(2, 2, rng)
        steps = Tensor(rng.normal(size=(3, 2, 1)))

        def loss():
            hidden = lower.run(steps, return_sequence=True)
            return ops.sum(ops.abs(upper.run(hidden)))

        params = list(lower.parameters().values()) + list(upper.parameters().values())
        check_gradient(loss, params, rtol=1e-5)
