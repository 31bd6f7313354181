"""The one-op dense layers, towers and losses against the per-layer tape chain they replace.

The reference below is the chain the models ran before: an ``affine`` and
an activation op per dense layer, a dropout multiply after each hidden
layer (and, in the LSTM tower, before the head) and the losses as
elementwise tape ops. The fused ops must give the same losses, gradients,
trained parameters and predictions bit for bit.
"""

import tracemalloc
from functools import partial

import numpy as np
import pytest

from forecast_uq.exceptions import ShapeError
from forecast_uq.losses import DEFAULT_SCALE_FLOOR, elu_plus_one, laplace_nll, mae_loss
from forecast_uq.models import BACKBONES, ModelSpec, _batch_loss, build, mc_dropout_predict, predict
from forecast_uq.nn import Adam, DenseLayer, GradientTape, Tensor, affine, as_tensor, concat, dense_chain

import reference_ops as ops
from test_tensor import check_gradient

UNCERTAINTIES = ("point", "homoscedastic", "heteroscedastic", "mc_dropout")


# -- the reference: the per-layer tape chain -----------------------------------


def reference_dropout(h: Tensor, p: float, rng) -> Tensor:
    if p <= 0.0:
        return h
    return h * Tensor((rng.random(h.shape) >= p).astype(np.float64) / (1.0 - p))


def reference_dense(layer: DenseLayer, h) -> Tensor:
    a = affine(as_tensor(h), layer.weights, layer.bias)
    return ops.relu(a) if layer.activation == "relu" else a


def reference_lstm_tail(tower, z: Tensor, x: np.ndarray, p: float = 0.0, rng=None) -> Tensor:
    h = reference_dropout(z, p, rng)
    a = reference_dense(tower.head, concat([h, Tensor(x[:, tower.input_dim - 2 :])], axis=1))
    return reference_dense(tower.out, reference_dropout(a, p, rng))


def reference_tower(tower, x: np.ndarray, p: float = 0.0, rng=None) -> Tensor:
    if hasattr(tower, "cells"):  # the LSTM tower: its recurrence is not part of the reference
        return reference_lstm_tail(tower, tower.trunk(x), x, p, rng)
    h = reference_dropout(reference_dense(tower.hidden[0], x), p, rng)
    for layer in tower.hidden[1:]:
        h = reference_dropout(reference_dense(layer, h), p, rng)
    return reference_dense(tower.out, h)


def reference_laplace_nll(targets: Tensor, mus: Tensor, scales: Tensor) -> Tensor:
    return ops.sum(ops.log(scales) + ops.abs(ops.sub(targets, mus)) / scales)


def reference_mae(targets: Tensor, preds: Tensor) -> Tensor:
    return ops.mean(ops.abs(ops.sub(targets, preds)))


def reference_elu_plus_one(x: Tensor) -> Tensor:
    return ops.elu(x) + 1.0


def reference_batch_loss(model, x, y, training: bool, rng) -> Tensor:
    mu = reference_tower(model.forecast_tower, x, model.spec.dropout_p if training else 0.0, rng)
    targets = Tensor(y[:, None])
    if model.spec.uncertainty == "homoscedastic":
        pre = model.scale_pre
    elif model.spec.uncertainty == "heteroscedastic":
        pre = reference_tower(model.scale_tower, x)
    else:
        return reference_mae(targets, mu)
    scales = reference_elu_plus_one(pre).clip_min(DEFAULT_SCALE_FLOOR)
    return reference_laplace_nll(targets, mu, scales) / float(len(y))


def reference_mc_dropout(model, x: np.ndarray, n_samples: int, seed: int):
    rng = np.random.default_rng(seed)
    samples = np.stack(
        [
            reference_tower(model.forecast_tower, x, model.spec.dropout_p, rng).data.ravel()
            for _ in range(n_samples)
        ]
    )
    return samples.mean(axis=0), samples.std(axis=0)


# -- models: fused against reference ---------------------------------------------


def data(rows: int, seed: int):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, 14))
    y = 3.0 * x[:, -3] + rng.laplace(0.0, 0.5 + np.abs(x[:, 0]), size=rows)
    return x, y


@pytest.mark.parametrize("sizes", [(32, 16), (7,), (5, 4, 3)], ids=str)
@pytest.mark.parametrize("dropout_p", [0.0, 0.5])
@pytest.mark.parametrize("uncertainty", UNCERTAINTIES)
def test_training_steps_match_the_layer_chain(uncertainty, dropout_p, sizes):
    check_training_steps(ModelSpec("dense", uncertainty, 14, sizes, dropout_p=dropout_p))


@pytest.mark.parametrize("dropout_p", [0.0, 0.5])
@pytest.mark.parametrize("uncertainty", UNCERTAINTIES)
def test_lstm_tail_training_steps_match_the_layer_chain(uncertainty, dropout_p):
    check_training_steps(ModelSpec("lstm", uncertainty, 14, (5, 4), head_size=6, dropout_p=dropout_p))


def test_lstm_tail_is_two_records():
    model = build(ModelSpec("lstm", "mc_dropout", 14, (5, 4), head_size=6, dropout_p=0.5), seed=3)
    tower, (x, _) = model.forecast_tower, data(8, seed=1)
    records = []
    for tail in (tower.tail, partial(reference_lstm_tail, tower)):
        with GradientTape() as tape:
            z = tower.trunk(x)  # on the tape, so the tail's ops on z are recorded
            before = len(tape._records)
            out = tail(z, x, 0.5, np.random.default_rng(4))
        records.append((len(tape._records) - before, out.data))
    assert np.array_equal(records[0][1], records[1][1])
    assert (records[0][0], records[1][0]) == (2, 6)  # concat and dense_chain against 6 ops


# the ops whose VJPs a training step's tape may hold, by the qualified name of the op
PIPELINE_OPS = {
    "dense_chain", "LstmCell.run", "concat", "Tensor.clip_min",
    "laplace_nll", "mae_loss", "elu_plus_one", "Tensor.__truediv__",
}


@pytest.mark.parametrize("uncertainty", UNCERTAINTIES)
@pytest.mark.parametrize("backbone", BACKBONES)
def test_a_training_step_records_only_fused_ops(backbone, uncertainty):
    model = build(ModelSpec.default(backbone, uncertainty, 14, desk=True), seed=0)
    x, y = data(16, seed=1)
    with GradientTape() as tape:
        _batch_loss(model, x, y, True, np.random.default_rng(2))
    ops_on_tape = {vjp.__qualname__.split(".<locals>")[0] for _, _, vjp in tape._records}
    assert ops_on_tape <= PIPELINE_OPS, ops_on_tape - PIPELINE_OPS
    assert all(vjp.__module__.startswith("forecast_uq.") for _, _, vjp in tape._records)


def check_training_steps(spec: ModelSpec):
    """Four Adam steps, validation losses and predictions of ``spec`` equal the reference's."""
    uncertainty, dropout_p = spec.uncertainty, spec.dropout_p
    fused, ref = build(spec, seed=3), build(spec, seed=3)
    fused_params = list(fused.parameters().values())
    ref_params = list(ref.parameters().values())
    fused_opt, ref_opt = Adam(fused_params, lr=0.01), Adam(ref_params, lr=0.01)
    fused_rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    x, y = data(96, seed=1)
    x_val, y_val = data(40, seed=2)

    for step in range(4):
        rows = np.arange(24 * step, 24 * step + 24)
        with GradientTape() as tape:
            loss = _batch_loss(fused, x[rows], y[rows], True, fused_rng)
        grads = tape.gradients(loss, fused_params)
        with GradientTape() as tape:
            ref_loss = reference_batch_loss(ref, x[rows], y[rows], True, ref_rng)
        ref_grads = tape.gradients(ref_loss, ref_params)

        assert np.array_equal(loss.data, ref_loss.data)
        for p, q in zip(fused_params, ref_params):
            assert np.array_equal(grads[p], ref_grads[q]), p.name
        fused_opt.step(grads)
        ref_opt.step(ref_grads)

        val = _batch_loss(fused, x_val, y_val, False, None)
        assert np.array_equal(val.data, reference_batch_loss(ref, x_val, y_val, False, None).data)

    assert np.array_equal(fused_opt.flat, ref_opt.flat)
    mu, scale = predict(fused, x_val)
    assert np.array_equal(mu, reference_tower(ref.forecast_tower, x_val).data.ravel())
    if uncertainty == "heteroscedastic":
        pre = reference_tower(ref.scale_tower, x_val)
        ref_scale = reference_elu_plus_one(pre).clip_min(DEFAULT_SCALE_FLOOR).data.ravel()
        assert np.array_equal(scale, ref_scale)
    if dropout_p > 0.0:
        mean, std = mc_dropout_predict(fused, x_val, n_samples=5, seed=9)
        ref_mean, ref_std = reference_mc_dropout(ref, x_val, n_samples=5, seed=9)
        assert np.array_equal(mean, ref_mean) and np.array_equal(std, ref_std)


# -- the tower op on its own -----------------------------------------------------


def chain_layers(rng, widths, activations):
    return [
        DenseLayer.create(n_in, n_out, act, rng)
        for n_in, n_out, act in zip(widths[:-1], widths[1:], activations)
    ]


def reference_chain(x: Tensor, layers, masks) -> Tensor:
    h = x
    for layer, m in zip(layers, masks):
        if m is not None:
            h = h * Tensor(m)
        h = reference_dense(layer, h)
    return h


def test_dense_chain_matches_finite_differences():
    rng = np.random.default_rng(0)
    layers = chain_layers(rng, (3, 4, 5, 2), ("relu", "identity", "relu"))
    x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    masks = [None, (rng.random((6, 4)) >= 0.3) / 0.7, (rng.random((6, 5)) >= 0.3) / 0.7]
    weights = Tensor(rng.normal(size=(6, 2)))
    params = [x] + [p for layer in layers for p in layer.parameters().values()]
    check_gradient(lambda: ops.sum(dense_chain(x, layers, masks) * weights), params)


def test_dense_chain_matches_the_layer_chain_with_a_tracked_input():
    rng = np.random.default_rng(1)
    layers = chain_layers(rng, (4, 6, 6, 3), ("relu", "identity", "relu"))
    x = Tensor(rng.normal(size=(9, 4)), requires_grad=True)
    masks = [(rng.random((9, 4)) >= 0.5) * 2.0, None, (rng.random((9, 6)) >= 0.5) * 2.0]
    weights = Tensor(rng.normal(size=(9, 3)))
    params = [x] + [p for layer in layers for p in layer.parameters().values()]
    with GradientTape() as tape:
        out = dense_chain(x, layers, masks)
        grads = tape.gradients(ops.sum(out * weights), params)
    with GradientTape() as tape:
        ref = reference_chain(x, layers, masks)
        ref_grads = tape.gradients(ops.sum(ref * weights), params)
    assert np.array_equal(out.data, ref.data)
    for p in params:
        assert np.array_equal(grads[p], ref_grads[p])


def test_dense_chain_is_one_record_and_skips_an_untracked_input():
    rng = np.random.default_rng(2)
    layers = chain_layers(rng, (3, 4, 1), ("relu", "identity"))
    with GradientTape() as tape:
        dense_chain(rng.normal(size=(5, 3)), layers, [None, None])
    [(inputs, out, vjp)] = tape._records
    assert len(inputs) == 5
    assert vjp(np.ones(out.shape))[0] is None
    frozen = [DenseLayer(Tensor(layer.weights.data), Tensor(layer.bias.data), layer.activation)
              for layer in layers]
    with GradientTape() as tape:
        dense_chain(rng.normal(size=(5, 3)), frozen, [None, None])
    assert tape._records == []


def test_dense_chain_outside_a_tape_keeps_no_layer_caches():
    rng = np.random.default_rng(3)
    rows, width, depth = 4000, 64, 8
    layers = chain_layers(rng, (width,) * (depth + 1), ("relu",) * depth)
    masks = [(rng.random((rows, width)) >= 0.5) * 2.0 for _ in range(depth)]
    x = rng.normal(size=(rows, width))
    activation = rows * width * 8
    tracemalloc.start()
    try:
        dense_chain(x, layers, masks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # keeping every layer's masked input and output would hold 2 * depth at once
    assert peak < 5 * activation


def test_dense_chain_shape_mismatch_raises():
    layers = chain_layers(np.random.default_rng(4), (3, 2), ("relu",))
    for bad in (np.zeros(3), np.zeros((2, 4)), np.zeros((2, 3, 1))):
        with pytest.raises(ShapeError):
            dense_chain(bad, layers, [None])


# -- the loss ops on their own ---------------------------------------------------


@pytest.mark.parametrize("scale_shape", [(7, 1), (1, 1), ()], ids=str)
def test_laplace_nll_matches_the_tape_chain(scale_shape):
    rng = np.random.default_rng(5)
    y = Tensor(rng.normal(size=(7, 1)), requires_grad=True)
    mu = Tensor(rng.normal(size=(7, 1)), requires_grad=True)
    b = Tensor(rng.uniform(0.2, 3.0, size=scale_shape), requires_grad=True)
    with GradientTape() as tape:
        loss = laplace_nll(y, mu, b) / 7.0
        grads = tape.gradients(loss, [y, mu, b])
    with GradientTape() as tape:
        ref = reference_laplace_nll(y, mu, b) / 7.0
        ref_grads = tape.gradients(ref, [y, mu, b])
    assert np.array_equal(loss.data, ref.data)
    for p in (y, mu, b):
        assert np.array_equal(grads[p], ref_grads[p])


def test_mae_and_elu_plus_one_match_the_tape_chain():
    rng = np.random.default_rng(6)
    y = Tensor(rng.normal(size=(9, 1)), requires_grad=True)
    pred = Tensor(rng.normal(size=(9, 1)), requires_grad=True)
    pre = Tensor(rng.normal(size=(9, 1)) * 3.0, requires_grad=True)
    with GradientTape() as tape:
        loss = mae_loss(y, pred) + ops.sum(elu_plus_one(pre) * pred)
        grads = tape.gradients(loss, [y, pred, pre])
    with GradientTape() as tape:
        ref = reference_mae(y, pred) + ops.sum(reference_elu_plus_one(pre) * pred)
        ref_grads = tape.gradients(ref, [y, pred, pre])
    assert np.array_equal(loss.data, ref.data)
    for p in (y, pred, pre):
        assert np.array_equal(grads[p], ref_grads[p])
