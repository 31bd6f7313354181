"""The one-op dense towers and losses against the per-layer tape chain they replace.

The reference below is the chain the models ran before: one
``DenseLayer.forward`` per layer, a dropout multiply after each hidden
layer and the losses as elementwise tape ops. The fused ops must give the
same losses, gradients, trained parameters and predictions bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

from forecast_uq.exceptions import ShapeError
from forecast_uq.losses import DEFAULT_SCALE_FLOOR, elu_plus_one, laplace_nll, mae_loss
from forecast_uq.models import ModelSpec, _batch_loss, build, mc_dropout_predict, predict
from forecast_uq.nn import Adam, DenseLayer, GradientTape, Tensor, dense_chain

from test_tensor import check_gradient

UNCERTAINTIES = ("point", "homoscedastic", "heteroscedastic", "mc_dropout")


# -- the reference: the per-layer tape chain -----------------------------------


def reference_dropout(h: Tensor, p: float, rng) -> Tensor:
    if p <= 0.0:
        return h
    return h * Tensor((rng.random(h.shape) >= p).astype(np.float64) / (1.0 - p))


def reference_tower(tower, x: np.ndarray, p: float = 0.0, rng=None) -> Tensor:
    h = reference_dropout(tower.hidden[0].forward(Tensor(x)), p, rng)
    for layer in tower.hidden[1:]:
        h = reference_dropout(layer.forward(h), p, rng)
    return tower.out.forward(h)


def reference_laplace_nll(targets: Tensor, mus: Tensor, scales: Tensor) -> Tensor:
    return (scales.log() + (targets - mus).abs() / scales).sum()


def reference_mae(targets: Tensor, preds: Tensor) -> Tensor:
    return (targets - preds).abs().mean()


def reference_elu_plus_one(x: Tensor, alpha: float = 1.0) -> Tensor:
    return x.elu(alpha) + 1.0


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
    spec = ModelSpec("dense", uncertainty, 14, sizes, dropout_p=dropout_p)
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
        h = layer.forward(h)
    return h


def test_dense_chain_matches_finite_differences():
    rng = np.random.default_rng(0)
    layers = chain_layers(rng, (3, 4, 5, 2), ("tanh", "relu", "identity"))
    x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    masks = [None, (rng.random((6, 4)) >= 0.3) / 0.7, (rng.random((6, 5)) >= 0.3) / 0.7]
    weights = Tensor(rng.normal(size=(6, 2)))
    params = [x] + [p for layer in layers for p in layer.parameters().values()]
    check_gradient(lambda: (dense_chain(x, layers, masks) * weights).sum(), params)


def test_dense_chain_matches_the_layer_chain_with_a_tracked_input():
    rng = np.random.default_rng(1)
    layers = chain_layers(rng, (4, 6, 6, 3), ("relu", "tanh", "relu"))
    x = Tensor(rng.normal(size=(9, 4)), requires_grad=True)
    masks = [(rng.random((9, 4)) >= 0.5) * 2.0, None, (rng.random((9, 6)) >= 0.5) * 2.0]
    weights = Tensor(rng.normal(size=(9, 3)))
    params = [x] + [p for layer in layers for p in layer.parameters().values()]
    with GradientTape() as tape:
        out = dense_chain(x, layers, masks)
        grads = tape.gradients((out * weights).sum(), params)
    with GradientTape() as tape:
        ref = reference_chain(x, layers, masks)
        ref_grads = tape.gradients((ref * weights).sum(), params)
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
    for alpha in (1.0, 0.4):
        with GradientTape() as tape:
            loss = mae_loss(y, pred) + (elu_plus_one(pre, alpha) * pred).sum()
            grads = tape.gradients(loss, [y, pred, pre])
        with GradientTape() as tape:
            ref = reference_mae(y, pred) + (reference_elu_plus_one(pre, alpha) * pred).sum()
            ref_grads = tape.gradients(ref, [y, pred, pre])
        assert np.array_equal(loss.data, ref.data)
        for p in (y, pred, pre):
            assert np.array_equal(grads[p], ref_grads[p])
