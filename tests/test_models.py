"""Model building, training loop, prediction, baselines, checkpoints."""

import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from forecast_uq.data import GeneratorConfig, RawSeries, generate_synthetic, make_dataset
from forecast_uq.exceptions import ConfigError, ShapeError, TrainingError
from forecast_uq.models import (
    BACKBONES,
    UNCERTAINTIES,
    Model,
    ModelSpec,
    TrainConfig,
    baseline_predict,
    build,
    forecast,
    input_variance_score,
    load_checkpoint,
    mc_dropout_predict,
    predict,
    save_checkpoint,
    train,
)
from forecast_uq import models
from forecast_uq.nn.layers import LstmCell
from forecast_uq.nn.tensor import GradientTape, Tensor
from forecast_uq.losses import DEFAULT_SCALE_FLOOR, laplace_nll


def tiny_dataset(n=400, scale=1.0, seed=0, families=None):
    config = GeneratorConfig(
        families=families or {"trend": n // 2, "noise": n - n // 2},
        series_length=12,
        amplitude_range=(5.0, 50.0),
        noise={"law": "constant", "scale": scale},
        seed=seed,
    )
    return make_dataset(generate_synthetic(config))


def param_count(model: Model) -> int:
    return sum(p.data.size for p in model.parameters().values())


class TestModelSpec:
    def test_full_profile_sizes(self):
        spec = ModelSpec.default("dense", "point", input_dim=26)
        assert spec.layer_sizes == (128, 64)
        spec = ModelSpec.default("lstm", "point", input_dim=26)
        assert spec.layer_sizes == (128, 128) and spec.head_size == 128

    def test_desk_profile_sizes(self):
        assert ModelSpec.default("dense", "point", 26, desk=True).layer_sizes == (32, 16)
        spec = ModelSpec.default("lstm", "point", 26, desk=True)
        assert spec.layer_sizes == (32, 32) and spec.head_size == 32

    def test_mc_dropout_defaults_to_half(self):
        assert ModelSpec.default("dense", "mc_dropout", 26).dropout_p == 0.5
        assert ModelSpec.default("dense", "point", 26).dropout_p == 0.0

    def test_unknown_backbone_named_by_default(self):
        with pytest.raises(ConfigError, match=r"^unknown backbone 'conv'$"):
            ModelSpec.default("conv", "point", 26, desk=True)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigError):
            ModelSpec("conv", "point", 26, (8,))
        with pytest.raises(ConfigError):
            ModelSpec("dense", "bayesian", 26, (8,))
        with pytest.raises(ConfigError):
            ModelSpec("dense", "point", 26, ())
        with pytest.raises(ConfigError):
            ModelSpec("dense", "point", 26, (8,), dropout_p=1.0)
        with pytest.raises(ConfigError):
            ModelSpec("lstm", "point", 26, (8,), head_size=0)


# each desk tower's parameters in order, for input_dim 14 (12 values, mean, std)
DESK_DENSE_TOWER = [
    ("layer0.weights", (32, 14)), ("layer0.bias", (32,)),
    ("layer1.weights", (16, 32)), ("layer1.bias", (16,)),
    ("out.weights", (1, 16)), ("out.bias", (1,)),
]
DESK_LSTM_TOWER = [
    ("lstm0.w_f", (32, 33)), ("lstm0.w_i", (32, 33)), ("lstm0.w_c", (32, 33)), ("lstm0.w_o", (32, 33)),
    ("lstm0.b_f", (32,)), ("lstm0.b_i", (32,)), ("lstm0.b_c", (32,)), ("lstm0.b_o", (32,)),
    ("lstm1.w_f", (32, 64)), ("lstm1.w_i", (32, 64)), ("lstm1.w_c", (32, 64)), ("lstm1.w_o", (32, 64)),
    ("lstm1.b_f", (32,)), ("lstm1.b_i", (32,)), ("lstm1.b_c", (32,)), ("lstm1.b_o", (32,)),
    ("head.weights", (32, 34)), ("head.bias", (32,)),
    ("out.weights", (1, 32)), ("out.bias", (1,)),
]


@pytest.mark.parametrize("uncertainty", UNCERTAINTIES)
@pytest.mark.parametrize("backbone", BACKBONES)
def test_parameter_names_shapes_and_order(backbone, uncertainty):
    """The checkpoint's names and Adam's flat-buffer order, for every model at the desk profile."""
    tower = DESK_DENSE_TOWER if backbone == "dense" else DESK_LSTM_TOWER
    expected = [(f"forecast_tower.{name}", shape) for name, shape in tower]
    if uncertainty == "heteroscedastic":
        expected += [(f"scale_tower.{name}", shape) for name, shape in tower]
    if uncertainty == "homoscedastic":
        expected.append(("scale_pre", (1, 1)))
    model = build(ModelSpec.default(backbone, uncertainty, 14, desk=True), seed=0)
    assert [(name, p.data.shape) for name, p in model.parameters().items()] == expected


class TestBuild:
    def test_dense_point_parameter_count(self):
        f = 26
        model = build(ModelSpec.default("dense", "point", f), seed=0)
        expected = (f * 128 + 128) + (128 * 64 + 64) + (64 * 1 + 1)
        assert param_count(model) == expected

    def test_heteroscedastic_doubles_point_count(self):
        point = build(ModelSpec.default("dense", "point", 26), seed=0)
        het = build(ModelSpec.default("dense", "heteroscedastic", 26), seed=0)
        assert param_count(het) == 2 * param_count(point)

    def test_homoscedastic_adds_single_scalar(self):
        point = build(ModelSpec.default("dense", "point", 26), seed=0)
        hom = build(ModelSpec.default("dense", "homoscedastic", 26), seed=0)
        assert param_count(hom) == param_count(point) + 1

    def test_same_seed_identical_parameters(self):
        spec = ModelSpec.default("lstm", "heteroscedastic", 14, desk=True)
        a, b = build(spec, seed=3), build(spec, seed=3)
        for (name_a, pa), (name_b, pb) in zip(a.parameters().items(), b.parameters().items()):
            assert name_a == name_b
            assert np.array_equal(pa.data, pb.data)

    def test_different_seeds_differ(self):
        spec = ModelSpec.default("dense", "point", 26, desk=True)
        a, b = build(spec, seed=0), build(spec, seed=1)
        assert not np.array_equal(a.parameters()["forecast_tower.layer0.weights"].data,
                                  b.parameters()["forecast_tower.layer0.weights"].data)

    def test_parameters_are_named_by_their_keys(self):
        for backbone in ("dense", "lstm"):
            model = build(ModelSpec.default(backbone, "homoscedastic", 14, desk=True), seed=0)
            for name, p in model.parameters().items():
                assert p.name == name

    def test_towers_share_no_parameters(self):
        model = build(ModelSpec.default("dense", "heteroscedastic", 26, desk=True), seed=0)
        forecast_ids = {id(p) for n, p in model.parameters().items() if n.startswith("forecast_tower.")}
        scale_ids = {id(p) for n, p in model.parameters().items() if n.startswith("scale_tower.")}
        assert not forecast_ids & scale_ids


class TestPredict:
    def test_homoscedastic_scale_constant_across_inputs(self):
        ds = tiny_dataset(60)
        model = build(ModelSpec.default("dense", "homoscedastic", 14, desk=True), seed=0)
        _, scales = predict(model, ds.x)
        assert np.all(scales == scales[0])

    def test_heteroscedastic_scale_respects_floor(self):
        model = build(ModelSpec.default("dense", "heteroscedastic", 14, desk=True), seed=0)
        rng = np.random.default_rng(0)
        _, scales = predict(model, rng.normal(size=(50, 14)) * 100.0)
        assert np.all(scales >= DEFAULT_SCALE_FLOOR)

    def test_point_model_has_no_scale(self):
        model = build(ModelSpec.default("dense", "point", 14, desk=True), seed=0)
        y_hat, scale = predict(model, np.zeros((3, 14)))
        assert scale is None and y_hat.shape == (3,)

    def test_single_feature_vector_rejected(self):
        ds = tiny_dataset(10)
        model = build(ModelSpec.default("dense", "heteroscedastic", 14, desk=True), seed=0)
        with pytest.raises(ShapeError, match=r"expected an \(N, 14\) batch, got shape \(14,\)"):
            predict(model, ds.x[0])
        with pytest.raises(ShapeError):
            mc_dropout_predict(model, ds.x[0], n_samples=2)

    def test_repeated_predict_bit_identical(self):
        model = build(ModelSpec.default("lstm", "point", 14, desk=True), seed=0)
        x = np.random.default_rng(1).normal(size=(8, 14))
        first, _ = predict(model, x)
        second, _ = predict(model, x)
        assert np.array_equal(first, second)

    def test_shape_mismatch_rejected(self):
        model = build(ModelSpec.default("dense", "point", 14, desk=True), seed=0)
        with pytest.raises(ShapeError):
            predict(model, np.zeros((3, 9)))

    def test_non_finite_features_rejected(self):
        model = build(ModelSpec.default("dense", "heteroscedastic", 14, desk=True), seed=0)
        x = np.zeros((3, 14))
        x[2, 5] = np.nan
        with pytest.raises(ValueError, match="row 2"):
            predict(model, x)


class TestMcDropout:
    def test_zero_dropout_is_deterministic_forward(self):
        spec = replace(ModelSpec.default("dense", "mc_dropout", 14, desk=True), dropout_p=0.0)
        model = build(spec, seed=0)
        x = np.random.default_rng(0).normal(size=(6, 14))
        mean, std = mc_dropout_predict(model, x, n_samples=8, seed=1)
        base, _ = predict(model, x)
        np.testing.assert_allclose(mean, base, rtol=1e-12)
        np.testing.assert_allclose(std, np.zeros(6), atol=1e-15)

    def test_same_seed_same_result(self):
        model = build(ModelSpec.default("dense", "mc_dropout", 14, desk=True), seed=0)
        x = np.random.default_rng(2).normal(size=(4, 14))
        a = mc_dropout_predict(model, x, n_samples=20, seed=7)
        b = mc_dropout_predict(model, x, n_samples=20, seed=7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_single_unit_bernoulli_closed_form(self):
        # one relu unit with weight w feeding an identity output of weight 1:
        # inverted dropout keeps the unit with p=1/2 at doubled magnitude, so
        # samples are {0, 2w} and the population std converges to |w|
        spec = ModelSpec("dense", "mc_dropout", 1, (1,), dropout_p=0.5)
        model = build(spec, seed=0)
        w = 1.7
        params = model.parameters()
        params["forecast_tower.layer0.weights"].data[...] = [[w]]
        params["forecast_tower.layer0.bias"].data[...] = [0.0]
        params["forecast_tower.out.weights"].data[...] = [[1.0]]
        params["forecast_tower.out.bias"].data[...] = [0.0]
        mean, std = mc_dropout_predict(model, np.array([[1.0]]), n_samples=4000, seed=3)
        np.testing.assert_allclose(std, w, rtol=0.05)
        np.testing.assert_allclose(mean, w, rtol=0.1)

    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_equals_full_forward_passes(self, backbone):
        model = build(ModelSpec.default(backbone, "mc_dropout", 14, desk=True), seed=0)
        x = np.random.default_rng(4).normal(size=(9, 14))
        rng = np.random.default_rng(5)
        samples = np.stack(
            [model.forecast_tower.forward(x, model.spec.dropout_p, rng).data.ravel() for _ in range(6)]
        )
        mean, std = mc_dropout_predict(model, x, n_samples=6, seed=5)
        assert np.array_equal(mean, samples.mean(axis=0))
        assert np.array_equal(std, samples.std(axis=0))

    @pytest.mark.parametrize("n_samples", [2, 20])
    def test_lstm_recurrence_runs_once_per_call(self, monkeypatch, n_samples):
        model = build(ModelSpec.default("lstm", "mc_dropout", 14, desk=True), seed=0)
        calls = []
        run = LstmCell.run

        def counted(cell, *args, **kwargs):
            calls.append(cell)
            return run(cell, *args, **kwargs)

        monkeypatch.setattr(LstmCell, "run", counted)
        mc_dropout_predict(model, np.zeros((3, 14)), n_samples=n_samples)
        assert calls == model.forecast_tower.cells

    @pytest.mark.parametrize("n_samples", [2, 20])
    def test_dense_first_layer_runs_once_per_call(self, monkeypatch, n_samples):
        model = build(ModelSpec.default("dense", "mc_dropout", 14, desk=True), seed=0)
        calls = []
        chain = models.dense_chain

        def counted(x, layers, masks):
            calls.append(layers)
            return chain(x, layers, masks)

        monkeypatch.setattr(models, "dense_chain", counted)
        mc_dropout_predict(model, np.zeros((3, 14)), n_samples=n_samples)
        first = model.forecast_tower.hidden[0]
        assert len(calls) == 1 + n_samples
        sees_first = [any(layer is first for layer in layers) for layers in calls]
        assert sees_first == [True] + [False] * n_samples

    def test_too_few_samples_rejected(self):
        model = build(ModelSpec.default("dense", "mc_dropout", 14, desk=True), seed=0)
        with pytest.raises(ValueError):
            mc_dropout_predict(model, np.zeros((1, 14)), n_samples=1)

    def test_non_finite_features_rejected(self):
        model = build(ModelSpec.default("lstm", "mc_dropout", 14, desk=True), seed=0)
        x = np.zeros((1, 14))
        x[0, 0] = -np.inf
        with pytest.raises(ValueError, match="row 0"):
            mc_dropout_predict(model, x, n_samples=2)


class TestForecast:
    SCORES = {"point": (), "homoscedastic": (), "heteroscedastic": ("predicted_scale",),
              "mc_dropout": ("mc_std",)}

    @pytest.mark.parametrize("backbone", BACKBONES)
    @pytest.mark.parametrize("uncertainty", UNCERTAINTIES)
    def test_arrays_are_those_of_predict_or_mc_dropout(self, backbone, uncertainty):
        model = build(ModelSpec.default(backbone, uncertainty, 14, desk=True), seed=3)
        x = np.random.default_rng(6).normal(size=(9, 14))
        y_hat, scale, scores = forecast(model, x, 5)
        assert tuple(scores) == self.SCORES[uncertainty]
        assert (scale is None) == (uncertainty in ("point", "mc_dropout"))
        if uncertainty == "mc_dropout":
            mean, std = mc_dropout_predict(model, x, 5, seed=model.seed)
            assert y_hat.tobytes() == mean.tobytes() and scores["mc_std"].tobytes() == std.tobytes()
            return
        mu, b = predict(model, x)
        assert y_hat.tobytes() == mu.tobytes()
        assert scale is None or scale.tobytes() == b.tobytes()
        if uncertainty == "heteroscedastic":
            assert scores["predicted_scale"].tobytes() == b.tobytes()

    @pytest.mark.parametrize("uncertainty, name", [
        ("point", "y_hat"), ("heteroscedastic", "scale"), ("mc_dropout", "y_hat"),
    ])
    def test_overflow_names_the_array_and_first_series(self, uncertainty, name):
        model = build(ModelSpec.default("dense", uncertainty, 14, desk=True), seed=0)
        tower = model.scale_tower if name == "scale" else model.forecast_tower
        tower.hidden[0].weights.data[...] = 1e308
        x = np.ones((4, 14))
        x[:2] = 0.0  # only the rows of ones overflow the first layer
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^{name} must be finite, series 2 is not$"):
                forecast(model, x, 3)


class TestBaselines:
    def test_named_values(self):
        z = np.array([[1.0, 2.0, 3.0], [4.0, 6.0, 5.0]])
        np.testing.assert_array_equal(baseline_predict("mean", z), [2.0, 5.0])
        np.testing.assert_array_equal(baseline_predict("zero", z), [0.0, 0.0])
        np.testing.assert_array_equal(baseline_predict("last", z), [3.0, 5.0])

    def test_constant_series(self):
        z = np.full((1, 6), 4.5)
        assert baseline_predict("mean", z) == 4.5
        assert baseline_predict("last", z) == 4.5

    def test_mean_is_permutation_invariant_last_is_not(self):
        z = np.array([[1.0, 2.0, 9.0]])
        flipped = np.array([[9.0, 2.0, 1.0]])
        assert baseline_predict("mean", z) == baseline_predict("mean", flipped)
        assert baseline_predict("last", z) != baseline_predict("last", flipped)

    def test_rows_match_one_window_at_a_time(self):
        values = np.random.default_rng(0).normal(size=(50, 12)) * 40.0
        for kind in ("mean", "zero", "last"):
            whole = baseline_predict(kind, values)
            assert whole.shape == (50,)
            assert all(whole[i] == baseline_predict(kind, row) for i, row in enumerate(values))
        scores = input_variance_score(values)
        assert all(scores[i] == input_variance_score(row) for i, row in enumerate(values))

    @pytest.mark.parametrize("kind", ["mean", "zero", "last"])
    def test_forecast_is_its_own_array(self, kind):
        values = np.random.default_rng(2).normal(size=(30, 12))
        result = baseline_predict(kind, values)
        kept = result.copy()
        assert not np.shares_memory(result, values)
        values[:] = 7.0
        assert result.tobytes() == kept.tobytes()

    def test_unknown_baseline_rejected(self):
        with pytest.raises(ValueError):
            baseline_predict("median", np.array([[1.0, 2.0]]))

    def test_input_variance(self):
        assert input_variance_score(np.array([[0.0, 2.0]])) == 1.0
        assert input_variance_score(np.full((1, 5), 3.0)) == 0.0
        z = np.random.default_rng(0).normal(size=(1, 12))
        a = input_variance_score(z)
        b = input_variance_score(3.0 * z)
        np.testing.assert_allclose(b, 9.0 * a, rtol=1e-12)


class TestTrain:
    def test_point_model_fits_constant_target(self):
        values = np.tile(np.linspace(1.0, 12.0, 12), (80, 1))
        ds = make_dataset(RawSeries(values=values, target=np.full(80, 13.0)))
        model = build(ModelSpec.default("dense", "point", 14, desk=True), seed=0)
        model, history = train(model, ds, TrainConfig(max_epochs=200, patience=200, batch_size=32, seed=0))
        (y_hat,), _ = predict(model, ds.x[:1])
        assert abs(y_hat - 13.0) < 0.5
        first, last = history["train_loss"][0], history["train_loss"][-1]
        assert last < first

    def test_heteroscedastic_gradients_reach_both_towers(self):
        ds = tiny_dataset(120)
        model = build(ModelSpec.default("dense", "heteroscedastic", 14, desk=True), seed=0)
        x, y = ds.x, ds.y
        params = model.parameters()
        with GradientTape() as tape:
            mu = model.forecast_tower.forward(x)
            scales = model.forward_scale(x)
            loss = laplace_nll(Tensor(y[:, None]), mu, scales) / len(y)
        grads = tape.gradients(loss, params.values())
        forecast_norm = sum(np.abs(grads[p]).sum() for n, p in params.items() if n.startswith("forecast_tower."))
        scale_norm = sum(np.abs(grads[p]).sum() for n, p in params.items() if n.startswith("scale_tower."))
        assert forecast_norm > 0.0 and scale_norm > 0.0

    def test_two_regime_heteroscedastic_ordering(self):
        quiet = GeneratorConfig(
            families={"noise": 150}, series_length=12, amplitude_range=(10.0, 10.5),
            noise={"law": "constant", "scale": 0.5}, seed=1,
        )
        loud = GeneratorConfig(
            families={"noise": 150}, series_length=12, amplitude_range=(80.0, 80.5),
            noise={"law": "constant", "scale": 8.0}, seed=2,
        )
        both = [generate_synthetic(quiet), generate_synthetic(loud)]
        ds = make_dataset(RawSeries(
            values=np.concatenate([s.values for s in both]),
            target=np.concatenate([s.target for s in both]),
        ))
        model = build(ModelSpec.default("dense", "heteroscedastic", 14, desk=True), seed=0)
        model, _ = train(model, ds, TrainConfig(max_epochs=150, patience=150, batch_size=64, seed=0))
        held_quiet = make_dataset(generate_synthetic(replace(quiet, seed=33)))
        held_loud = make_dataset(generate_synthetic(replace(loud, seed=44)))
        _, b_quiet = predict(model, held_quiet.x)
        _, b_loud = predict(model, held_loud.x)
        assert np.median(b_loud) > np.median(b_quiet)

    def test_early_stopping_restores_best_epoch(self):
        ds = tiny_dataset(300, scale=4.0)
        model = build(ModelSpec.default("dense", "point", 14, desk=True), seed=0)
        config = TrainConfig(max_epochs=120, patience=8, batch_size=64, seed=0)
        model, history = train(model, ds, config)
        losses = history["validation_loss"]
        best = history["best_epoch"]
        assert history["best_validation_loss"] == min(losses)
        assert losses[best - 1] == min(losses)
        assert history["epochs_run"] <= best + config.patience

    def test_history_lengths_match(self):
        ds = tiny_dataset(100)
        model = build(ModelSpec.default("dense", "point", 14, desk=True), seed=0)
        model, history = train(model, ds, TrainConfig(max_epochs=5, patience=5, batch_size=32, seed=0))
        assert len(history["train_loss"]) == len(history["validation_loss"]) == history["epochs_run"]

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_loss_reports_epoch_and_batch(self):
        ds = tiny_dataset(50)
        model = build(ModelSpec.default("dense", "point", 14, desk=True), seed=0)
        model.parameters()["forecast_tower.layer0.weights"].data[0, 0] = np.inf
        with pytest.raises(TrainingError, match="epoch 1"):
            train(model, ds, TrainConfig(max_epochs=2, patience=2, batch_size=16, seed=0))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_gradient_names_the_parameter(self):
        # a finite loss whose backward pass overflows in layer1's weight gradient
        ds = tiny_dataset(50)
        model = build(ModelSpec.default("dense", "point", 14, desk=True), seed=0)
        params = model.parameters()
        params["forecast_tower.layer1.weights"].data[...] = 0.0
        params["forecast_tower.layer1.bias"].data[...] = 1e-10
        params["forecast_tower.out.weights"].data[...] = 1e308
        before = {name: p.data.copy() for name, p in params.items()}
        with pytest.raises(TrainingError) as info:
            train(model, ds, TrainConfig(max_epochs=2, patience=2, batch_size=16, seed=0))
        assert str(info.value) == (
            "epoch 1, batch 0: non-finite gradient for parameter forecast_tower.layer1.weights"
        )
        assert all(np.array_equal(before[name], p.data) for name, p in params.items())

    def test_empty_dataset_rejected(self):
        from forecast_uq.data import Dataset

        model = build(ModelSpec.default("dense", "point", 14, desk=True), seed=0)
        with pytest.raises(ValueError):
            train(model, Dataset(np.zeros((0, 14)), np.zeros(0), np.zeros((0, 12))), TrainConfig(max_epochs=1))

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            TrainConfig(seed=-1)

    def test_data_of_another_width_rejected(self):
        model = build(ModelSpec.default("dense", "point", 16, desk=True), seed=0)
        with pytest.raises(ShapeError, match=r"^model expects input_dim 16, data has 14$"):
            train(model, tiny_dataset(50), TrainConfig(max_epochs=1))

    def test_non_finite_validation_loss_names_the_epoch(self, monkeypatch):
        batch_loss = models._batch_loss

        def nan_on_validation(model, x, y, training, rng):
            return batch_loss(model, x, y, training, rng) if training else Tensor(np.nan)

        monkeypatch.setattr(models, "_batch_loss", nan_on_validation)
        model = build(ModelSpec.default("dense", "point", 14, desk=True), seed=0)
        with pytest.raises(TrainingError, match=r"^non-finite validation loss at epoch 1$"):
            train(model, tiny_dataset(50), TrainConfig(max_epochs=2, patience=2, batch_size=16, seed=0))

    @pytest.mark.parametrize("field", ["learning_rate", "eps"])
    def test_nan_step_size_rejected(self, field):
        with pytest.raises(ConfigError) as info:
            TrainConfig(**{field: float("nan")})
        assert str(info.value) == f"{field}: expected a finite number, got NaN"
        with pytest.raises(ConfigError, match=f"{field} must be positive"):
            TrainConfig(**{field: 0.0})

    def test_lstm_trains_and_improves(self):
        ds = tiny_dataset(200, scale=0.5)
        model = build(ModelSpec.default("lstm", "point", 14, desk=True), seed=0)
        model, history = train(model, ds, TrainConfig(max_epochs=12, patience=12, batch_size=64, seed=0))
        assert history["train_loss"][-1] < history["train_loss"][0]


class TestCheckpoints:
    def test_round_trip_preserves_predictions(self, tmp_path):
        ds = tiny_dataset(80)
        model = build(ModelSpec.default("lstm", "heteroscedastic", 14, desk=True), seed=5)
        model, _ = train(model, ds, TrainConfig(max_epochs=3, patience=3, batch_size=32, seed=5))
        path = tmp_path / "model.ckpt.json"
        save_checkpoint(model, path, TrainConfig(max_epochs=3, seed=5))
        loaded = load_checkpoint(path)
        x = ds.x
        np.testing.assert_array_equal(predict(model, x)[0], predict(loaded, x)[0])
        np.testing.assert_array_equal(predict(model, x)[1], predict(loaded, x)[1])
        assert loaded.spec == model.spec and loaded.seed == model.seed

    def test_save_is_deterministic(self, tmp_path):
        model = build(ModelSpec.default("dense", "homoscedastic", 14, desk=True), seed=1)
        save_checkpoint(model, tmp_path / "a.json")
        save_checkpoint(model, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_bad_schema_version_rejected(self, tmp_path):
        model = build(ModelSpec.default("dense", "point", 14, desk=True), seed=0)
        path = tmp_path / "model.ckpt.json"
        save_checkpoint(model, path)
        doc = path.read_text().replace('"schema_version": 1', '"schema_version": 9')
        path.write_text(doc)
        with pytest.raises(ConfigError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: unsupported checkpoint schema_version 9"

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.pop("rng_seed"), ".rng_seed: missing"),
        (lambda doc: doc.update(rng_seed=-1), ": rng_seed must be non-negative"),
        (lambda doc: doc["parameters"]["forecast_tower.out.bias"].update(data=[1.0, 2.0]),
         ": parameter forecast_tower.out.bias does not fit shape [1]"),
        (lambda doc: doc["parameters"]["scale_pre"].update(data=[[1.0], [2.0, 3.0]]),
         ".parameters.scale_pre: setting an array element with a sequence."),
        (lambda doc: doc["parameters"]["scale_pre"].update(data=["1.0"]),
         ".parameters.scale_pre: data must be a flat list of finite numbers"),
        (lambda doc: doc["parameters"]["scale_pre"].update(data=[float("inf")]),
         ".parameters.scale_pre: data must be a flat list of finite numbers"),
        (lambda doc: doc["parameters"]["scale_pre"].update(shape=[1], data=[0.0]),
         ": parameter scale_pre does not fit shape [1, 1]"),
        (lambda doc: doc["parameters"].pop("scale_pre"),
         ".parameters: names do not match the architecture"),
        (lambda doc: doc["training_config"].update(beta1=True),
         ".training_config.beta1: expected a finite number, got true"),
        (lambda doc: doc["parameters"]["forecast_tower.layer0.weights"]["data"].__setitem__(1, True),
         '.parameters."forecast_tower.layer0.weights": data must be a flat list of finite numbers'),
        (lambda doc: doc["architecture"].update(input_dim=0),
         ".architecture: dense backbone needs input_dim >= 1"),
        (lambda doc: doc["architecture"].update(head_size=4),
         ".architecture: head_size applies only to the lstm backbone"),
        (lambda doc: doc["architecture"].update(backbone="lstm", input_dim=2, head_size=2),
         ".architecture: lstm backbone needs input_dim >= 3"),
    ])
    def test_malformed_document_rejected(self, tmp_path, edit, message):
        model = build(ModelSpec("dense", "homoscedastic", 3, (2,)), seed=0)
        path = tmp_path / "model.ckpt.json"
        save_checkpoint(model, path, TrainConfig())
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc).replace("Infinity", "1e400"))
        with pytest.raises(ConfigError) as info:
            load_checkpoint(path)
        assert str(info.value).startswith(str(path) + message)

    def test_earlier_checkpoint_loads_and_resaves_identically(self, tmp_path):
        # written by the package before checkpoints went through the strict loader
        fixture = Path(__file__).parent / "data" / "lstm_heteroscedastic_v1.ckpt.json"
        model = load_checkpoint(fixture)
        assert model.spec == ModelSpec("lstm", "heteroscedastic", 4, (2,), head_size=2)
        assert model.seed == 7
        again = tmp_path / "again.ckpt.json"
        save_checkpoint(model, again, TrainConfig(max_epochs=3, seed=7, learning_rate=0.01))
        assert again.read_bytes() == fixture.read_bytes()
