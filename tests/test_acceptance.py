"""Acceptance gate: one test per shipped guarantee, desk-scale runtimes.

Each test name maps to a verdict line printed by conftest at the end of
the run. Training-based checks use fixed seeds throughout, so the suite
is deterministic on a given platform.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, stats

from forecast_uq.cli import main
from forecast_uq.data import (
    GeneratorConfig,
    generate_synthetic,
    make_dataset,
)
from forecast_uq.losses import elu_plus_one, laplace_likelihood, laplace_nll
from forecast_uq.models import (
    ModelSpec,
    TrainConfig,
    baseline_predict,
    build,
    input_variance_score,
    predict,
    train,
)
from forecast_uq.nn.tensor import GradientTape, Tensor
from forecast_uq.selective import (
    KEEP_GRID,
    error_keep_curve,
    error_score_correlation,
    mae_at_keep,
    mae_at_threshold,
    make_records,
    write_scatter_csv,
)

from test_tensor import finite_difference


# -- shared trained models ----------------------------------------------------


@pytest.fixture(scope="module")
def heteroscedastic_run():
    """Scale spans [1, 20] linearly in amplitude; held-out is exactly 10k."""
    start = time.monotonic()
    train_config = GeneratorConfig(
        families={"trend": 10000, "noise": 10000},
        series_length=12,
        amplitude_range=(10.0, 100.0),
        noise={"law": "amplitude_linear", "low": 1.0, "high": 20.0},
        seed=21,
    )
    held_config = GeneratorConfig(
        families={"trend": 5000, "noise": 5000},
        series_length=12,
        amplitude_range=(10.0, 100.0),
        noise={"law": "amplitude_linear", "low": 1.0, "high": 20.0},
        seed=22,
    )
    dataset = make_dataset(generate_synthetic(train_config))
    model = build(ModelSpec.default("dense", "heteroscedastic", 14, desk=True), seed=0)
    model, _ = train(model, dataset, TrainConfig())
    held = make_dataset(generate_synthetic(held_config))
    y_hat, scale_hat = predict(model, held.x)
    return {
        "y": held.y,
        "y_hat": y_hat,
        "scale_hat": scale_hat,
        "true_scale": held.true_scale,
        "elapsed": time.monotonic() - start,
    }


@pytest.fixture(scope="module")
def selective_risk_runs():
    """Noise scale falls from 10 to 1 as amplitude grows, so ranking by
    input variance keeps exactly the wrong (noisiest) series."""
    train_config = GeneratorConfig(
        families={"periodic": 5000, "trend": 5000},
        series_length=12,
        amplitude_range=(10.0, 100.0),
        noise={"law": "amplitude_linear", "low": 10.0, "high": 1.0},
        seed=31,
    )
    held_config = GeneratorConfig(
        families={"periodic": 2000, "trend": 2000},
        series_length=12,
        amplitude_range=(10.0, 100.0),
        noise={"law": "amplitude_linear", "low": 10.0, "high": 1.0},
        seed=32,
    )
    dataset = make_dataset(generate_synthetic(train_config))
    held = make_dataset(generate_synthetic(held_config))
    x, y = held.x, held.y
    var_scores = input_variance_score(held.values)

    runs = []
    for seed in range(6):
        het = build(ModelSpec.default("dense", "heteroscedastic", 14, desk=True), seed=seed)
        het, _ = train(het, dataset, TrainConfig(seed=seed))
        hom = build(ModelSpec.default("dense", "homoscedastic", 14, desk=True), seed=seed)
        hom, _ = train(hom, dataset, TrainConfig(seed=seed))
        y_het, het_scale = predict(het, x)
        y_hom, _ = predict(hom, x)
        runs.append(
            {
                "learned_score": mae_at_keep(make_records(y, y_het, het_scale), 0.25),
                "het_by_variance": mae_at_keep(make_records(y, y_het, var_scores), 0.25),
                "hom_by_variance": mae_at_keep(make_records(y, y_hom, var_scores), 0.25),
            }
        )
    return runs


# -- criteria ------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for instance in range(50):
        uncertainty = "heteroscedastic" if instance % 4 < 2 else "homoscedastic"
        if instance % 2 == 0:
            spec = ModelSpec("dense", uncertainty, 6, (5, 4))
        else:
            spec = ModelSpec("lstm", uncertainty, 8, (4,), head_size=3)
        model = build(spec, seed=int(rng.integers(1 << 16)))
        # zero-init biases can park a relu pre-activation exactly on its
        # kink (dead previous layer); shift every parameter to a generic
        # point where the loss is differentiable
        for p in model.parameters().values():
            p.data += rng.normal(0.0, 0.05, size=p.data.shape)
        x = rng.normal(size=(3, spec.input_dim))
        # keep residuals away from the |r| kink so central differences hold
        clean, _ = predict(model, x)
        y = clean + rng.uniform(0.5, 2.0, size=3) * rng.choice([-1.0, 1.0], size=3)

        def loss_fn():
            mu = model.forecast_tower.forward(x)
            scales = model.forward_scale(x)
            return laplace_nll(Tensor(y[:, None]), mu, scales) / float(len(y))

        params = list(model.parameters().values())
        with GradientTape() as tape:
            loss = loss_fn()
        grads = tape.gradients(loss, params)
        for p in params:
            numeric = finite_difference(loss_fn, p)
            analytic = grads[p]
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
            worst = max(worst, float((np.abs(analytic - numeric) / denom).max()))
    elapsed = time.monotonic() - start
    assert worst < 1e-5, f"worst relative gradient error {worst:.2e}"
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"


def test_criterion_2_loss_oracles():
    rng = np.random.default_rng(7)
    y = rng.normal(0.0, 5.0, size=1000)
    mu = rng.normal(0.0, 5.0, size=1000)
    b = rng.uniform(0.1, 10.0, size=1000)
    per_sample = np.log(b) + np.abs(y - mu) / b
    np.testing.assert_allclose(laplace_nll(y, mu, b), per_sample.sum(), rtol=1e-12)
    for i in (0, 1, 999):
        np.testing.assert_allclose(
            laplace_nll(y[i : i + 1], mu[i : i + 1], b[i : i + 1]), per_sample[i], rtol=1e-12
        )

    for center, scale in ((0.0, 1.0), (3.5, 0.25), (-20.0, 8.0)):
        density = lambda t: laplace_likelihood(t, center, scale)
        mass = (
            integrate.quad(density, -np.inf, center)[0]
            + integrate.quad(density, center, np.inf)[0]
        )
        np.testing.assert_allclose(mass, 1.0, atol=1e-6)

    x = rng.uniform(-20.0, 20.0, size=1000)
    np.testing.assert_allclose(
        elu_plus_one(x), np.where(x < 0.0, np.exp(x), x + 1.0), rtol=1e-12
    )


def test_criterion_3_homoscedastic_recovery():
    # flat-level series: the optimal forecast (the window mean) is learnable
    # almost exactly, so the shared scale settles at the true noise level
    start = time.monotonic()
    config = GeneratorConfig(
        families={"noise": 20000},
        series_length=24,
        amplitude_range=(5.0, 50.0),
        noise={"law": "constant", "scale": 5.0},
        seed=11,
    )
    dataset = make_dataset(generate_synthetic(config))
    model = build(ModelSpec.default("dense", "homoscedastic", 26, desk=True), seed=0)
    model, _ = train(model, dataset, TrainConfig())
    _, (shared_scale,) = predict(model, dataset.x[:1])
    elapsed = time.monotonic() - start
    assert 4.5 <= shared_scale <= 5.5, f"learned shared scale {shared_scale:.3f}"
    assert elapsed < 300.0, f"recovery took {elapsed:.1f}s"


def test_criterion_4_heteroscedastic_recovery(heteroscedastic_run):
    rho = stats.spearmanr(
        heteroscedastic_run["scale_hat"], heteroscedastic_run["true_scale"]
    ).statistic
    assert rho > 0.8, f"spearman(predicted scale, true scale) = {rho:.3f}"
    assert heteroscedastic_run["elapsed"] < 600.0


def test_criterion_5_selective_risk_ordering(selective_risk_runs):
    wins = sum(
        1
        for run in selective_risk_runs
        if run["learned_score"] < run["het_by_variance"]
        and run["learned_score"] < run["hom_by_variance"]
    )
    assert wins >= 5, f"learned score won {wins}/6 seeds: {selective_risk_runs}"


def test_criterion_6_error_keep_machinery():
    rng = np.random.default_rng(99)
    errors = rng.exponential(2.0, size=2000)
    oracle = make_records(np.zeros(2000), errors, errors)
    curve = error_keep_curve(oracle, n_points=60)
    maes = curve.mae[curve.n_kept > 0]
    assert np.all(np.diff(maes) >= -1e-12)

    scores = rng.uniform(0.0, 10.0, size=2000)
    base = make_records(np.zeros(2000), errors, scores)
    transformed = make_records(np.zeros(2000), errors, np.expm1(scores))
    for k in KEEP_GRID:
        assert mae_at_keep(base, k) == mae_at_keep(transformed, k)

    mae, keep = mae_at_threshold(base, scores.max() + 1.0)
    np.testing.assert_allclose(mae, errors.mean(), rtol=1e-12)
    assert keep == 1.0


def test_criterion_7_error_score_correlation(heteroscedastic_run, tmp_path):
    records = make_records(
        heteroscedastic_run["y"], heteroscedastic_run["y_hat"], heteroscedastic_run["scale_hat"]
    )
    assert len(records) == 10_000
    rho, scatter = error_score_correlation(records)
    assert rho > 0.3, f"spearman(|error|, score) = {rho:.3f}"

    path = tmp_path / "scatter.csv"
    write_scatter_csv(scatter, path)
    rows = path.read_text().splitlines()
    assert rows[0] == "abs_error,score"
    assert len(rows) == 10_001
    loaded = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    assert loaded.shape == (10_000, 2) and np.all(np.isfinite(loaded))


def test_criterion_8_baselines_sanity():
    config = GeneratorConfig(
        families={"periodic": 3000},
        series_length=12,
        amplitude_range=(10.0, 100.0),
        noise={"law": "constant", "scale": 0.5},
        seed=41,
    )
    dataset = make_dataset(generate_synthetic(config))
    model = build(ModelSpec.default("dense", "point", 14, desk=True), seed=0)
    model, _ = train(model, dataset, TrainConfig())

    held = make_dataset(generate_synthetic(replace(config, seed=42)))
    x, y = held.x, held.y
    y_hat, _ = predict(model, x)
    mae_model = float(np.abs(y - y_hat).mean())
    mae = {
        kind: float(np.abs(y - baseline_predict(kind, held.values)).mean())
        for kind in ("mean", "zero", "last")
    }
    assert mae["last"] > mae_model, f"last {mae['last']:.2f} vs model {mae_model:.2f}"
    assert mae["zero"] > max(mae["mean"], mae["last"], mae_model)


def test_criterion_9_determinism(tmp_path):
    generator = {
        "families": {"periodic": 40, "noise": 40},
        "series_length": 10,
        "amplitude_range": [5.0, 30.0],
        "noise": {"law": "uniform", "low": 0.5, "high": 3.0},
        "seed": 13,
    }
    run = {
        "models": [{"backbone": "dense", "uncertainty": "heteroscedastic"}],
        "train": {"max_epochs": 4, "patience": 4, "batch_size": 16},
        "seeds": [0],
        "desk": True,
    }
    gen_path = tmp_path / "generator.json"
    gen_path.write_text(json.dumps(generator))
    run_path = tmp_path / "run.json"
    run_path.write_text(json.dumps(run))

    roots = []
    for attempt in ("first", "second"):
        root = tmp_path / attempt
        root.mkdir()
        data = root / "dataset.csv"
        assert main(["generate", "--config", str(gen_path), "--out", str(data)]) == 0
        assert main(["train", "--config", str(run_path), "--data", str(data),
                     "--out", str(root / "ckpts")]) == 0
        roots.append(root)

    first, second = roots
    assert (first / "dataset.csv").read_bytes() == (second / "dataset.csv").read_bytes()
    checkpoint_names = sorted(p.name for p in (first / "ckpts").iterdir())
    assert checkpoint_names
    for name in checkpoint_names:
        assert (first / "ckpts" / name).read_bytes() == (second / "ckpts" / name).read_bytes()
