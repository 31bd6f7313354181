"""Train the three uncertainty flavors and read their noise estimates.

Run from the repository root (about half a minute):

    python3 demos/03_training_uncertainty_models.py
"""

import os
import tempfile
from dataclasses import replace

import numpy as np

from forecast_uq.data import GeneratorConfig, generate_synthetic, make_dataset
from forecast_uq.models import (
    ModelSpec,
    TrainConfig,
    build,
    load_checkpoint,
    mc_dropout_predict,
    predict,
    save_checkpoint,
    train,
)

# ----------------------------------------------------------------------------
# 1. A dataset where the noise level grows with the series amplitude: quiet
#    low-level series, loud high-level series.

config = GeneratorConfig(
    families={"trend": 3000, "noise": 3000},
    series_length=12,
    amplitude_range=(10.0, 100.0),
    noise={"law": "amplitude_linear", "low": 1.0, "high": 8.0},
    seed=0,
)
dataset = make_dataset(generate_synthetic(config))
held = make_dataset(generate_synthetic(replace(config, seed=1)))
x, y, true_scale = held.x, held.y, held.true_scale
print(f"{len(dataset)} training series, true noise scale spans "
      f"[{true_scale.min():.2f}, {true_scale.max():.2f}]")

# the shared scale climbs about one optimizer step per batch, so scale-bearing
# models get a longer leash than the dropout one
train_config = TrainConfig(max_epochs=600, patience=40, seed=0)

# ----------------------------------------------------------------------------
# 2. Homoscedastic: one shared scale for everything. It converges near the
#    average noise level, blind to which series are loud.

hom = build(ModelSpec.default("dense", "homoscedastic", 14, desk=True), seed=0)
hom, history = train(hom, dataset, train_config)
_, shared = predict(hom, x)
print(f"shared scale {shared[0]:.2f} vs average true scale {true_scale.mean():.2f} "
      f"(stopped after {history['epochs_run']} epochs, best {history['best_epoch']})")

# ----------------------------------------------------------------------------
# 3. Heteroscedastic: a second tower predicts a per-input scale. Quartiles of
#    the predictions should track quartiles of the truth.

het = build(ModelSpec.default("dense", "heteroscedastic", 14, desk=True), seed=0)
het, _ = train(het, dataset, train_config)
y_hat, scale_hat = predict(het, x)
order = np.argsort(true_scale)
quarters = np.array_split(order, 4)
print("per-quartile (true -> predicted) scale:")
for i, rows in enumerate(quarters):
    print(f"  q{i + 1}: {true_scale[rows].mean():5.2f} -> {scale_hat[rows].mean():5.2f}")

# ----------------------------------------------------------------------------
# 4. MC dropout: spread of stochastic forward passes. With dropout off the
#    spread is exactly zero; with it on, the spread is a weight-uncertainty
#    proxy rather than a data-noise estimate.

mc = build(ModelSpec.default("dense", "mc_dropout", 14, desk=True), seed=0)
mc, _ = train(mc, dataset, TrainConfig(max_epochs=150, patience=15, seed=0))
mc_mean, mc_std = mc_dropout_predict(mc, x[:5], n_samples=50, seed=0)
for pred, spread in zip(mc_mean, mc_std):
    print(f"  forecast {pred:8.2f} +- {spread:.2f}")

# ----------------------------------------------------------------------------
# 5. Checkpoints restore bit-identical predictions.

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "het.ckpt.json")
    save_checkpoint(het, path, train_config)
    restored = load_checkpoint(path)
    same = np.array_equal(predict(restored, x)[0], y_hat)
    print("checkpoint restores identical forecasts:", same)
