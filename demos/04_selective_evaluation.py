"""Decline the shakiest forecasts: error-keep trade-offs and score quality.

Run from the repository root (a few seconds):

    python3 demos/04_selective_evaluation.py
"""

import os
import tempfile
from dataclasses import replace

import numpy as np

from forecast_uq.data import GeneratorConfig, generate_synthetic, make_dataset
from forecast_uq.models import (
    ModelSpec,
    TrainConfig,
    baseline_predict,
    build,
    input_variance_score,
    predict,
    train,
)
from forecast_uq.selective import (
    KEEP_GRID,
    error_keep_curve,
    error_score_correlation,
    keep_grid_readout,
    make_records,
    read_curve_csv,
    write_curve_csv,
)

# ----------------------------------------------------------------------------
# 1. A trap for naive confidence: the noise scale FALLS as amplitude grows, so
#    high-variance series are actually the easy ones. Ranking by input
#    variance keeps exactly the wrong forecasts.

config = GeneratorConfig(
    families={"periodic": 3000, "trend": 3000},
    series_length=12,
    amplitude_range=(10.0, 100.0),
    noise={"law": "amplitude_linear", "low": 10.0, "high": 1.0},
    seed=0,
)
dataset = make_dataset(generate_synthetic(config))
held = make_dataset(generate_synthetic(replace(config, seed=1)))
x, y = held.x, held.y

model = build(ModelSpec.default("dense", "heteroscedastic", 14, desk=True), seed=0)
model, _ = train(model, dataset, TrainConfig(seed=0))
y_hat, scale_hat = predict(model, x)
variance = input_variance_score(held.values)

learned = make_records(y, y_hat, scale_hat)
proxy = make_records(y, y_hat, variance)

# ----------------------------------------------------------------------------
# 2. Keep-grid readout: MAE over the most-confident fraction of forecasts.

print(f"{'keep':>6}  {'learned scale':>13}  {'input variance':>14}")
learned_readout = keep_grid_readout(learned)
proxy_readout = keep_grid_readout(proxy)
for k in KEEP_GRID:
    print(f"{k:6.3f}  {learned_readout[k]:13.3f}  {proxy_readout[k]:14.3f}")

# ----------------------------------------------------------------------------
# 3. Does the score predict the error at all? Rank correlation between the
#    realized |error| and the score, on the same held-out records.

rho_learned, _ = error_score_correlation(learned)
rho_proxy, _ = error_score_correlation(proxy)
print(f"\nspearman(|error|, score): learned {rho_learned:.3f}, variance {rho_proxy:.3f}")

# ----------------------------------------------------------------------------
# 4. The full curve is a CSV artifact; the final point is the plain MAE.

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "curve.csv")
    write_curve_csv(error_keep_curve(learned, n_points=30), path)
    curve = read_curve_csv(path)
    print(f"curve has {len(curve.threshold)} points; keep {curve.keep_fraction[-1]:.0%} "
          f"-> mae {curve.mae[-1]:.3f}")

# ----------------------------------------------------------------------------
# 5. Baselines under the same lens. None of them know the month ahead, and
#    zero is hopeless on strictly positive series -- but the machinery treats
#    every (predictor, score) pair the same way.

for kind in ("mean", "last", "zero"):
    readout = keep_grid_readout(make_records(y, baseline_predict(kind, held.values), variance))
    print(f"baseline {kind:>5}: mae at keep 25% {readout[0.25]:8.3f}, "
          f"at 100% {readout[1.0]:8.3f}")
