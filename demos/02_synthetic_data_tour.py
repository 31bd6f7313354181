"""Generate synthetic monthly-style series, inspect them, group them by shape.

Run from the repository root:

    python3 demos/02_synthetic_data_tour.py
"""

import os
import tempfile

import numpy as np

from forecast_uq.cluster import kmeans
from forecast_uq.data import (
    FAMILIES,
    GeneratorConfig,
    center_scale_normalize,
    generate_synthetic,
    make_dataset,
    read_series_csv,
    split,
    write_series_csv,
)

# ----------------------------------------------------------------------------
# 1. Four pattern families share one amplitude range; the Laplace noise scale
#    comes from a configurable law (constant here).

config = GeneratorConfig(
    families={"periodic": 50, "spikes": 50, "trend": 50, "noise": 50},
    series_length=24,
    amplitude_range=(10.0, 100.0),
    noise={"law": "constant", "scale": 2.0},
    seed=0,
)
series = generate_synthetic(config)
print(f"generated {len(series)} series of length {series.length}")

# series come out in the canonical family order, 50 of each here
labels = np.repeat(FAMILIES, [config.families[family] for family in FAMILIES])
spans = np.ptp(series.values, axis=1)
for family in FAMILIES:
    print(f"  {family:<9} mean peak-to-trough {spans[labels == family].mean():8.2f}")

# ----------------------------------------------------------------------------
# 2. Same seed, same bytes: the CSV is the exchange format.

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "series.csv")
    write_series_csv(series, path)
    again = read_series_csv(path)
    identical = np.array_equal(series.values, again.values) and np.array_equal(
        series.target, again.target
    )
    print("CSV round trip preserves every value:", identical)

# ----------------------------------------------------------------------------
# 3. Normalization removes level and scale, keeping shape. A tiny series with
#    near-zero spread falls back to centering so nothing blows up.

normalized = center_scale_normalize(series.values)
print("normalized mean/std:", round(normalized[0].mean(), 12), round(normalized[0].std(), 12))
flat = center_scale_normalize(np.array([7.0, 7.0, 7.0 + 1e-9]))
print("near-constant series stays finite:", np.all(np.isfinite(flat)))

# ----------------------------------------------------------------------------
# 4. Features are (normalized values, mean, std); split is seeded and disjoint.

dataset = make_dataset(series)
train_ds, val_ds = split(dataset, validation_fraction=0.1, seed=0)
print(f"split {len(dataset)} -> {len(train_ds)} train / {len(val_ds)} validation")

# ----------------------------------------------------------------------------
# 5. After normalization, k-means groups by shape, not by amplitude. Sines and
#    lines separate cleanly even when their raw scales overlap completely.

rng = np.random.default_rng(1)
t = np.arange(24)
sines = [np.sin(2.0 * np.pi * (t + rng.uniform(0, 1.5)) / 12.0) * rng.uniform(10, 1000)
         for _ in range(30)]
lines = [(t - 12.0) * rng.uniform(1, 100) for _ in range(30)]
matrix = center_scale_normalize(np.stack(sines + lines))
result = kmeans(matrix, k=2, seed=0)
sine_labels, line_labels = result.assignments[:30], result.assignments[30:]
pure = len(set(sine_labels)) == 1 and len(set(line_labels)) == 1
print(f"k-means separates sines from lines: {pure} (inertia {result.inertia:.2f}, "
      f"{result.n_iter} iterations)")
