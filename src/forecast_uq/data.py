"""Synthetic series generation, normalization, featurization, and CSV I/O.

A raw example is a short monthly series ``z = (z_1, ..., z_T)`` with the
next value ``z_{T+1}`` as the prediction target. Features are the
normalized series plus its raw mean and standard deviation, so the model
sees shape and can still recover the monetary scale.

The generator produces series from four pattern families (periodic,
spikes, trend, noise) and corrupts them with Laplace noise whose scale
follows a configured law. The true per-series scale is recorded, which
is what makes uncertainty estimates testable: generated data comes with
its own ground truth.

Pattern draws and noise draws come from separate seeded streams, so the
underlying patterns are identical across noise laws for a fixed seed. A
zero-noise run therefore reveals the exact pattern a noisy run was built
on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError

__all__ = [
    "DEFAULT_STD_THRESHOLD",
    "FAMILIES",
    "Dataset",
    "GeneratorConfig",
    "RawSeries",
    "center_scale_normalize",
    "featurize",
    "generate_synthetic",
    "make_dataset",
    "read_series_csv",
    "split",
    "write_series_csv",
]

DEFAULT_STD_THRESHOLD = 1e-6

FAMILIES = ("periodic", "spikes", "trend", "noise")

NOISE_LAWS = ("constant", "uniform", "amplitude_linear")


@dataclass(frozen=True)
class RawSeries:
    """N observed windows of T values, plus each window's target (the next value).

    ``values`` is (N, T) and ``target`` is (N,). ``true_scale`` is the
    (N,) ground-truth Laplace noise scale when the series are synthetic,
    ``None`` for external data.
    """

    values: np.ndarray
    target: np.ndarray
    true_scale: np.ndarray | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        target = np.asarray(self.target, dtype=np.float64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "target", target)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 2:
            raise ValueError(f"need at least 1 series of at least 2 values, got shape {values.shape}")
        if target.shape != values.shape[:1]:
            raise ValueError(f"need one target per series, got shape {target.shape}")
        if not (np.isfinite(values).all() and np.isfinite(target).all()):
            raise ValueError("series values and targets must be finite")
        if self.true_scale is not None:
            scale = np.asarray(self.true_scale, dtype=np.float64)
            if scale.shape != target.shape:
                raise ValueError(f"need one true_scale per series, got shape {scale.shape}")
            if not (np.isfinite(scale).all() and (scale >= 0.0).all()):
                raise ValueError("true_scale must be finite and nonnegative")
            object.__setattr__(self, "true_scale", scale)

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Dataset:
    """Model inputs ``x`` (N, T+2) and targets ``y`` (N,), with the raw
    windows ``values`` (N, T) and ``true_scale`` (N,) or ``None`` they came from."""

    x: np.ndarray
    y: np.ndarray
    values: np.ndarray
    true_scale: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.y)

    def take(self, rows) -> "Dataset":
        scale = None if self.true_scale is None else self.true_scale[rows]
        return Dataset(self.x[rows], self.y[rows], self.values[rows], scale)


def center_scale_normalize(z, std_threshold: float = DEFAULT_STD_THRESHOLD) -> np.ndarray:
    """Center each series (last axis) by its mean; divide by the std when std >= std_threshold.

    Uses the population (divide-by-T) standard deviation. Below the
    threshold a series is only centered, so near-constant series do
    not blow up.
    """
    if not std_threshold > 0.0:  # also rejects NaN
        raise ValueError("std_threshold must be positive")
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 0 or z.shape[-1] < 2:
        raise ValueError("series needs at least 2 values")
    std = z.std(axis=-1, keepdims=True)
    return (z - z.mean(axis=-1, keepdims=True)) / np.where(std >= std_threshold, std, 1.0)


def featurize(values, std_threshold: float = DEFAULT_STD_THRESHOLD) -> np.ndarray:
    """Model inputs (N, T+2) of (N, T) windows: T normalized values, then raw mean, then raw std."""
    values = np.asarray(values, dtype=np.float64)
    return np.column_stack([
        center_scale_normalize(values, std_threshold), values.mean(axis=1), values.std(axis=1)
    ])


def make_dataset(series: RawSeries, std_threshold: float = DEFAULT_STD_THRESHOLD) -> Dataset:
    return Dataset(
        x=featurize(series.values, std_threshold),
        y=series.target,
        values=series.values,
        true_scale=series.true_scale,
    )


# -- synthetic generation ----------------------------------------------------


@dataclass(frozen=True)
class GeneratorConfig:
    """Validated description of a synthetic dataset.

    ``families`` maps family name to series count. ``noise`` is one of
      {"law": "constant", "scale": b}
      {"law": "uniform", "low": b_lo, "high": b_hi}        per-series b ~ U
      {"law": "amplitude_linear", "low": b_lo, "high": b_hi}
    where amplitude_linear maps a series' amplitude affinely from the
    amplitude range onto [b_lo, b_hi], tying noise to magnitude.
    """

    families: dict[str, int]
    series_length: int = 24
    amplitude_range: tuple[float, float] = (10.0, 100.0)
    noise: dict[str, object] = field(default_factory=lambda: {"law": "constant", "scale": 1.0})
    seed: int = 0
    schema_version: int = 1

    def __post_init__(self):
        if self.schema_version != 1:
            raise ConfigError(f"unsupported schema_version {self.schema_version!r}")
        if not self.families:
            raise ConfigError("families must name at least one pattern family")
        for name, count in self.families.items():
            if name not in FAMILIES:
                raise ConfigError(f"unknown family {name!r}, expected one of {FAMILIES}")
            if not isinstance(count, int) or count <= 0:
                raise ConfigError(f"family count must be a positive integer, got {name}={count!r}")
        if self.series_length < 2:
            raise ConfigError("series_length must be at least 2")
        lo, hi = self.amplitude_range
        if not (0.0 < lo <= hi):
            raise ConfigError("amplitude_range must satisfy 0 < low <= high")
        self._validate_noise()

    def _validate_noise(self):
        noise = self.noise
        law = noise.get("law")
        if law not in NOISE_LAWS:
            raise ConfigError(f"unknown noise law {law!r}, expected one of {NOISE_LAWS}")
        if law == "constant":
            keys, scale = {"law", "scale"}, _noise_number(noise, "scale")
            if scale < 0.0:
                raise ConfigError("constant noise needs scale >= 0")
        else:
            keys = {"law", "low", "high"}
            lo, hi = _noise_number(noise, "low"), _noise_number(noise, "high")
            if law == "uniform" and not 0.0 <= lo <= hi:
                raise ConfigError("uniform noise needs 0 <= low <= high")
            if law == "amplitude_linear":
                # low maps to the smallest amplitude, high to the largest;
                # low > high (noise shrinking with magnitude) is legitimate
                if lo < 0.0 or hi < 0.0:
                    raise ConfigError("amplitude_linear noise needs nonnegative low and high")
                if self.amplitude_range[0] == self.amplitude_range[1]:
                    raise ConfigError("amplitude_linear noise needs a non-degenerate amplitude_range")
        extra = set(noise) - keys
        if extra:
            raise ConfigError(f"unknown noise keys {sorted(extra)}")


def _noise_number(noise: dict, key: str):
    """``noise[key]`` if it is an int or float; booleans are not numbers."""
    value = noise.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"noise.{key} must be a number, got {value!r}")
    return value


def _pattern(family: str, amplitude: float, n_steps: int, rng: np.random.Generator) -> np.ndarray:
    """Deterministic shape of one series over steps 1..n_steps."""
    t = np.arange(1, n_steps + 1, dtype=np.float64)
    if family == "periodic":
        phase = rng.integers(0, 12)
        return amplitude + 0.5 * amplitude * np.sin(2.0 * np.pi * (t + phase) / 12.0)
    if family == "spikes":
        spikes = rng.random(n_steps) < 0.1
        heights = amplitude * rng.uniform(2.0, 4.0, size=n_steps)
        return amplitude + np.where(spikes, heights, 0.0)
    if family == "trend":
        slope = amplitude * rng.uniform(-1.0, 1.0) / n_steps
        return amplitude + slope * t
    if family == "noise":
        return np.full(n_steps, amplitude)
    raise ValueError(f"unknown family {family!r}")


def _noise_scale(config: GeneratorConfig, amplitude: float, rng: np.random.Generator) -> float:
    noise = config.noise
    if noise["law"] == "constant":
        return float(noise["scale"])
    if noise["law"] == "uniform":
        return float(rng.uniform(noise["low"], noise["high"]))
    amp_lo, amp_hi = config.amplitude_range
    frac = (amplitude - amp_lo) / (amp_hi - amp_lo)
    return float(noise["low"] + (noise["high"] - noise["low"]) * frac)


def generate_synthetic(config: GeneratorConfig, seed: int | None = None) -> RawSeries:
    """Draw the configured families, in canonical family order.

    Each series gets two independent seeded streams: one for its
    pattern, one for its noise. Patterns are therefore stable across
    noise-law changes. ``seed`` overrides ``config.seed`` when given.
    """
    base_seed = config.seed if seed is None else seed
    n_steps = config.series_length + 1  # window plus the target step
    families = [family for family in FAMILIES for _ in range(config.families.get(family, 0))]
    z = np.empty((len(families), n_steps))
    scales = np.empty(len(families))
    for index, family in enumerate(families):
        pattern_rng = np.random.default_rng(np.random.SeedSequence([base_seed, index, 0]))
        noise_rng = np.random.default_rng(np.random.SeedSequence([base_seed, index, 1]))
        amplitude = float(pattern_rng.uniform(*config.amplitude_range))
        pattern = _pattern(family, amplitude, n_steps, pattern_rng)
        scales[index] = _noise_scale(config, amplitude, noise_rng)
        z[index] = pattern + scales[index] * noise_rng.laplace(0.0, 1.0, size=n_steps)
    return RawSeries(values=z[:, :-1], target=z[:, -1], true_scale=scales)


def split(dataset: Dataset, validation_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded disjoint train/validation split of one dataset.

    Split sizes are within one example of the exact fraction, and both
    sides are nonempty (which needs at least 2 examples). Training rows
    keep their input order; validation rows come in permutation order.
    """
    if not 0.0 < validation_fraction < 1.0:
        raise ValueError("validation_fraction must be in (0, 1)")
    n = len(dataset)
    if n < 2:
        raise ValueError("need at least 2 examples to split")
    n_val = int(round(n * validation_fraction))
    n_val = min(max(n_val, 1), n - 1)
    order = np.random.default_rng(seed).permutation(n)
    return dataset.take(np.sort(order[n_val:])), dataset.take(order[:n_val])


# -- CSV I/O -----------------------------------------------------------------


def write_series_csv(series: RawSeries, path) -> None:
    """One series per row: T value columns, target, then true_scale if known.

    Floats are written with repr so files round-trip exactly and
    identical data produces byte-identical files.
    """
    header = [f"value_{i}" for i in range(1, series.length + 1)] + ["target"]
    columns = [series.values, series.target[:, None]]
    if series.true_scale is not None:
        header.append("true_scale")
        columns.append(series.true_scale[:, None])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(repr, row.tolist())) + "\n" for row in np.hstack(columns))


def read_series_csv(path) -> RawSeries:
    """Parse a file written by ``write_series_csv``; extra columns must be numeric.

    A row whose cell count differs from the header's, or a cell that is
    not a finite number, is a ValueError naming the file and line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path} is empty, expected a header row")
    header = lines[0].split(",")
    if "target" not in header:
        raise ValueError(f"{path} has no 'target' column")
    target_col = header.index("target")
    if target_col < 2:
        raise ValueError("need at least 2 value columns before 'target'")
    if len(lines) < 2:
        raise ValueError(f"{path} has no series rows")
    for number, line in enumerate(lines[1:], start=2):
        if line.count(",") != len(header) - 1:
            raise ValueError(f"{path}, line {number}: {line.count(',') + 1} cells, header has {len(header)}")
    try:
        data = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}, line {bad[0] + 2}: non-finite cell")
    scale = data[:, header.index("true_scale")] if "true_scale" in header else None
    return RawSeries(values=data[:, :target_col], target=data[:, target_col], true_scale=scale)
