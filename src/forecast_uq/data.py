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

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .documents import load_csv
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
        _check_seed(self.seed)
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


def _check_seed(seed) -> int:
    """``seed`` if it is a non-negative integer; booleans are not seeds."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return int(seed)


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


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
# series hashed per block: wide enough for numpy, and a block's Python ints stay few
_SEED_BLOCK = 1024


def _seed_sequence_state(entropy: list[np.ndarray]) -> np.ndarray:
    """``SeedSequence(words).generate_state(4, np.uint64)`` per lane, as a (4, lanes) array.

    ``entropy`` holds the uint32 entropy words in order, one array per word
    and one lane per sequence. Runs SeedSequence's pool mixing and
    ``generate_state`` on those arrays. The hash constant advances the
    same way in every lane, so it is a Python int.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value *= hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros_like(entropy[0]))
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # eight words cycling over the pool, paired little-endian into uint64
    hash_const = _INIT_B
    words = np.empty((8, len(entropy[0])), dtype=np.uint32)
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value *= hash_const
        words[i] = value ^ (value >> 16)
    return words[0::2].astype(np.uint64) | words[1::2].astype(np.uint64) << 32


def _pcg64_states(base_seed: int, count: int, stream: int) -> Iterator[dict]:
    """``PCG64(SeedSequence([base_seed, index, stream])).state`` for each index < count, in order.

    The entropy words are those of ``base_seed`` (32-bit words, low first,
    as SeedSequence reads an int), then ``index``, then ``stream``; each
    index is one word, since 2**32 series could not be allocated. PCG64's
    seeding step runs on Python ints.
    """
    base_words = []
    value = base_seed
    while True:
        base_words.append(value & _MASK32)
        value >>= 32
        if not value:
            break
    for start in range(0, count, _SEED_BLOCK):
        lanes = np.arange(start, min(start + _SEED_BLOCK, count), dtype=np.uint32)
        entropy = [np.full_like(lanes, word) for word in base_words] + [lanes, np.full_like(lanes, stream)]
        halves = _seed_sequence_state(entropy)
        # pcg64_set_seed: initstate is halves 0:1, initseq halves 2:3
        for state_hi, state_lo, seq_hi, seq_lo in zip(*halves.tolist()):
            inc = ((seq_hi << 65) | (seq_lo << 1) | 1) & _MASK128
            state = ((inc + ((state_hi << 64) | state_lo)) * _PCG64_MULT + inc) & _MASK128
            yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                   "has_uint32": 0, "uinteger": 0}


def generate_synthetic(config: GeneratorConfig, seed: int | None = None) -> RawSeries:
    """Draw the configured families, in canonical family order.

    Each series gets two independent seeded streams: one for its
    pattern, one for its noise. Patterns are therefore stable across
    noise-law changes. ``seed`` overrides ``config.seed`` when given.

    Series ``index`` draws its pattern from exactly the stream of
    ``default_rng(SeedSequence([seed, index, 0]))`` and its noise from
    ``[seed, index, 1]``. The seeds are hashed on arrays, a block of
    series at a time, and two generators are re-seeded per series rather
    than built.
    """
    base_seed = _check_seed(config.seed if seed is None else seed)
    n_steps = config.series_length + 1  # window plus the target step
    families = [family for family in FAMILIES for _ in range(config.families.get(family, 0))]
    z = np.empty((len(families), n_steps))
    scales = np.empty(len(families))
    pattern_rng = np.random.Generator(np.random.PCG64(0))
    noise_rng = np.random.Generator(np.random.PCG64(0))
    streams = zip(_pcg64_states(base_seed, len(families), 0), _pcg64_states(base_seed, len(families), 1))
    for index, (family, (pattern_state, noise_state)) in enumerate(zip(families, streams)):
        pattern_rng.bit_generator.state = pattern_state
        noise_rng.bit_generator.state = noise_state
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

    A malformed file is a ValueError naming the file, and the line when
    one line is at fault: a row whose cell count differs from the
    header's, a cell that is not a finite number, a negative true_scale.
    """
    header, data = load_csv(path, "series rows")
    if "target" not in header:
        raise ValueError(f"{path}: no 'target' column")
    target_col = header.index("target")
    if target_col < 2:
        raise ValueError(f"{path}: need at least 2 value columns before 'target'")
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}, line {bad[0] + 2}: non-finite cell")
    scale = None
    if "true_scale" in header:
        scale = data[:, header.index("true_scale")]
        bad = np.flatnonzero(scale < 0.0)
        if bad.size:
            raise ValueError(f"{path}, line {bad[0] + 2}: negative true_scale {scale[bad[0]]}")
    return RawSeries(values=data[:, :target_col], target=data[:, target_col], true_scale=scale)
