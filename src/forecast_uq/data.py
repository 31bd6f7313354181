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

import math
from dataclasses import dataclass, field

import numpy as np

from .documents import check_kinds, check_value, load_csv, write_csv
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


def _moments(z: np.ndarray):
    """Mean and population std over the last axis as (..., 1), and the first series where either is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = z.mean(axis=-1, keepdims=True)
        std = z.std(axis=-1, keepdims=True)
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    return mean, std, int(bad[0]) if bad.size else None


def _normalized(z, moments: bool = False) -> np.ndarray:
    """``center_scale_normalize(z)``, then each series' raw mean and std as two columns if ``moments``."""
    z = np.asarray(z, dtype=np.float64)
    if moments and z.ndim != 2:
        raise ValueError(f"need (N, T) windows, got shape {z.shape}")
    if z.ndim == 0 or z.shape[-1] < 2:
        raise ValueError("series needs at least 2 values")
    mean, std, bad = _moments(z)
    if bad is not None:
        raise ValueError(f"series {bad}: mean or standard deviation is not finite")
    out = np.empty(z.shape[:-1] + (z.shape[-1] + 2 * moments,))  # after std's full-size temporary is freed
    normalized = np.subtract(z, mean, out=out[..., :z.shape[-1]])
    np.divide(normalized, np.where(std >= DEFAULT_STD_THRESHOLD, std, 1.0), out=normalized)
    if moments:
        out[..., -2], out[..., -1] = mean[..., 0], std[..., 0]
    return out


def center_scale_normalize(z) -> np.ndarray:
    """Center each series (last axis) by its mean; divide by its std when at least DEFAULT_STD_THRESHOLD.

    Uses the population (divide-by-T) standard deviation. Below the
    threshold a series is only centered, so near-constant series do
    not blow up. A series whose mean or std is not finite, such as finite
    values near 1e308 whose sum overflows, is a ValueError naming its index.
    """
    return _normalized(z)


def featurize(values) -> np.ndarray:
    """Model inputs (N, T+2) of (N, T) windows: T normalized values, then raw mean, then raw std.

    Each window's mean and std are computed once; a non-finite one is a ValueError naming its index.
    """
    return _normalized(values, moments=True)


def make_dataset(series: RawSeries) -> Dataset:
    return Dataset(
        x=featurize(series.values),
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
        check_kinds(self)
        if self.schema_version != 1:
            raise ConfigError(f"unsupported schema_version {self.schema_version!r}")
        if not self.families:
            raise ConfigError("families must name at least one pattern family")
        for name, count in self.families.items():
            if name not in FAMILIES:
                raise ConfigError(f"unknown family {name!r}, expected one of {FAMILIES}")
            if count <= 0:
                raise ConfigError(f"family count must be a positive integer, got {name}={count!r}")
        if self.series_length < 2:
            raise ConfigError("series_length must be at least 2")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
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
            keys, scale = {"law", "scale"}, check_value(float, noise.get("scale"), "noise.scale")
            if scale < 0.0:
                raise ConfigError("constant noise needs scale >= 0")
        else:
            keys = {"law", "low", "high"}
            lo, hi = (check_value(float, noise.get(key), f"noise.{key}") for key in ("low", "high"))
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


def _patterns(family: str, amplitude: np.ndarray, lanes: _PCG64Lanes, n_steps: int) -> np.ndarray:
    """The deterministic shapes over steps 1..n_steps of a block of one family's series.

    ``amplitude`` is (count, 1), drawn first from the block's pattern ``lanes``, which then give
    the family's own draws. Every element takes the float operations, in the order, that
    computing one series alone would.
    """
    t = np.arange(1, n_steps + 1, dtype=np.float64)
    if family == "periodic":
        # one row per phase, each computed as for a single series
        waves = np.stack([np.sin(2.0 * np.pi * (t + phase) / 12.0) for phase in range(12)])
        return amplitude + 0.5 * amplitude * waves[_integers(lanes, 12)]
    if family == "spikes":
        spikes = lanes.doubles(n_steps)  # where they are, drawn before how high
        return amplitude + np.where(spikes < 0.1, amplitude * _uniform(lanes, 2.0, 4.0, n_steps), 0.0)
    if family == "trend":
        slope = amplitude * _uniform(lanes, -1.0, 1.0)[:, None] / n_steps  # slope per amplitude
        return amplitude + slope * t
    return amplitude  # flat, broadcast over the steps


def _noise_scales(config: GeneratorConfig, amplitude: np.ndarray, lanes: _PCG64Lanes) -> np.ndarray:
    """Each series' Laplace scale; the uniform law draws it first from the block's noise ``lanes``."""
    noise = config.noise
    if noise["law"] == "constant":
        return np.full(len(amplitude), float(noise["scale"]))
    if noise["law"] == "uniform":
        return _uniform(lanes, noise["low"], noise["high"])
    amp_lo, amp_hi = config.amplitude_range
    # one series' scalar expression, with Python's int-to-float conversions written out
    frac = (amplitude - float(amp_lo)) / float(amp_hi - amp_lo)
    return float(noise["low"]) + float(noise["high"] - noise["low"]) * frac


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = (1 << 32) - 1
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128): its uint64
# halves, and the low half's 32-bit halves for the 64x64 -> 128 product
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = np.uint64(_PCG64_MULT >> 64), np.uint64(_PCG64_MULT & (1 << 64) - 1)
_MULT_LO_1, _MULT_LO_0 = np.uint64(int(_MULT_LO) >> 32), np.uint64(int(_MULT_LO) & _MASK32)
# series drawn together: each draw is one array op per block, and the
# block's temporaries (Python floats for the log among them) stay small
_LANE_BLOCK = 2048


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


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """``state * PCG64_MULT + inc`` mod 2**128 on uint64 halves; uint64 products wrap.

    The high word of ``lo * _MULT_LO`` comes from its four 32-bit partial products.
    """
    lo_0, lo_1 = lo & _MASK32, lo >> 32
    p00, p01, p10 = lo_0 * _MULT_LO_0, lo_0 * _MULT_LO_1, lo_1 * _MULT_LO_0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    carry = lo_1 * _MULT_LO_1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    new_lo = lo * _MULT_LO + inc_lo
    new_hi = carry + hi * _MULT_LO + lo * _MULT_HI + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


class _PCG64Lanes:
    """PCG64 streams stepped together, one per lane, on uint64 arrays.

    Each lane holds what numpy's PCG64 holds: the 128-bit LCG state and odd
    increment, here as (hi, lo) uint64 halves. A draw steps the LCG and
    returns the XSL-RR output of the new state, as ``random_raw`` does.
    ``rows`` picks the lanes that draw (default: all), so a rare redraw
    advances only its own lanes.
    """

    def __init__(self, hi, lo, inc_hi, inc_lo):
        self.hi, self.lo, self.inc_hi, self.inc_lo = hi, lo, inc_hi, inc_lo

    @classmethod
    def seeded(cls, base_seed: int, index: np.ndarray, stream: int) -> _PCG64Lanes:
        """Lane j as ``PCG64(SeedSequence([base_seed, index[j], stream]))``.

        The entropy words are those of ``base_seed`` (32-bit words, low first,
        as SeedSequence reads an int), then ``index``, then ``stream``; each
        index is one uint32 word, since 2**32 series could not be allocated.
        """
        words = []
        while True:
            words.append(base_seed & _MASK32)
            base_seed >>= 32
            if not base_seed:
                break
        entropy = [np.full_like(index, word) for word in words] + [index, np.full_like(index, stream)]
        init_hi, init_lo, seq_hi, seq_lo = _seed_sequence_state(entropy)
        # pcg64_set_seed: inc = initseq << 1 | 1, then state = (inc + initstate) * M + inc
        inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
        lo = inc_lo + init_lo
        return cls(*_lcg_step(inc_hi + init_hi + (lo < init_lo), lo, inc_hi, inc_lo), inc_hi, inc_lo)

    def next64(self, rows=None) -> np.ndarray:
        """One 64-bit output per lane, or per lane in ``rows``."""
        if rows is None:
            self.hi, self.lo = hi, lo = _lcg_step(self.hi, self.lo, self.inc_hi, self.inc_lo)
        else:
            hi, lo = _lcg_step(self.hi[rows], self.lo[rows], self.inc_hi[rows], self.inc_lo[rows])
            self.hi[rows], self.lo[rows] = hi, lo
        # XSL-RR: hi ^ lo rotated right by the state's top 6 bits
        value, rot = hi ^ lo, hi >> 58
        return value >> rot | value << (64 - rot & 63)

    def doubles(self, count: int, rows=None) -> np.ndarray:
        """``count`` of numpy's ``next_double`` per lane, ``(next64 >> 11) * 2**-53``: (lanes, count)."""
        out = np.empty((len(self.hi) if rows is None else len(rows), count))
        for j in range(count):
            out[:, j] = (self.next64(rows) >> 11) * 2.0**-53
        return out


def _uniform(lanes: _PCG64Lanes, low, high, count: int | None = None) -> np.ndarray:
    """``uniform(low, high)`` per lane, or ``size=count`` of them: ``low + (high - low) * u``."""
    low = float(low)
    u = lanes.doubles(1 if count is None else count)
    return low + (float(high) - low) * (u[:, 0] if count is None else u)


def _integers(lanes: _PCG64Lanes, high: int) -> np.ndarray:
    """``integers(0, high)`` per lane, for a stream that has drawn no 32-bit word yet.

    numpy draws a range below 2**32 by Lemire's method on 32-bit words:
    ``m = word * high``, rejected while ``m``'s low word is below
    ``2**32 % high``. PCG64 serves 32-bit words as the low half of a
    64-bit draw, then its buffered upper half. The lanes' buffers are not
    kept, so nothing may draw 32-bit words from these lanes afterwards.
    """
    threshold = (1 << 32) % high
    words = lanes.next64()
    m = (words & _MASK32) * high
    todo = np.flatnonzero(m & _MASK32 < threshold)
    upper = True
    while todo.size:  # each round rejects with probability threshold / 2**32
        if upper:
            word = words[todo] >> 32
        else:
            words[todo] = lanes.next64(todo)
            word = words[todo] & _MASK32
        m[todo] = word * high
        todo = todo[m[todo] & _MASK32 < threshold]
        upper = not upper
    return m >> 32


def _laplace(lanes: _PCG64Lanes, count: int) -> np.ndarray:
    """``laplace(0.0, 1.0, size=count)`` per lane: (lanes, count).

    As numpy's ``random_laplace``: ``0.0 - log(2.0 - U - U)`` for U >= 0.5,
    else ``0.0 + log(U + U)``, where a draw U == 0 is dropped and the next
    double taken. The logs are libm's, through ``math.log``: ``np.log``
    rounds some arguments differently.
    """
    u = lanes.doubles(count)
    while (hit := np.flatnonzero((u == 0.0).any(axis=1))).size:
        # drop each hit lane's first zero and append the lane's next draw
        drawn = u[hit]
        kept = drawn[np.arange(count) != (drawn == 0.0).argmax(axis=1)[:, None]]
        u[hit] = np.column_stack([kept.reshape(hit.size, count - 1), lanes.doubles(1, hit)])
    upper = u >= 0.5
    arg = np.where(upper, 2.0 - u - u, u + u)
    log = np.fromiter(map(math.log, arg.ravel().tolist()), np.float64, arg.size).reshape(arg.shape)
    return np.where(upper, 0.0 - log, log)  # 0.0 + log is log: log(U + U) < 0


def generate_synthetic(config: GeneratorConfig) -> RawSeries:
    """Draw the configured families, in canonical family order.

    Each series gets two independent seeded streams: one for its
    pattern, one for its noise. Patterns are therefore stable across
    noise-law changes. ``seed`` is ``config.seed``.

    Series ``index`` draws its pattern from exactly the stream of
    ``default_rng(SeedSequence([seed, index, 0]))`` and its noise from
    ``[seed, index, 1]``. No generator is built: each family runs in
    blocks of series, whose seeds are hashed, whose PCG64 streams are
    stepped and whose draws and arithmetic run on arrays, one lane per
    series.
    """
    n_steps = config.series_length + 1  # window plus the target step
    counts = [config.families.get(family, 0) for family in FAMILIES]
    z = np.empty((sum(counts), n_steps))
    scales = np.empty(sum(counts))
    start = 0
    # values beyond the float64 range become inf or NaN here and are reported below
    with np.errstate(over="ignore", invalid="ignore"):
        for family, count in zip(FAMILIES, counts):
            for first in range(start, start + count, _LANE_BLOCK):
                rows = slice(first, min(first + _LANE_BLOCK, start + count))
                index = np.arange(rows.start, rows.stop, dtype=np.uint32)
                pattern, noise = (_PCG64Lanes.seeded(config.seed, index, stream) for stream in (0, 1))
                amplitude = _uniform(pattern, *config.amplitude_range)
                scales[rows] = _noise_scales(config, amplitude, noise)
                shape = _patterns(family, amplitude[:, None], pattern, n_steps)
                z[rows] = shape + scales[rows, None] * _laplace(noise, n_steps)
            start += count
    mean, std, _ = _moments(z[:, :-1])  # the reader's rule: a window whose mean or std overflows
    bad = np.flatnonzero(~np.isfinite(np.hstack([z, mean, std])).all(axis=1))
    if bad.size:
        raise ConfigError(
            f"noise {config.noise} and amplitude_range {list(config.amplitude_range)} draw values "
            f"beyond the float64 range, first in series {bad[0]}"
        )
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
    # one row at a time: a whole-table tolist() would hold every float as an object
    write_csv(path, header, (row.tolist() for row in np.hstack(columns)))


def read_series_csv(path) -> RawSeries:
    """Parse a file written by ``write_series_csv``; extra columns must be numeric.

    A malformed file is a ValueError naming the file, and the line when
    one line is at fault: a row whose cell count differs from the
    header's, a cell that is not a finite number, values whose mean or
    population std overflows, a negative true_scale. The header holds
    'target' once and at most one 'true_scale', after it.
    """
    header, data = load_csv(path, "series rows")
    if "target" not in header:
        raise ValueError(f"{path}: no 'target' column")
    target_col = header.index("target")
    if max(header.count("target"), header.count("true_scale")) > 1 or "true_scale" in header[:target_col]:
        raise ValueError(f"{path}: need one 'target' column and at most one 'true_scale' column after it")
    if target_col < 2:
        raise ValueError(f"{path}: need at least 2 value columns before 'target'")
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}, line {bad[0] + 2}: non-finite cell")
    values = data[:, :target_col]
    if (bad := _moments(values)[2]) is not None:
        raise ValueError(f"{path}, line {bad + 2}: mean or standard deviation is not finite")
    scale = None
    if "true_scale" in header:
        scale = data[:, header.index("true_scale")]
        bad = np.flatnonzero(scale < 0.0)
        if bad.size:
            raise ValueError(f"{path}, line {bad[0] + 2}: negative true_scale {scale[bad[0]]}")
    return RawSeries(values=values, target=data[:, target_col], true_scale=scale)
