"""Generator, normalization, featurization, split, and CSV round trips."""

import random
import re
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forecast_uq.data import (
    DEFAULT_STD_THRESHOLD,
    FAMILIES,
    NOISE_LAWS,
    _LANE_BLOCK,
    Dataset,
    GeneratorConfig,
    RawSeries,
    _integers,
    _laplace,
    _PCG64Lanes,
    center_scale_normalize,
    featurize,
    generate_synthetic,
    make_dataset,
    read_series_csv,
    split,
    write_series_csv,
)
from forecast_uq.documents import from_document
from forecast_uq.exceptions import ConfigError


def small_config(**overrides) -> GeneratorConfig:
    base = {
        "families": {"periodic": 10, "spikes": 10, "trend": 10, "noise": 10},
        "series_length": 24,
        "amplitude_range": (10.0, 100.0),
        "noise": {"law": "constant", "scale": 2.0},
        "seed": 5,
    }
    base.update(overrides)
    return GeneratorConfig(**base)


def quotient_normalize(z):
    """``center_scale_normalize`` as one quotient of full-size temporaries, the reference for its bits."""
    std = z.std(axis=-1, keepdims=True)
    return (z - z.mean(axis=-1, keepdims=True)) / np.where(std >= DEFAULT_STD_THRESHOLD, std, 1.0)


def column_stack_featurize(values):
    """``featurize`` as the normalized block stacked beside fresh moments, the reference for its bits."""
    return np.column_stack([quotient_normalize(values), values.mean(axis=1), values.std(axis=1)])


def bit_cases():
    """Windows whose statistics are finite, each an (N, T) array as the readers pass it."""
    rng = np.random.default_rng(11)
    below = rng.normal(size=(30, 24))
    below[::3] *= 1e-7  # std below the threshold: centered only
    below[1] = 5.0
    signed = np.zeros((6, 8))
    signed[0] = -0.0
    signed[1, ::2] = -0.0
    signed[2] = [-0.0, 1.0] * 4
    signed[3, 0] = -0.0
    huge = np.array([[1e300] * 24, [-1.7e300] * 24, [1e153, -1e153] * 12, [1e-300, 3e-300] * 12, [2.0] * 24])
    wide = rng.normal(size=(40, 26)) * 30.0 + 50.0
    return {
        "random": rng.normal(size=(200, 24)) * rng.uniform(1.0, 100.0, size=(200, 1)),
        "below-threshold": below,
        "negative-zero": signed,
        "near-1e300": huge,
        "one-window-of-two": np.array([[3.0, -7.5]]),
        "strided-columns": wide[:, :24],  # read_series_csv's values: a column slice of the file's table
    }


@pytest.mark.parametrize("name", list(bit_cases()))
def test_one_array_keeps_the_bits_of_the_quotient_and_the_column_stack(name):
    values = bit_cases()[name]
    with np.errstate(over="raise", invalid="raise"):
        assert np.isfinite(values.std(axis=1)).all()  # the case reaches the arithmetic, not the error
    assert center_scale_normalize(values).tobytes() == quotient_normalize(values).tobytes()
    assert featurize(values).tobytes() == column_stack_featurize(values).tobytes()
    for row in values:
        assert center_scale_normalize(row).tobytes() == quotient_normalize(row).tobytes()


def test_overflowing_row_is_named_by_the_first_non_finite_statistic():
    z = np.ones((8, 24))
    z[5] = [1e300, -1e300] * 12
    z[6] = [3e307] * 24
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.flatnonzero(~(np.isfinite(z.mean(axis=1)) & np.isfinite(z.std(axis=1))))[0]
    assert want == 5
    for transform in (center_scale_normalize, featurize):
        with pytest.raises(ValueError) as info:
            transform(z)
        assert str(info.value) == "series 5: mean or standard deviation is not finite"


class TestCenterScaleNormalize:
    def test_hand_computed_example(self):
        out = center_scale_normalize(np.array([1.0, 2.0, 3.0]))
        # population std of (1,2,3) is sqrt(2/3)
        expected = [-1.224744871391589, 0.0, 1.224744871391589]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_constant_series_takes_centered_branch(self):
        np.testing.assert_allclose(center_scale_normalize(np.full(5, 5.0)), np.zeros(5))

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=24)
        np.testing.assert_allclose(center_scale_normalize(z), center_scale_normalize(z + 42.0), atol=1e-9)

    def test_threshold_switches_branches(self):
        z = np.array([[0.0, 1e-8], [0.0, 1e-5]])  # std 5e-9 and 5e-6, either side of 1e-6
        out = center_scale_normalize(z)
        assert DEFAULT_STD_THRESHOLD == 1e-6
        np.testing.assert_allclose(out[0], [-5e-9, 5e-9], rtol=1e-12)  # centered only
        np.testing.assert_allclose(out[1], [-1.0, 1.0])

    def test_matrix_rows_match_one_series_at_a_time(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(40, 24)) * rng.uniform(1.0, 100.0, size=(40, 1))
        z[5] = 7.0  # below the threshold: centered only
        out = center_scale_normalize(z)
        for row, expected in zip(out, z):
            assert np.array_equal(row, center_scale_normalize(expected))

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            center_scale_normalize(np.array([1.0]))
        with pytest.raises(ValueError):
            center_scale_normalize(np.zeros((3, 1)))

    @pytest.mark.filterwarnings("error")  # no overflow warning on the way to the error
    @pytest.mark.parametrize("row", [[3e307] * 8, [1e200, -1e200] * 4, [1.0, np.nan] * 4, [np.inf] * 8],
                             ids=["mean-overflows", "std-overflows", "nan", "inf"])
    def test_row_with_non_finite_statistics_is_named(self, row):
        z = np.ones((4, 8))
        z[2] = row
        for transform in (center_scale_normalize, featurize):
            with pytest.raises(ValueError) as info:
                transform(z)
            assert str(info.value) == "series 2: mean or standard deviation is not finite"

    def test_finite_statistics_keep_their_bits(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(50, 12)) * np.logspace(-150, 150, 50)[:, None]
        z[3] = 1e-300  # below the threshold: centered only
        assert center_scale_normalize(z).tobytes() == quotient_normalize(z).tobytes()


class TestFeaturize:
    """Feature rows are (T normalized values, raw mean, raw std)."""

    def test_hand_computed_attributes(self):
        x = featurize([[1.0, 2.0, 3.0]])
        assert x.shape == (1, 5)
        np.testing.assert_allclose(x[0, -2], 2.0)
        np.testing.assert_allclose(x[0, -1], 0.816496580927726, atol=1e-12)

    def test_zero_series(self):
        x = featurize(np.zeros((1, 4)))
        np.testing.assert_allclose(x[0, :-2], np.zeros(4))
        assert x[0, -2] == 0.0 and x[0, -1] == 0.0

    def test_std_homogeneity(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(1, 24))
        base = featurize(values)
        scaled = featurize(3.0 * values)
        np.testing.assert_allclose(scaled[0, -1], 3.0 * base[0, -1], rtol=1e-12)

    def test_normalized_part_is_standardized(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(5.0, 500.0, size=(20, 1)) * rng.normal(size=(20, 24))
        x = featurize(values + rng.uniform(-50, 50, size=(20, 1)))
        for row in x:
            if row[-1] >= DEFAULT_STD_THRESHOLD:
                assert abs(row[:-2].mean()) < 1e-9
                assert abs(row[:-2].std() - 1.0) < 1e-9

    @pytest.mark.parametrize("shape", [(24,), (3, 4, 24), ()], ids=["1-D", "3-D", "0-D"])
    def test_windows_must_be_two_dimensional(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"need (N, T) windows, got shape {shape}")):
            featurize(np.ones(shape))

    def test_peak_memory_stays_near_the_features(self):
        values = np.random.default_rng(4).normal(size=(20_000, 24)) * 40.0
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            x = featurize(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (N, T+2) result, not the normalized block, a quotient temporary and a stacked copy
        assert peak - before <= 1.25 * x.nbytes

    def test_rows_match_one_series_at_a_time(self):
        series = generate_synthetic(small_config())
        x = featurize(series.values)
        for row, z in zip(x, series.values):
            assert np.array_equal(row[:-2], center_scale_normalize(z))
            assert row[-2] == z.mean() and row[-1] == z.std()


class TestRawSeries:
    def test_validates_length_and_finiteness(self):
        with pytest.raises(ValueError):
            RawSeries(values=[[1.0]], target=[0.0])
        with pytest.raises(ValueError):
            RawSeries(values=[[1.0, np.inf]], target=[0.0])
        with pytest.raises(ValueError):
            RawSeries(values=[[1.0, 2.0]], target=[np.nan])
        with pytest.raises(ValueError):
            RawSeries(values=[[1.0, 2.0]], target=[0.0], true_scale=[-1.0])
        with pytest.raises(ValueError):
            RawSeries(values=[[1.0, 2.0]], target=[0.0], true_scale=[np.inf])

    def test_validates_shapes(self):
        with pytest.raises(ValueError):
            RawSeries(values=[1.0, 2.0], target=[0.0])
        with pytest.raises(ValueError):
            RawSeries(values=np.zeros((2, 3)), target=[0.0])
        with pytest.raises(ValueError):
            RawSeries(values=np.zeros((2, 3)), target=[0.0, 1.0], true_scale=[1.0])

    def test_length_and_count(self):
        series = RawSeries(values=np.zeros((4, 3)), target=np.zeros(4))
        assert len(series) == 4 and series.length == 3 and series.true_scale is None


class TestGenerator:
    def test_counts_and_lengths(self):
        series = generate_synthetic(small_config())
        assert len(series) == 40
        assert series.values.shape == (40, 24)
        assert np.all(series.true_scale == 2.0)

    def test_determinism(self):
        a = generate_synthetic(small_config())
        b = generate_synthetic(small_config())
        assert np.array_equal(a.values, b.values) and np.array_equal(a.target, b.target)

    def test_zero_noise_reveals_exact_pattern(self):
        quiet = generate_synthetic(small_config(noise={"law": "constant", "scale": 0.0}))
        noisy = generate_synthetic(small_config(noise={"law": "constant", "scale": 3.0}))
        # same pattern stream: the zero-noise run is the other one's truth
        for q, n in zip(quiet.values, noisy.values):
            assert np.all(np.isfinite(q))
            assert not np.array_equal(q, n)
        periodic = quiet.values[0]
        season = periodic[:12]
        np.testing.assert_allclose(periodic[12:24], season, atol=1e-9)

    def test_mean_abs_residual_matches_scale(self):
        # flat-pattern family: residual around the level is b * |standard laplace|
        config = small_config(
            families={"noise": 10000},
            noise={"law": "constant", "scale": 2.0},
            amplitude_range=(50.0, 50.0),
        )
        series = generate_synthetic(config)
        residuals = series.values - 50.0
        np.testing.assert_allclose(np.abs(residuals).mean(), 2.0, rtol=0.05)

    def test_noise_law_slope_is_recoverable(self):
        config = small_config(
            families={"noise": 10000},
            noise={"law": "uniform", "low": 0.5, "high": 8.0},
            amplitude_range=(20.0, 20.0),
        )
        series = generate_synthetic(config)
        abs_residuals = np.abs(series.target - 20.0)
        scales = series.true_scale
        slope = np.polyfit(scales, abs_residuals, 1)[0]
        np.testing.assert_allclose(slope, 1.0, atol=0.1)

    def test_amplitude_linear_scale_spans_configured_range(self):
        config = small_config(
            families={"trend": 4000},
            noise={"law": "amplitude_linear", "low": 1.0, "high": 20.0},
        )
        scales = generate_synthetic(config).true_scale
        assert scales.min() >= 1.0 and scales.max() <= 20.0
        assert scales.max() - scales.min() > 15.0

    def test_patterns_stable_across_noise_laws(self):
        base = small_config(noise={"law": "constant", "scale": 0.0})
        alt = small_config(noise={"law": "amplitude_linear", "low": 0.0, "high": 0.0})
        np.testing.assert_allclose(
            generate_synthetic(base).values, generate_synthetic(alt).values, atol=1e-12
        )

    @pytest.mark.filterwarnings("error")  # no overflow warning on the way to the error
    @pytest.mark.parametrize("amplitude, rejected", [(1e306, False), (1e307, True)])
    def test_windows_the_reader_rejects_are_not_drawn(self, amplitude, rejected, tmp_path):
        """24 finite values of ``amplitude`` sum to 2.4e307 (fine) or 2.4e308 (overflow, as the reader finds)."""
        config = small_config(families={"noise": 3}, amplitude_range=(amplitude, amplitude),
                              noise={"law": "constant", "scale": 0.0})
        if rejected:
            with pytest.raises(ConfigError) as info:
                generate_synthetic(config)
            assert str(info.value).endswith("draw values beyond the float64 range, first in series 0")
        else:
            write_series_csv(generate_synthetic(config), tmp_path / "big.csv")
            assert np.all(read_series_csv(tmp_path / "big.csv").values == amplitude)

    def test_all_families_produce_finite_features(self):
        series = generate_synthetic(small_config(noise={"law": "uniform", "low": 0.0, "high": 9.0}))
        assert np.all(np.isfinite(featurize(series.values)))


def one_pattern(family: str, amplitude: float, n_steps: int, rng: np.random.Generator) -> np.ndarray:
    """Deterministic shape of one series over steps 1..n_steps: the per-series reference."""
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


def one_noise_scale(config: GeneratorConfig, amplitude: float, rng: np.random.Generator) -> float:
    noise = config.noise
    if noise["law"] == "constant":
        return float(noise["scale"])
    if noise["law"] == "uniform":
        return float(rng.uniform(noise["low"], noise["high"]))
    amp_lo, amp_hi = config.amplitude_range
    frac = (amplitude - amp_lo) / (amp_hi - amp_lo)
    return float(noise["low"] + (noise["high"] - noise["low"]) * frac)


def per_series_generators(config):
    """The generation loop that builds two generators per series, kept as the reference."""
    n_steps = config.series_length + 1  # window plus the target step
    families = [family for family in FAMILIES for _ in range(config.families.get(family, 0))]
    z = np.empty((len(families), n_steps))
    scales = np.empty(len(families))
    for index, family in enumerate(families):
        pattern_rng = np.random.default_rng(np.random.SeedSequence([config.seed, index, 0]))
        noise_rng = np.random.default_rng(np.random.SeedSequence([config.seed, index, 1]))
        amplitude = float(pattern_rng.uniform(*config.amplitude_range))
        pattern = one_pattern(family, amplitude, n_steps, pattern_rng)
        scales[index] = one_noise_scale(config, amplitude, noise_rng)
        z[index] = pattern + scales[index] * noise_rng.laplace(0.0, 1.0, size=n_steps)
    return RawSeries(values=z[:, :-1], target=z[:, -1], true_scale=scales)


def assert_same_series(got, want):
    assert got.values.tobytes() == want.values.tobytes()
    assert got.target.tobytes() == want.target.tobytes()
    assert got.true_scale.tobytes() == want.true_scale.tobytes()


NOISE = {
    "constant": {"law": "constant", "scale": 2.0},
    "uniform": {"law": "uniform", "low": 0.5, "high": 9.0},
    "amplitude_linear": {"law": "amplitude_linear", "low": 1.0, "high": 20.0},
}


class TestStreamsEqualPerSeriesGenerators:
    """Array-hashed seeds give the draws of two fresh generators per series, bit for bit."""

    @pytest.mark.parametrize("law", NOISE_LAWS)
    @pytest.mark.parametrize("base_seed", [0, 11, 2**32 + 5, 2**64 + 3])
    def test_every_family_and_law(self, law, base_seed):
        families = {"periodic": 9, "spikes": 7, "trend": 8, "noise": 6}
        config = small_config(families=families, noise=NOISE[law], seed=base_seed)
        assert_same_series(generate_synthetic(config), per_series_generators(config))

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("law", NOISE_LAWS)
    @pytest.mark.parametrize("series_length", [2, 24])
    def test_each_family_alone(self, family, law, series_length):
        config = small_config(families={family: 17}, series_length=series_length, noise=NOISE[law])
        assert_same_series(generate_synthetic(config), per_series_generators(config))

    @pytest.mark.parametrize("noise", [
        {"law": "constant", "scale": 0.0},
        {"law": "constant", "scale": 0},
        {"law": "constant", "scale": 3},
        {"law": "uniform", "low": 1, "high": 9},
        {"law": "amplitude_linear", "low": 20, "high": 1},
        # ints a float cannot hold exactly: the conversions must round as Python's do
        {"law": "amplitude_linear", "low": 2**53 + 1, "high": 3},
    ])
    def test_integer_and_zero_noise_numbers(self, noise):
        config = small_config(noise=noise, amplitude_range=(7, 2**53 + 3))
        assert_same_series(generate_synthetic(config), per_series_generators(config))

    @pytest.mark.parametrize("law", NOISE_LAWS)
    def test_families_larger_than_a_lane_block(self, law):
        count = _LANE_BLOCK + 1000  # one full block and a partial one per family
        assert count >= 3000
        config = small_config(families={family: count for family in FAMILIES}, noise=NOISE[law])
        assert_same_series(generate_synthetic(config), per_series_generators(config))

    @settings(max_examples=200, deadline=None)
    @given(base_seed=st.integers(0, 2**96), first=st.integers(0, 2**32 - 41), count=st.integers(1, 40),
           stream=st.integers(0, 1))
    @example(base_seed=0, first=0, count=1, stream=0)
    @example(base_seed=2**32, first=0, count=3, stream=1)
    @example(base_seed=2**96, first=0, count=2, stream=0)
    @example(base_seed=5, first=0, count=2 * _LANE_BLOCK + 3, stream=1)  # as many lanes as two blocks and more
    @example(base_seed=2**64 + 3, first=3 * _LANE_BLOCK, count=5, stream=1)  # a later block, multi-word seed
    @example(base_seed=7, first=2**32 - 1, count=1, stream=0)  # the last uint32 index
    def test_states_equal_seed_sequence(self, base_seed, first, count, stream):
        want = [np.random.PCG64(np.random.SeedSequence([base_seed, index, stream])).state["state"]
                for index in range(first, first + count)]
        lanes = _PCG64Lanes.seeded(base_seed, np.arange(first, first + count, dtype=np.uint32), stream)
        halves = zip(lanes.hi.tolist(), lanes.lo.tolist(), lanes.inc_hi.tolist(), lanes.inc_lo.tolist())
        assert [{"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo}
                for hi, lo, inc_hi, inc_lo in halves] == want


PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MASK64, MASK128 = (1 << 64) - 1, (1 << 128) - 1


def state_before(state, inc, steps):
    """The PCG64 state ``steps`` LCG steps before ``state``: (s - inc) * M**-1 mod 2**128."""
    inverse = pow(PCG64_MULT, -1, 1 << 128)
    for _ in range(steps):
        state = (state - inc) * inverse & MASK128
    return state


def state_drawing(output, rot):
    """A state whose XSL-RR output is ``output``: rotr(hi ^ lo, hi >> 58) with hi's top bits ``rot``."""
    hi = rot << 58 | 0x0123456789ABCDEF
    return hi << 64 | hi ^ ((output << rot | output >> (64 - rot)) & MASK64)


def lanes_at(states, incs):
    """``_PCG64Lanes`` holding the given 128-bit states and increments."""
    def halves(values):
        return (np.array([v >> 64 for v in values], dtype=np.uint64),
                np.array([v & MASK64 for v in values], dtype=np.uint64))
    return _PCG64Lanes(*halves(states), *halves(incs))


def generator_at(state, inc):
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    return rng


def lane_state(lanes, j):
    return {"state": int(lanes.hi[j]) << 64 | int(lanes.lo[j]),
            "inc": int(lanes.inc_hi[j]) << 64 | int(lanes.inc_lo[j])}


class TestRarePathsEqualNumpy:
    """Forced PCG64 states reach the lane code's redraws; each lane matches a numpy Generator byte for byte."""

    @pytest.mark.parametrize("position", [0, 1, 12, 24])
    def test_laplace_redraws_a_zero_uniform(self, position):
        n = 25
        rnd = random.Random(position)
        incs = [rnd.getrandbits(128) | 1 for _ in range(4)]
        # lane 1 draws U == 0 at `position` (output < 2**11), lane 2 an output
        # of 2**11, the smallest positive U; lanes 0 and 3 are unforced
        states = [rnd.getrandbits(128),
                  state_before(state_drawing(5, rot=7), incs[1], position + 1),
                  state_before(state_drawing(1 << 11, rot=0), incs[2], position + 1),
                  rnd.getrandbits(128)]
        assert generator_at(states[1], incs[1]).random(position + 1)[-1] == 0.0
        assert generator_at(states[2], incs[2]).random(position + 1)[-1] == 2.0**-53
        lanes = lanes_at(states, incs)
        got = _laplace(lanes, n)
        for j, (state, inc) in enumerate(zip(states, incs)):
            rng = generator_at(state, inc)
            assert got[j].tobytes() == rng.laplace(0.0, 1.0, size=n).tobytes()
            assert lane_state(lanes, j) == rng.bit_generator.state["state"]

    def test_lemire_rejections(self):
        # 32-bit words w with w * 12 mod 2**32 < 4 are rejected: w in {0, 2**30, 2**31, 3 * 2**30}
        outputs = [
            0xC0000001 << 32 | 1 << 30,  # low half rejected, buffered upper half gives 9
            1 << 31 << 32 | 3 << 30,  # both halves rejected: a fresh 64-bit draw follows
            0xC0000001 << 32 | pow(3, -1, 1 << 30),  # low word * 12 = 4 mod 2**32: accepted
        ]
        rnd = random.Random(3)
        incs = [rnd.getrandbits(128) | 1 for _ in range(len(outputs) + 1)]
        states = [state_before(state_drawing(out, rot=j + 1), inc, 1)
                  for j, (out, inc) in enumerate(zip(outputs, incs))] + [rnd.getrandbits(128)]
        lanes = lanes_at(states, incs)
        got = _integers(lanes, 12)
        want = []
        for j, (state, inc) in enumerate(zip(states, incs)):
            rng = generator_at(state, inc)
            want.append(rng.integers(0, 12))
            assert lane_state(lanes, j) == rng.bit_generator.state["state"]
        assert got.tolist() == want
        assert want[0] == 9


class TestGeneratorConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            from_document(GeneratorConfig, {"families": {"trend": 1}, "extra_knob": 1}, "config")

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError):
            small_config(families={"sawtooth": 5})

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ConfigError):
            small_config(families={"trend": 0})

    def test_short_series_rejected(self):
        with pytest.raises(ConfigError):
            small_config(series_length=1)

    def test_bad_amplitude_range_rejected(self):
        with pytest.raises(ConfigError):
            small_config(amplitude_range=(0.0, 10.0))
        with pytest.raises(ConfigError):
            small_config(amplitude_range=(10.0, 5.0))

    def test_bad_noise_law_rejected(self):
        with pytest.raises(ConfigError):
            small_config(noise={"law": "gaussian", "scale": 1.0})
        with pytest.raises(ConfigError):
            small_config(noise={"law": "constant", "scale": -1.0})
        with pytest.raises(ConfigError):
            small_config(noise={"law": "uniform", "low": 5.0, "high": 1.0})
        with pytest.raises(ConfigError):
            small_config(noise={"law": "constant", "scale": 1.0, "typo": 2})

    @pytest.mark.parametrize("noise, message", [
        ({"law": "constant", "scale": True}, "noise.scale: expected a finite number, got true"),
        ({"law": "uniform", "low": False, "high": 2.0}, "noise.low: expected a finite number, got false"),
        ({"law": "amplitude_linear", "low": 1.0, "high": True},
         "noise.high: expected a finite number, got true"),
        ({"law": "constant"}, "noise.scale: expected a finite number, got null"),
    ])
    def test_noise_numbers_exclude_booleans(self, noise, message):
        with pytest.raises(ConfigError) as info:
            small_config(noise=noise)
        assert str(info.value) == message

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be non-negative, got -1"),
        (1.5, "seed: expected an integer, got 1.5"),
        (True, "seed: expected an integer, got true"),
        ("3", 'seed: expected an integer, got "3"'),
    ])
    def test_bad_seed_rejected(self, seed, message):
        with pytest.raises(ConfigError) as info:
            small_config(seed=seed)
        assert str(info.value) == message

    def test_wrong_schema_version_rejected(self):
        with pytest.raises(ConfigError):
            small_config(schema_version=2)

    def test_round_trips_through_dict(self):
        config = small_config()
        again = from_document(GeneratorConfig, asdict(config), "config")
        assert again == config


class TestSplit:
    def make(self, n) -> Dataset:
        i = np.arange(n, dtype=np.float64)
        return make_dataset(RawSeries(values=np.column_stack([i, i + 1, i + 2]), target=i))

    def test_ten_percent_split(self):
        train, val = split(self.make(100), 0.1, seed=0)
        assert len(train) == 90 and len(val) == 10
        assert train.x.shape == (90, 5) and val.values.shape == (10, 3)

    def test_union_preserved_and_disjoint(self):
        ds = self.make(37)
        train, val = split(ds, 0.25, seed=1)
        targets = sorted(np.concatenate([train.y, val.y]))
        assert targets == sorted(ds.y)
        assert len(train) + len(val) == len(ds)
        assert not set(train.y) & set(val.y)

    def test_rows_stay_aligned(self):
        ds = make_dataset(generate_synthetic(small_config()))
        for part in split(ds, 0.3, seed=2):
            rows = [np.flatnonzero(ds.y == target)[0] for target in part.y]
            assert np.array_equal(part.x, ds.x[rows])
            assert np.array_equal(part.values, ds.values[rows])
            assert np.array_equal(part.true_scale, ds.true_scale[rows])

    def test_deterministic(self):
        ds = self.make(50)
        first = split(ds, 0.2, seed=7)
        second = split(ds, 0.2, seed=7)
        assert np.array_equal(first[1].y, second[1].y)

    def test_both_sides_nonempty_even_when_rounding_to_zero(self):
        train, val = split(self.make(5), 0.01, seed=0)
        assert len(val) == 1 and len(train) == 4

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            split(self.make(10), 0.0, seed=0)
        with pytest.raises(ValueError):
            split(self.make(1), 0.5, seed=0)


class TestCsvRoundTrip:
    def test_exact_round_trip_with_scale(self, tmp_path):
        series = generate_synthetic(small_config())
        path = tmp_path / "data.csv"
        write_series_csv(series, path)
        back = read_series_csv(path)
        assert len(back) == len(series)
        assert np.array_equal(series.values, back.values)
        assert np.array_equal(series.target, back.target)
        assert np.array_equal(series.true_scale, back.true_scale)

    def test_header_and_column_count(self, tmp_path):
        path = tmp_path / "data.csv"
        write_series_csv(generate_synthetic(small_config()), path)
        header = path.read_text().splitlines()[0].split(",")
        assert header == [f"value_{i}" for i in range(1, 25)] + ["target", "true_scale"]

    def test_external_data_without_scale(self, tmp_path):
        series = RawSeries(values=[[1.0, 2.0, 3.0]], target=[4.0])
        path = tmp_path / "external.csv"
        write_series_csv(series, path)
        assert path.read_text() == "value_1,value_2,value_3,target\n1.0,2.0,3.0,4.0\n"
        assert read_series_csv(path).true_scale is None

    def test_missing_target_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_series_csv(path)

    @pytest.mark.parametrize("row", ["1.0,2.0", "1.0,2.0,3.0,4.0,5.0", ""])
    def test_ragged_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "ragged.csv"
        path.write_text(f"value_1,value_2,target,true_scale\n1.0,2.0,3.0,1.0\n{row}\n")
        with pytest.raises(ValueError, match="ragged.csv, line 3: "):
            read_series_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_file_and_line(self, tmp_path, cell):
        path = tmp_path / "nonfinite.csv"
        rows = ["1.0,2.0,3.0"] * 3
        rows[1] = f"1.0,{cell},3.0"
        path.write_text("value_1,value_2,target\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="nonfinite.csv, line 3: non-finite"):
            read_series_csv(path)

    def test_non_numeric_cell_names_file(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("value_1,value_2,target\n1.0,two,3.0\n")
        with pytest.raises(ValueError, match="text.csv"):
            read_series_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("value_1,value_2,target\n")
        with pytest.raises(ValueError, match="no series rows"):
            read_series_csv(path)

    @pytest.mark.parametrize("text", [
        "true_scale,value_1,target\n1.5,2.0,3.0\n",  # the scale would be a window value
        "value_1,value_2,target,true_scale,true_scale\n1,2,3,4,-1\n",  # the -1 would go unchecked
        "value_1,value_2,target,target\n1,2,3,4\n",
        "value_1,value_2,true_scale,target,true_scale\n1,2,3,4,5\n",
    ], ids=["scale-before-target", "scale-twice", "target-twice", "scale-before-and-after"])
    def test_header_holds_target_once_and_true_scale_after_it(self, tmp_path, text):
        path = tmp_path / "header.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            read_series_csv(path)
        assert str(info.value) == (
            f"{path}: need one 'target' column and at most one 'true_scale' column after it"
        )

    @pytest.mark.filterwarnings("error")  # no overflow warning on the way to the error
    @pytest.mark.parametrize("values", [["3e307"] * 8, ["1e200", "-1e200"] * 4], ids=["mean", "std"])
    def test_row_whose_statistics_overflow_names_file_and_line(self, tmp_path, values):
        path = tmp_path / "overflow.csv"
        header = ",".join(f"value_{i}" for i in range(1, 9))
        row = ",".join(values)
        path.write_text(f"{header},target\n{'1.0,' * 8}2.0\n{row},2.0\n{'1.0,' * 8}2.0\n")
        with pytest.raises(ValueError) as info:
            read_series_csv(path)
        assert str(info.value) == f"{path}, line 3: mean or standard deviation is not finite"

    def test_columns_after_true_scale_are_extra(self, tmp_path):
        path = tmp_path / "extra.csv"
        path.write_text("value_1,value_2,target,true_scale,weight\n1,2,3,4,5\n")
        back = read_series_csv(path)
        assert back.values.tolist() == [[1.0, 2.0]] and back.true_scale.tolist() == [4.0]


VALID_CSV = (
    "value_1,value_2,value_3,target,true_scale\n"
    "12.5,13.0,11.75,12.0,1.5\n"
    "40.0,38.5,41.25,39.0,3.0\n"
    "7.0,7.5,8.0,8.5,0.25\n"
).encode()

CELLS = ["", "abc", "nan", "inf", "-inf", "-1.0", "1e999", "1.7e308", "0x10", " 2.5", "1,5", '"3"', "1.0.0", "\u00e9"]


@st.composite
def mutated_csv(draw) -> bytes:
    """VALID_CSV with one cell, one comma, one row or a few raw bytes changed."""
    lines = VALID_CSV.decode().split("\n")[:-1]
    kind = draw(st.sampled_from(["cell", "comma", "row", "bytes"]))
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "cell":
        cells = lines[i].split(",")
        j = draw(st.integers(0, len(cells) - 1))
        cells[j] = draw(st.sampled_from(CELLS) | st.text(max_size=4))
        lines[i] = ",".join(cells)
    elif kind == "comma":
        at = draw(st.integers(0, len(lines[i])))
        if draw(st.booleans()):
            lines[i] = lines[i][:at] + "," + lines[i][at:]
        else:  # drop the first comma at or after `at`, if there is one
            lines[i] = lines[i][:at] + lines[i][at:].replace(",", "", 1)
    elif kind == "row":
        row = draw(st.sampled_from(["", "1.0", lines[-1] + ",1.0", lines[-1]]))
        if draw(st.booleans()):
            del lines[i]
        else:
            lines.insert(i, row)
    else:
        at = draw(st.integers(0, len(VALID_CSV)))
        cut = draw(st.integers(0, 3))
        return VALID_CSV[:at] + draw(st.binary(max_size=4)) + VALID_CSV[at + cut:]
    return ("\n".join(lines) + "\n").encode("utf-8", "surrogatepass")


@pytest.fixture(scope="module")
def mutated_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "series.csv"


@settings(max_examples=300, deadline=None)
@given(data=mutated_csv())
@example(data=VALID_CSV.replace(b"13.0", b"abc"))
@example(data=VALID_CSV.replace(b"3.0\n", b"-3.0\n"))
@example(data=VALID_CSV.replace(b"38.5", b"\xff8.5"))
@example(data=VALID_CSV.replace(b"value_3,", b"value_3,,"))
@example(data=b"")
def test_mutated_csv_reads_or_names_the_file(mutated_path, data):
    mutated_path.write_bytes(data)
    try:
        series = read_series_csv(mutated_path)
    except ValueError as exc:
        message = str(exc)
        assert message.startswith(str(mutated_path)) and "\n" not in message, message
    else:
        assert isinstance(make_dataset(series), Dataset)  # whatever reads can be featurized


class TestFeatureMatrix:
    def test_shapes_and_values(self):
        series = generate_synthetic(small_config())
        ds = make_dataset(series)
        assert ds.x.shape == (40, 26)
        assert ds.y.shape == (40,)
        assert np.array_equal(ds.x, featurize(series.values))
        assert np.array_equal(ds.y, series.target)
        assert np.array_equal(ds.true_scale, series.true_scale)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_dataset(RawSeries(values=np.zeros((0, 24)), target=np.zeros(0)))
