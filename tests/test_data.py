"""Generator, normalization, featurization, split, and CSV round trips."""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forecast_uq.data import (
    DEFAULT_STD_THRESHOLD,
    FAMILIES,
    NOISE_LAWS,
    _SEED_BLOCK,
    Dataset,
    GeneratorConfig,
    RawSeries,
    _noise_scale,
    _pattern,
    _pcg64_states,
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
        z = np.array([0.0, 1e-8])  # std = 5e-9
        centered = center_scale_normalize(z, std_threshold=1e-6)
        assert np.abs(centered).max() < 1e-8
        scaled = center_scale_normalize(z, std_threshold=1e-12)
        np.testing.assert_allclose(scaled, [-1.0, 1.0])

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
        with pytest.raises(ValueError):
            center_scale_normalize(np.array([1.0, 2.0]), std_threshold=0.0)

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError, match="std_threshold must be positive"):
            center_scale_normalize(np.array([1.0, 2.0]), std_threshold=float("nan"))


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

    def test_explicit_seed_overrides_config(self):
        a = generate_synthetic(small_config(), seed=123)
        b = generate_synthetic(small_config(seed=123))
        assert np.array_equal(a.values, b.values)

    def test_all_families_produce_finite_features(self):
        series = generate_synthetic(small_config(noise={"law": "uniform", "low": 0.0, "high": 9.0}))
        assert np.all(np.isfinite(featurize(series.values)))


def per_series_generators(config, seed=None):
    """The generation loop that builds two generators per series, kept as the reference."""
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


NOISE = {
    "constant": {"law": "constant", "scale": 2.0},
    "uniform": {"law": "uniform", "low": 0.5, "high": 9.0},
    "amplitude_linear": {"law": "amplitude_linear", "low": 1.0, "high": 20.0},
}


class TestStreamsEqualPerSeriesGenerators:
    """Array-hashed seeds give the draws of two fresh generators per series, bit for bit."""

    @pytest.mark.parametrize("law", NOISE_LAWS)
    @pytest.mark.parametrize("base_seed", [0, 11, 2**32 + 5, 2**64 + 3])
    @pytest.mark.parametrize("override", [False, True])
    def test_every_family_and_law(self, law, base_seed, override):
        families = {"periodic": 9, "spikes": 7, "trend": 8, "noise": 6}
        if override:
            config = small_config(families=families, noise=NOISE[law], seed=3)
            got, want = generate_synthetic(config, seed=base_seed), per_series_generators(config, base_seed)
        else:
            config = small_config(families=families, noise=NOISE[law], seed=base_seed)
            got, want = generate_synthetic(config), per_series_generators(config)
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.target, want.target)
        assert np.array_equal(got.true_scale, want.true_scale)

    @settings(max_examples=200, deadline=None)
    @given(base_seed=st.integers(0, 2**96), count=st.integers(1, 40), stream=st.integers(0, 1))
    @example(base_seed=0, count=1, stream=0)
    @example(base_seed=2**32, count=3, stream=1)
    @example(base_seed=2**96, count=2, stream=0)
    @example(base_seed=5, count=2 * _SEED_BLOCK + 3, stream=1)  # crosses two blocks
    def test_states_equal_seed_sequence(self, base_seed, count, stream):
        want = [np.random.PCG64(np.random.SeedSequence([base_seed, index, stream])).state
                for index in range(count)]
        assert list(_pcg64_states(base_seed, count, stream)) == want


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
        ({"law": "constant", "scale": True}, "noise.scale must be a number, got True"),
        ({"law": "uniform", "low": False, "high": 2.0}, "noise.low must be a number, got False"),
        ({"law": "amplitude_linear", "low": 1.0, "high": True}, "noise.high must be a number, got True"),
        ({"law": "constant"}, "noise.scale must be a number, got None"),
    ])
    def test_noise_numbers_exclude_booleans(self, noise, message):
        with pytest.raises(ConfigError) as info:
            small_config(noise=noise)
        assert str(info.value) == message

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be non-negative, got -1"),
        (1.5, "seed must be an integer, got 1.5"),
        (True, "seed must be an integer, got True"),
        ("3", "seed must be an integer, got '3'"),
    ])
    def test_bad_seed_rejected(self, seed, message):
        with pytest.raises(ConfigError) as info:
            small_config(seed=seed)
        assert str(info.value) == message
        with pytest.raises(ConfigError) as info:
            generate_synthetic(small_config(), seed=seed)
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


VALID_CSV = (
    "value_1,value_2,value_3,target,true_scale\n"
    "12.5,13.0,11.75,12.0,1.5\n"
    "40.0,38.5,41.25,39.0,3.0\n"
    "7.0,7.5,8.0,8.5,0.25\n"
).encode()

CELLS = ["", "abc", "nan", "inf", "-inf", "-1.0", "1e999", "0x10", " 2.5", "1,5", '"3"', "1.0.0", "\u00e9"]


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
        assert isinstance(series, RawSeries)


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
