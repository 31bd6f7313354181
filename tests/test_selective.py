"""Threshold selection, error-keep curves, rank diagnostics, file formats."""

import builtins
import json
import math
import os
import warnings

import numpy as np
import pytest
from scipy import stats

from forecast_uq.selective import (
    KEEP_GRID,
    error_keep_curve,
    error_score_correlation,
    evaluation_report,
    keep_grid_readout,
    mae_at_keep,
    mae_at_threshold,
    make_records,
    read_curve_csv,
    write_curve_csv,
    write_matrix_json,
    write_scatter_csv,
)


def records_from(errors, scores):
    errors = np.asarray(errors, dtype=np.float64)
    return make_records(np.zeros_like(errors), errors, scores)


def random_records(n, seed=0):
    rng = np.random.default_rng(seed)
    return records_from(rng.exponential(2.0, size=n), rng.uniform(0.0, 10.0, size=n))


class TestMaeAtThreshold:
    def test_hand_case_strict_inequality(self):
        recs = records_from([1.0, 9.0], [0.1, 0.9])
        mae, keep = mae_at_threshold(recs, 0.5)
        assert mae == 1.0 and keep == 0.5
        # a record sitting exactly on the threshold is declined
        mae, keep = mae_at_threshold(recs, 0.9)
        assert mae == 1.0 and keep == 0.5

    def test_threshold_at_or_below_min_keeps_nothing(self):
        recs = records_from([1.0, 9.0], [0.1, 0.9])
        mae, keep = mae_at_threshold(recs, 0.1)
        assert math.isnan(mae) and keep == 0.0

    def test_infinite_threshold_is_plain_mae(self):
        recs = random_records(500)
        mae, keep = mae_at_threshold(recs, math.inf)
        expected = np.mean(recs.abs_error)
        np.testing.assert_allclose(mae, expected, rtol=1e-12)
        assert keep == 1.0

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            mae_at_threshold(make_records([], [], []), 1.0)


class TestErrorKeepCurve:
    def test_last_point_keeps_everything(self):
        recs = random_records(200)
        curve = error_keep_curve(recs, n_points=20)
        assert curve.threshold[-1] == math.inf
        assert curve.keep_fraction[-1] == 1.0 and curve.n_kept[-1] == 200
        np.testing.assert_allclose(curve.mae[-1], np.mean(recs.abs_error), rtol=1e-12)

    def test_oracle_scores_give_monotone_curve(self):
        rng = np.random.default_rng(1)
        errors = rng.exponential(1.0, size=400)
        recs = records_from(errors, errors)
        curve = error_keep_curve(recs, n_points=40)
        maes = curve.mae[curve.n_kept > 0]
        assert np.all(np.diff(maes) >= -1e-12)

    def test_first_point_declines_everything(self):
        recs = random_records(50)
        curve = error_keep_curve(recs, n_points=10)
        assert curve.n_kept[0] == 0 and math.isnan(curve.mae[0])

    def test_constant_scores_collapse_to_two_points(self):
        recs = records_from([1.0, 2.0, 3.0], [0.5, 0.5, 0.5])
        curve = error_keep_curve(recs)
        assert len(curve.threshold) == 2
        assert curve.mae[1] == 2.0

    def test_n_points_caps_sweep_length(self):
        recs = random_records(5000)
        curve = error_keep_curve(recs, n_points=25)
        assert len(curve.threshold) <= 25
        assert curve.n_kept[-1] == 5000

    def test_points_are_bit_identical_to_mae_at_threshold(self):
        recs = random_records(1000, seed=8)
        curve = error_keep_curve(recs, n_points=30)
        for threshold, keep_fraction, point_mae in zip(curve.threshold, curve.keep_fraction, curve.mae):
            mae, keep = mae_at_threshold(recs, threshold)
            assert (point_mae == mae or math.isnan(point_mae) and math.isnan(mae)) and keep_fraction == keep

    def test_keep_fraction_consistent_with_n_kept(self):
        recs = random_records(333)
        curve = error_keep_curve(recs, n_points=15)
        for n_kept, keep_fraction in zip(curve.n_kept, curve.keep_fraction):
            assert n_kept == round(keep_fraction * 333)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            error_keep_curve(random_records(10), n_points=1)


class TestMaeAtKeep:
    def test_keep_all_is_plain_mae(self):
        recs = random_records(101)
        expected = np.mean(recs.abs_error)
        np.testing.assert_allclose(mae_at_keep(recs, 1.0), expected, rtol=1e-12)

    def test_hand_case(self):
        recs = records_from([4.0, 1.0, 2.0, 8.0], [0.9, 0.1, 0.5, 0.95])
        assert mae_at_keep(recs, 0.25) == 1.0
        assert mae_at_keep(recs, 0.5) == 1.5
        np.testing.assert_allclose(mae_at_keep(recs, 0.75), 7.0 / 3.0, rtol=1e-15)
        assert mae_at_keep(recs, 1.0) == 3.75

    def test_matches_order_statistics_for_oracle_scores(self):
        rng = np.random.default_rng(2)
        errors = rng.exponential(1.0, size=200)
        recs = records_from(errors, errors)
        sorted_errors = np.sort(errors)
        for k in (0.1, 0.25, 0.5, 0.9):
            n = math.ceil(k * 200)
            np.testing.assert_allclose(
                mae_at_keep(recs, k), sorted_errors[:n].mean(), rtol=1e-12
            )

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        errors = rng.exponential(1.0, size=64)
        scores = rng.uniform(0.0, 1.0, size=64)
        recs = records_from(errors, scores)
        perm = rng.permutation(64)
        shuffled = records_from(errors[perm], scores[perm])
        for k in KEEP_GRID:
            assert mae_at_keep(recs, k) == mae_at_keep(shuffled, k)

    def test_monotone_transform_of_scores_is_identity(self):
        rng = np.random.default_rng(4)
        errors = rng.exponential(1.0, size=64)
        scores = rng.uniform(0.0, 5.0, size=64)
        recs = records_from(errors, scores)
        cubed = records_from(errors, scores**3)
        shifted = records_from(errors, np.exp(scores))
        for k in KEEP_GRID:
            assert mae_at_keep(recs, k) == mae_at_keep(cubed, k)
            assert mae_at_keep(recs, k) == mae_at_keep(shifted, k)

    def test_fraction_bounds(self):
        recs = random_records(10)
        with pytest.raises(ValueError):
            mae_at_keep(recs, 0.0)
        with pytest.raises(ValueError):
            mae_at_keep(recs, 1.5)

    def test_grid_readout_matches_one_sort_per_fraction(self):
        rng = np.random.default_rng(6)
        errors = rng.exponential(1.0, size=999)
        scores = rng.integers(0, 50, size=999).astype(float)  # many ties
        readout = keep_grid_readout(records_from(errors, scores))
        for k in KEEP_GRID:
            order = np.argsort(scores, kind="stable")
            assert readout[k] == errors[order[: math.ceil(k * 999)]].mean()

    def test_grid_readout_matches_pointwise_calls(self):
        recs = random_records(77)
        readout = keep_grid_readout(recs)
        assert tuple(readout) == KEEP_GRID
        for k, value in readout.items():
            assert value == mae_at_keep(recs, k)


class TestErrorScoreCorrelation:
    def test_perfect_positive(self):
        errors = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        rho, scatter = error_score_correlation(records_from(errors, errors * 7.0))
        np.testing.assert_allclose(rho, 1.0, rtol=1e-12)
        assert scatter.shape == (5, 2)
        np.testing.assert_array_equal(scatter[:, 0], errors)

    def test_perfect_negative(self):
        errors = np.array([1.0, 2.0, 3.0, 4.0])
        rho, _ = error_score_correlation(records_from(errors, 10.0 - errors))
        np.testing.assert_allclose(rho, -1.0, rtol=1e-12)

    def test_independent_scores_near_zero(self):
        rng = np.random.default_rng(5)
        recs = records_from(
            rng.exponential(1.0, size=10_000), rng.uniform(0.0, 1.0, size=10_000)
        )
        rho, _ = error_score_correlation(recs)
        assert abs(rho) < 0.05

    @pytest.mark.parametrize("case", ["tied", "untied", "40k rows"])
    def test_matches_scipy_spearmanr(self, case):
        rng = np.random.default_rng(11)
        if case == "tied":  # few distinct values on both sides, so most ranks are averages
            errors = rng.integers(0, 6, size=300).astype(np.float64)
            scores = errors + rng.integers(0, 4, size=300)
        elif case == "untied":
            errors = rng.exponential(1.0, size=300)
            scores = errors + rng.uniform(0.0, 1.0, size=300)
        else:
            errors = rng.exponential(2.0, size=40_000)
            scores = rng.uniform(0.0, 10.0, size=40_000) + 0.1 * errors
        rho, _ = error_score_correlation(records_from(errors, scores))
        assert abs(rho - stats.spearmanr(errors, scores).statistic) <= 1e-12

    def test_constant_side_gives_nan(self):
        rho, _ = error_score_correlation(records_from([1.0, 2.0, 3.0], [0.5, 0.5, 0.5]))
        assert math.isnan(rho)

    def test_needs_three_records(self):
        with pytest.raises(ValueError):
            error_score_correlation(records_from([1.0, 2.0], [0.1, 0.2]))


class TestMakeRecords:
    def test_lengths_must_agree(self):
        with pytest.raises(ValueError):
            make_records([1.0, 2.0], [1.0], [0.1, 0.2])

    def test_values_carried_over(self):
        recs = make_records([1.0, -2.0], [1.5, -1.0], [0.3, 0.7])
        assert len(recs) == 2
        assert recs.abs_error[0] == 0.5 and recs.abs_error[1] == 1.0
        assert recs.score[1] == 0.7

    def test_abs_error(self):
        recs = make_records([-1.0], [2.0], [0.5])
        assert recs.abs_error[0] == 3.0

    def test_bad_scores_rejected(self):
        with pytest.raises(ValueError):
            make_records([0.0, 0.0], [0.0, 0.0], [0.1, -0.1])
        with pytest.raises(ValueError):
            make_records([0.0], [0.0], [np.nan])
        with pytest.raises(ValueError):
            make_records([0.0], [0.0], [np.inf])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["y_true", "y_hat"])
    def test_non_finite_values_rejected(self, field, value):
        arrays = {"y_true": [0.0, 1.0, 2.0], "y_hat": [0.5, 1.5, 2.5]}
        arrays[field][2] = value
        with pytest.raises(ValueError, match=f"^{field} must be finite, got .* at index 2$"):
            make_records(arrays["y_true"], arrays["y_hat"], [0.1, 0.2, 0.3])


class TestEvaluationReport:
    def test_rho_is_over_every_record_and_the_pairs_are_a_seeded_subsample(self):
        rng = np.random.default_rng(0)
        y, y_hat = rng.normal(size=(2, 200))
        scale = np.abs(y - y_hat) * rng.uniform(0.2, 5.0, size=200)  # noisy in the error, so rho < 1
        table = {("dense_heteroscedastic", 5): ("h.ckpt.json", y_hat, {"predicted_scale": scale})}
        _, _, (row, seed, rho, pairs) = evaluation_report(y, table, rng.uniform(size=200), 10, 20)
        assert (row, seed) == ("dense_heteroscedastic+predicted_scale", 5)
        every_rho, every_pair = error_score_correlation(make_records(y, y_hat, scale))
        assert rho == every_rho
        pick = np.sort(np.random.default_rng(5).choice(200, 20, replace=False))
        np.testing.assert_array_equal(pairs, every_pair[pick])

    def test_every_number_comes_without_touching_a_file(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the report touched a file")
        monkeypatch.setattr(builtins, "open", refuse)
        monkeypatch.setattr(os, "makedirs", refuse)
        rng = np.random.default_rng(1)
        y, shared = rng.normal(size=8), rng.uniform(size=8)
        forecasts = {seed: rng.normal(size=8) for seed in (2, 1, 0)}
        scales = {seed: rng.uniform(0.5, 2.0, size=8) for seed in (2, 1)}
        table = {("dense_heteroscedastic", seed): (f"{seed}.ckpt.json", forecasts[seed],
                                                   {"predicted_scale": scales[seed]}) for seed in (2, 1)}
        table["baseline_mean", 0] = "data.csv", forecasts[0], {}
        rows, curves, scatter = evaluation_report(y, table, shared, 5, 100)
        views = {"dense_heteroscedastic+predicted_scale": ([1, 2], lambda seed: scales[seed]),
                 "dense_heteroscedastic+input_variance": ([1, 2], lambda seed: shared),
                 "baseline_mean+input_variance": ([0], lambda seed: shared)}
        assert list(rows) == list(views)
        for name, (seeds, score_of) in views.items():
            readouts = [list(keep_grid_readout(make_records(y, forecasts[s], score_of(s))).values()) for s in seeds]
            assert rows[name][0] == seeds
            np.testing.assert_array_equal(rows[name][1], np.array(readouts))
        assert set(curves) == {
            "curve_dense_heteroscedastic+predicted_scale_seed1.csv",
            "curve_dense_heteroscedastic+predicted_scale_seed2.csv",
            "curve_dense_heteroscedastic+input_variance_seed1.csv",
            "curve_dense_heteroscedastic+input_variance_seed2.csv",
            "curve_baseline_mean+input_variance.csv",
        }
        assert scatter[:2] == ("dense_heteroscedastic+predicted_scale", 1)
        # seed 2's errors sum past float64's range, so the row's mean MAE is not finite: seed 2 is blamed
        table["dense_heteroscedastic", 2] = "2.ckpt.json", np.full(8, 1.5e308), {"predicted_scale": scales[2]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^2\.ckpt\.json: mean absolute error of "
                                                 r"dense_heteroscedastic\+predicted_scale seed 2 is not finite$"):
                evaluation_report(y, table, shared, 5, 100)


class TestFileFormats:
    def test_curve_round_trip(self, tmp_path):
        curve = error_keep_curve(random_records(120), n_points=12)
        path = tmp_path / "curve.csv"
        write_curve_csv(curve, path)
        loaded = read_curve_csv(path)
        assert loaded.n_kept[-1] == curve.n_kept[-1]
        assert len(loaded.threshold) == len(curve.threshold)
        for i in range(len(curve.threshold)):
            a_threshold, b_threshold = curve.threshold[i], loaded.threshold[i]
            assert a_threshold == b_threshold or (math.isinf(a_threshold) and math.isinf(b_threshold))
            assert curve.keep_fraction[i] == loaded.keep_fraction[i]
            a_mae, b_mae = curve.mae[i], loaded.mae[i]
            assert a_mae == b_mae or (math.isnan(a_mae) and math.isnan(b_mae))
            assert curve.n_kept[i] == loaded.n_kept[i]

    def test_curve_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cutoff,keep,mae,n\n0.0,0.0,nan,0\n")
        with pytest.raises(ValueError):
            read_curve_csv(path)

    def test_non_numeric_curve_row_names_file_and_line(self, tmp_path):
        path = tmp_path / "words.csv"
        path.write_text("threshold,keep_fraction,mae,n_kept\n0.5,0.5,1.0,1\ninf,one,1.5,2\n")
        with pytest.raises(ValueError, match=r"words\.csv, line 3: .*'one'"):
            read_curve_csv(path)

    @pytest.mark.parametrize("n_kept", ["1.5", "nan", "inf"])
    def test_fractional_n_kept_rejected(self, tmp_path, n_kept):
        path = tmp_path / "counts.csv"
        path.write_text(f"threshold,keep_fraction,mae,n_kept\n0.5,0.5,1.0,{n_kept}\n")
        with pytest.raises(ValueError, match=r"counts\.csv: n_kept must hold whole numbers"):
            read_curve_csv(path)

    def test_curve_write_is_deterministic(self, tmp_path):
        curve = error_keep_curve(random_records(60), n_points=8)
        write_curve_csv(curve, tmp_path / "a.csv")
        write_curve_csv(curve, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_scatter_csv(self, tmp_path):
        _, scatter = error_score_correlation(random_records(40))
        path = tmp_path / "scatter.csv"
        write_scatter_csv(scatter, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "abs_error,score"
        assert len(lines) == 41
        first = lines[1].split(",")
        assert float(first[0]) == scatter[0, 0] and float(first[1]) == scatter[0, 1]

    def test_scatter_shape_checked(self, tmp_path):
        with pytest.raises(ValueError):
            write_scatter_csv(np.zeros((3, 4)), tmp_path / "x.csv")

    def test_matrix_json_layout(self, tmp_path):
        seeds = [2, 5]
        maes = np.array([[0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
                         [0.7, 1.1, 1.3, 1.7, 1.9, 2.3]])  # one line per seed, one column per KEEP_GRID fraction
        rows = {"dense_heteroscedastic+predicted_scale": (seeds, maes),
                "baseline_last+input_variance": ([0], maes[1:] * 3.0)}
        path = tmp_path / "matrix.json"
        write_matrix_json(rows, path)
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 1
        assert doc["keep_grid"] == ["0.25", "0.41", "0.5", "0.75", "0.995", "1.0"]
        for name, (row_seeds, row_maes) in rows.items():
            assert list(doc["rows"][name]) == doc["keep_grid"]
            for k, column in zip(doc["keep_grid"], row_maes.T):
                cell = doc["rows"][name][k]
                assert cell["mean"] == pytest.approx(sum(column) / len(column), rel=1e-15)
                spread = math.sqrt(sum((m - cell["mean"]) ** 2 for m in column) / len(column))
                assert cell["std"] == pytest.approx(spread, rel=1e-12, abs=1e-15)
                assert cell["per_seed"] == {str(s): m for s, m in zip(row_seeds, column.tolist())}
        assert doc["rows"]["dense_heteroscedastic+predicted_scale"]["1.0"]["per_seed"] == {"2": 0.6, "5": 2.3}
        # the same document built cell by cell: {keep -> {mean, std, per_seed}} per row, then written
        cells = {
            name: {
                k: {
                    "mean": float(column.mean()),
                    "std": float(column.std()),
                    "per_seed": {str(s): float(m) for s, m in zip(row_seeds, column)},
                }
                for k, column in zip(KEEP_GRID, row_maes.T)
            }
            for name, (row_seeds, row_maes) in rows.items()
        }
        expected = {
            "schema_version": 1,
            "keep_grid": [repr(float(k)) for k in KEEP_GRID],
            "rows": {name: {repr(float(k)): cell for k, cell in row.items()} for name, row in cells.items()},
        }
        assert path.read_text() == json.dumps(expected, sort_keys=True, indent=2, allow_nan=False) + "\n"

    def test_matrix_row_of_another_shape_rejected_before_writing(self, tmp_path):
        # three seeds' MAEs at two fractions under two seeds would pair only two of each
        path = tmp_path / "matrix.json"
        with pytest.raises(ValueError, match=r"^row r: MAEs of shape \(3, 2\), expected \(2, 6\)$"):
            write_matrix_json({"r": ([0, 1], np.ones((3, 2)))}, path)
        assert not path.exists()

    def test_empty_curve_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("threshold,keep_fraction,mae,n_kept\n")
        with pytest.raises(ValueError):
            read_curve_csv(path)
