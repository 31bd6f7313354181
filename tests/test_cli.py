"""End-to-end command tests driven through main() in process."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import forecast_uq
from forecast_uq import cli, models
from forecast_uq.cli import OUT_ENV_VAR, main
from forecast_uq.data import RawSeries, read_series_csv, write_series_csv
from forecast_uq.documents import load_json
from forecast_uq.exceptions import ConfigError

GENERATOR = {
    "families": {"trend": 30, "noise": 30},
    "series_length": 8,
    "amplitude_range": (5.0, 40.0),
    "noise": {"law": "constant", "scale": 2.0},
    "seed": 3,
}

RUN = {
    "models": [
        {"backbone": "dense", "uncertainty": "point"},
        {"backbone": "dense", "uncertainty": "heteroscedastic"},
    ],
    "train": {"max_epochs": 3, "patience": 3, "batch_size": 16},
    "seeds": [0, 1],
    "desk": True,
    "curve_points": 10,
    "k": 4,
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset plus a tiny trained grid, shared across tests."""
    root = tmp_path_factory.mktemp("cli")
    gen_config = root / "generator.json"
    gen_config.write_text(json.dumps(GENERATOR))
    run_config = root / "run.json"
    run_config.write_text(json.dumps(RUN))
    data = root / "dataset.csv"
    ckpts = root / "checkpoints"
    assert main(["generate", "--config", str(gen_config), "--out", str(data)]) == 0
    assert main([
        "train", "--config", str(run_config),
        "--data", str(data), "--out", str(ckpts),
    ]) == 0
    return {"root": root, "data": data, "ckpts": ckpts, "run_config": run_config,
            "gen_config": gen_config}


class TestGenerate:
    def test_row_count_and_header(self, workspace):
        text = workspace["data"].read_text().splitlines()
        assert len(text) == 61
        expected = [f"value_{i}" for i in range(1, 9)] + ["target", "true_scale"]
        assert text[0] == ",".join(expected)

    def test_round_trips_through_reader(self, workspace):
        series = read_series_csv(workspace["data"])
        assert series.values.shape == (60, 8)
        assert np.all(series.true_scale == 2.0)

    def test_byte_identical_reruns(self, workspace, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["generate", "--config", str(workspace["gen_config"]),
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() == workspace["data"].read_bytes()

    def test_seed_override_changes_output(self, workspace, tmp_path):
        out = tmp_path / "other.csv"
        assert main(["generate", "--config", str(workspace["gen_config"]),
                     "--out", str(out), "--seeds", "9"]) == 0
        assert out.read_bytes() != workspace["data"].read_bytes()

    def test_env_var_supplies_out_dir(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv(OUT_ENV_VAR, str(tmp_path))
        assert main(["generate", "--config", str(workspace["gen_config"])]) == 0
        assert (tmp_path / "dataset.csv").exists()

    def test_no_out_anywhere_fails(self, workspace, monkeypatch, capsys):
        monkeypatch.delenv(OUT_ENV_VAR, raising=False)
        assert main(["generate", "--config", str(workspace["gen_config"])]) == 1
        assert "error:" in capsys.readouterr().err

    def test_data_flag_rejected(self, workspace, tmp_path, capsys):
        """generate reads no dataset, so ``--data`` is an argument error, not a flag silently ignored."""
        out = tmp_path / "d.csv"
        with pytest.raises(SystemExit) as info:
            main(["generate", "--config", str(workspace["gen_config"]), "--data", str(tmp_path / "none.csv"),
                  "--out", str(out)])
        assert info.value.code == 2
        assert "unrecognized arguments: --data" in capsys.readouterr().err
        assert not out.exists()

    def test_too_large_to_allocate_gives_one_error_line(self, tmp_path, capsys):
        # 10**15 series of 25 float64 values is 178 PiB, beyond every 48- and 57-bit address
        # space, so numpy refuses the allocation before it touches memory
        config = tmp_path / "huge.json"
        config.write_text(json.dumps({"families": {"noise": 10**15}, "series_length": 24, "seed": 0}))
        out = tmp_path / "out" / "data.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["generate", "--config", str(config), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1
        assert not out.parent.exists()

    @pytest.mark.parametrize("text, key", [
        ('{"families": {"noise": 5}, "seed": 0, "seed": 3, "families": {"trend": 5}}', "seed"),
        ('{"families": {"noise": 5, "trend": 2, "noise": 3}}', "noise"),
    ], ids=["top-level", "nested"])
    def test_repeated_key_rejected(self, tmp_path, capsys, text, key):
        config = tmp_path / "generator.json"
        config.write_text(text)
        out = tmp_path / "out" / "data.csv"
        assert main(["generate", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f'error: {config}: invalid JSON: repeated key "{key}"\n'
        assert not out.parent.exists()


class TestTrain:
    def test_checkpoint_and_history_files(self, workspace):
        names = sorted(p.name for p in workspace["ckpts"].iterdir())
        expected = []
        for kind in ("heteroscedastic", "point"):
            for seed in (0, 1):
                expected.append(f"dense_{kind}_seed{seed}.ckpt.json")
                expected.append(f"dense_{kind}_seed{seed}.history.json")
        assert names == sorted(expected)

    def test_history_document(self, workspace):
        doc = json.loads((workspace["ckpts"] / "dense_point_seed0.history.json").read_text())
        assert doc["schema_version"] == 1
        assert doc["seed"] == 0
        assert len(doc["train_loss"]) == doc["epochs_run"] <= 3

    def test_parallel_jobs_match_serial(self, workspace, tmp_path):
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        base = ["train", "--config", str(workspace["run_config"]),
                "--data", str(workspace["data"])]
        assert main(base + ["--out", str(serial)]) == 0
        assert main(base + ["--out", str(parallel), "--jobs", "2"]) == 0
        for p in sorted(serial.iterdir()):
            assert p.read_bytes() == (parallel / p.name).read_bytes()
        assert (serial / "dense_point_seed0.ckpt.json").read_bytes() == (
            workspace["ckpts"] / "dense_point_seed0.ckpt.json"
        ).read_bytes()

    def test_desk_flag_selects_the_desk_profile(self, workspace, tmp_path):
        run = tmp_path / "run.json"  # no "desk" key, so the flag alone picks the profile
        run.write_text(json.dumps({"models": [{"backbone": "dense", "uncertainty": "point"}],
                                   "train": {"max_epochs": 1}, "seeds": [0]}))
        out = tmp_path / "out"
        argv = ["train", "--config", str(run), "--data", str(workspace["data"]), "--out", str(out), "--desk"]
        assert main(argv) == 0
        doc = json.loads((out / "dense_point_seed0.ckpt.json").read_text())
        assert doc["architecture"]["layer_sizes"] == [32, 16]

    def test_missing_data_file_fails(self, workspace, tmp_path, capsys):
        code = main(["train", "--config", str(workspace["run_config"]),
                     "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_one_series_fails_before_writing(self, workspace, tmp_path, capsys):
        data = tmp_path / "one.csv"
        data.write_text("".join(workspace["data"].read_text().splitlines(keepends=True)[:2]))
        out = tmp_path / "out"
        argv = ["train", "--config", str(workspace["run_config"]), "--data", str(data), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {data}: 1 series, train needs at least 2\n"
        assert not out.exists()

    def test_unknown_config_key_fails(self, tmp_path, workspace, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**RUN, "epochs": 5}))
        code = main(["train", "--config", str(bad),
                     "--data", str(workspace["data"]), "--out", str(tmp_path)])
        assert code == 1
        assert "epochs" in capsys.readouterr().err


@pytest.fixture(scope="module")
def eval_results(workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("eval")
    code = main(["evaluate", "--config", str(workspace["run_config"]),
                 "--data", str(workspace["data"]),
                 "--checkpoints", str(workspace["ckpts"]), "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def cluster_results(workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("cluster")
    code = main(["cluster", "--config", str(workspace["run_config"]),
                 "--data", str(workspace["data"]), "--out", str(out)])
    assert code == 0
    return out


class TestEvaluate:
    def test_matrix_rows(self, eval_results):
        doc = json.loads((eval_results / "matrix.json").read_text())
        assert doc["schema_version"] == 1
        assert set(doc["rows"]) == {
            "dense_point+input_variance",
            "dense_heteroscedastic+predicted_scale",
            "dense_heteroscedastic+input_variance",
            "baseline_mean+input_variance",
            "baseline_zero+input_variance",
            "baseline_last+input_variance",
        }

    def test_keep_one_equals_plain_mae(self, eval_results, workspace):
        doc = json.loads((eval_results / "matrix.json").read_text())
        series = read_series_csv(workspace["data"])
        mean_mae = np.mean([abs(t - row.mean()) for t, row in zip(series.target, series.values)])
        cell = doc["rows"]["baseline_mean+input_variance"]["1.0"]
        np.testing.assert_allclose(cell["mean"], mean_mae, rtol=1e-12)
        zero_mae = np.mean(np.abs(series.target))
        np.testing.assert_allclose(
            doc["rows"]["baseline_zero+input_variance"]["1.0"]["mean"], zero_mae, rtol=1e-12
        )

    def test_per_seed_statistics(self, eval_results):
        doc = json.loads((eval_results / "matrix.json").read_text())
        cell = doc["rows"]["dense_heteroscedastic+predicted_scale"]["0.25"]
        per_seed = cell["per_seed"]
        assert set(per_seed) == {"0", "1"}
        values = np.array([per_seed["0"], per_seed["1"]])
        np.testing.assert_allclose(cell["mean"], values.mean(), rtol=1e-12)
        np.testing.assert_allclose(cell["std"], values.std(), rtol=1e-12, atol=1e-15)

    def test_curve_files_per_model_and_seed(self, eval_results):
        names = {p.name for p in eval_results.iterdir()}
        assert "curve_dense_heteroscedastic+predicted_scale_seed0.csv" in names
        assert "curve_dense_point+input_variance_seed1.csv" in names
        assert "curve_baseline_last+input_variance.csv" in names

    def test_scatter_from_best_heteroscedastic(self, eval_results):
        lines = (eval_results / "scatter.csv").read_text().splitlines()
        assert lines[0] == "abs_error,score"
        assert len(lines) == 61
        values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.all(values[:, 1] > 0.0)

    def test_scatter_comes_from_the_row_with_the_smallest_plain_mae(self, workspace, tmp_path, capsys):
        ckpts = tmp_path / "checkpoints"
        run = dataclasses.replace(load_json(workspace["run_config"], cli.RunConfig),
                                  models=(cli.ModelPair("lstm", "heteroscedastic"),), seeds=(0,))
        cli.cmd_train(run, workspace["data"], ckpts)
        name = "dense_heteroscedastic_seed0.ckpt.json"
        (ckpts / name).write_bytes((workspace["ckpts"] / name).read_bytes())
        out = tmp_path / "out"
        assert main(["evaluate", "--config", str(workspace["run_config"]), "--data", str(workspace["data"]),
                     "--checkpoints", str(ckpts), "--out", str(out)]) == 0
        rows = json.loads((out / "matrix.json").read_text())["rows"]
        plain = {row: rows[row]["1.0"]["mean"] for row in rows if row.endswith("+predicted_scale")}
        assert len(plain) == len(set(plain.values())) == 2
        assert f"from {min(plain, key=plain.get)} seed 0, spearman" in capsys.readouterr().out

    def test_a_grid_without_a_scale_row_writes_no_scatter(self, workspace, tmp_path, capsys):
        ckpts = tmp_path / "checkpoints"
        ckpts.mkdir()
        name = "dense_point_seed0.ckpt.json"
        (ckpts / name).write_bytes((workspace["ckpts"] / name).read_bytes())
        out = tmp_path / "out"
        assert main(["evaluate", "--config", str(workspace["run_config"]), "--data", str(workspace["data"]),
                     "--checkpoints", str(ckpts), "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out / 'matrix.json'} with 4 rows\n"
        curves = ["dense_point+input_variance_seed0"] + [f"baseline_{b}+input_variance" for b in models.BASELINES]
        assert sorted(p.name for p in out.iterdir()) == sorted(["matrix.json"] + [f"curve_{c}.csv" for c in curves])

    def test_seed_filter_restricts_per_seed(self, workspace, tmp_path):
        out = tmp_path / "filtered"
        code = main(["evaluate", "--config", str(workspace["run_config"]),
                     "--data", str(workspace["data"]),
                     "--checkpoints", str(workspace["ckpts"]),
                     "--out", str(out), "--seeds", "1"])
        assert code == 0
        doc = json.loads((out / "matrix.json").read_text())
        cell = doc["rows"]["dense_point+input_variance"]["1.0"]
        assert set(cell["per_seed"]) == {"1"}

    def test_repeated_parameter_name_rejected(self, workspace, tmp_path, capsys):
        ckpts = tmp_path / "checkpoints"
        ckpts.mkdir()
        source = workspace["ckpts"] / "dense_point_seed0.ckpt.json"
        doc = json.loads(source.read_text())
        name, saved = next(iter(doc["parameters"].items()))
        # the first parameter twice: taking the last copy would silently drop the zeroed one
        entry = json.dumps({name: {**saved, "data": [0.0] * len(saved["data"])}})[1:-1]
        path = ckpts / source.name
        path.write_text(json.dumps(doc).replace('"parameters": {', '"parameters": {' + entry + ", ", 1))
        out = tmp_path / "out"
        argv = ["evaluate", "--config", str(workspace["run_config"]), "--data", str(workspace["data"]),
                "--checkpoints", str(ckpts), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f'error: {path}: invalid JSON: repeated key "{name}"\n'
        assert not out.exists()

    def test_duplicate_checkpoints_rejected(self, workspace, tmp_path, capsys):
        dupes = tmp_path / "dupes"
        dupes.mkdir()
        source = workspace["ckpts"] / "dense_point_seed0.ckpt.json"
        (dupes / "a.ckpt.json").write_bytes(source.read_bytes())
        (dupes / "b.ckpt.json").write_bytes(source.read_bytes())
        code = main(["evaluate", "--config", str(workspace["run_config"]),
                     "--data", str(workspace["data"]),
                     "--checkpoints", str(dupes), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == (f"error: {dupes / 'b.ckpt.json'}: duplicate checkpoint for dense_point seed 0, "
                       f"also in {dupes / 'a.ckpt.json'}\n")

    def test_each_model_and_seed_is_predicted_once(self, workspace, tmp_path, monkeypatch):
        grid = tuple(cli.ModelPair("dense", uncertainty) for uncertainty in cli.UNCERTAINTIES)
        run = dataclasses.replace(load_json(workspace["run_config"], cli.RunConfig), models=grid)
        cli.cmd_train(run, workspace["data"], tmp_path / "ckpts")
        calls = {"predict": 0, "mc_dropout_predict": 0, "baseline_predict": 0}
        for module, name in ((models, "predict"), (models, "mc_dropout_predict"), (cli, "baseline_predict")):
            def counted(*args, _wrapped=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _wrapped(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        rows = cli.cmd_evaluate(run, tmp_path / "ckpts", workspace["data"], tmp_path / "eval")
        # three non-dropout modes and one dropout mode, at seeds 0 and 1; one call per baseline
        assert calls == {"predict": 6, "mc_dropout_predict": 2, "baseline_predict": 3}
        # an input-variance row per mode, predicted_scale and mc_std, three baselines
        assert len(rows) == 4 + 2 + 3

    @pytest.mark.parametrize("seeds, suffix", [(None, ""), ("7,5", " for seeds 5,7")])
    def test_no_checkpoints_fails_before_writing(self, workspace, tmp_path, capsys, seeds,
                                                 suffix):
        ckpts = workspace["ckpts"]
        argv = ["evaluate", "--config", str(workspace["run_config"]),
                "--data", str(workspace["data"]), "--out", str(tmp_path / "out")]
        if seeds is None:
            ckpts = tmp_path / "empty"
            ckpts.mkdir()
        else:
            argv += ["--seeds", seeds]
        assert main(argv + ["--checkpoints", str(ckpts)]) == 1
        assert capsys.readouterr().err == f"error: {ckpts}: no checkpoints{suffix}\n"
        assert not (tmp_path / "out").exists()

    def test_data_of_another_width_names_both_files(self, workspace, tmp_path, capsys):
        config = tmp_path / "generator.json"
        config.write_text(json.dumps({**GENERATOR, "series_length": 12}))
        data = tmp_path / "wide.csv"
        assert main(["generate", "--config", str(config), "--out", str(data)]) == 0
        capsys.readouterr()
        code = main(["evaluate", "--config", str(workspace["run_config"]), "--data", str(data),
                     "--checkpoints", str(workspace["ckpts"]), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        first = workspace["ckpts"] / "dense_heteroscedastic_seed0.ckpt.json"
        assert err == (f"error: {first}: expected an (N, 10) batch, "
                       f"got shape (60, 14) from {data}\n")
        assert not (tmp_path / "out").exists()

    def test_fewer_than_three_series_fail_before_writing(self, workspace, tmp_path, capsys):
        data = tmp_path / "two.csv"
        data.write_text("".join(workspace["data"].read_text().splitlines(keepends=True)[:3]))
        out = tmp_path / "out"
        argv = ["evaluate", "--config", str(workspace["run_config"]), "--data", str(data),
                "--checkpoints", str(workspace["ckpts"]), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {data}: 2 series, evaluate needs at least 3\n"
        assert not out.exists()

    def test_negative_checkpoint_seed_names_file_and_field(self, workspace, tmp_path, capsys):
        ckpts = tmp_path / "checkpoints"
        ckpts.mkdir()
        source = workspace["ckpts"] / "dense_heteroscedastic_seed0.ckpt.json"
        path = ckpts / source.name
        path.write_text(json.dumps({**json.loads(source.read_text()), "rng_seed": -1}))
        out = tmp_path / "out"
        argv = ["evaluate", "--config", str(workspace["run_config"]), "--data", str(workspace["data"]),
                "--checkpoints", str(ckpts), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {path}: rng_seed must be non-negative\n"
        assert not out.exists()

    def test_overflowing_forecasts_name_the_checkpoint(self, workspace, tmp_path, capsys):
        ckpts = tmp_path / "checkpoints"
        ckpts.mkdir()
        path = ckpts / "dense_point_seed0.ckpt.json"
        doc = json.loads((workspace["ckpts"] / path.name).read_text())
        for saved in doc["parameters"].values():
            saved["data"] = [1e200] * len(saved["data"])
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = ["evaluate", "--config", str(workspace["run_config"]), "--data", str(workspace["data"]),
                "--checkpoints", str(ckpts), "--out", str(out), "--seeds", "0"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning must not reach stderr either
            assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {path}: y_hat must be finite, series 0 is not\n"
        assert not out.exists()

    @pytest.mark.parametrize("bias, seeds, blamed", [(1.5e308, "0", 0), (1e160, "0,1", 1)],
                             ids=["mean-overflows", "spread-over-seeds-overflows"])
    def test_errors_too_large_to_average_name_the_checkpoint(self, workspace, tmp_path, capsys, bias, seeds,
                                                             blamed):
        """Finite forecasts whose MAE, or whose MAEs' std over seeds, overflows: one line, no ``--out``."""
        ckpts = tmp_path / "checkpoints"
        ckpts.mkdir()
        for seed in map(int, seeds.split(",")):
            name = f"dense_point_seed{seed}.ckpt.json"
            doc = json.loads((workspace["ckpts"] / name).read_text())
            if seed == blamed:  # a constant forecast of ``bias``
                for param, saved in doc["parameters"].items():
                    saved["data"] = [bias if param == "forecast_tower.out.bias" else 0.0] * len(saved["data"])
            (ckpts / name).write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = ["evaluate", "--config", str(workspace["run_config"]), "--data", str(workspace["data"]),
                "--checkpoints", str(ckpts), "--out", str(out), "--seeds", seeds]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning must not reach stderr either
            assert main(argv) == 1
        path = ckpts / f"dense_point_seed{blamed}.ckpt.json"
        assert capsys.readouterr().err == (
            f"error: {path}: mean absolute error of dense_point+input_variance seed {blamed} is not finite\n")
        assert not out.exists()

    def test_errors_too_large_to_average_from_a_baseline_name_the_data_file(self, workspace, tmp_path, capsys):
        """A baseline forecasts from the data file, so its overflowing MAE names that file."""
        data = tmp_path / "huge_targets.csv"
        values = np.random.default_rng(0).uniform(1.0, 5.0, size=(6, 8))
        write_series_csv(RawSeries(values=values, target=np.full(6, 1e308)), data)
        ckpts = tmp_path / "checkpoints"
        ckpts.mkdir()
        name = "dense_point_seed0.ckpt.json"
        doc = json.loads((workspace["ckpts"] / name).read_text())
        for param, saved in doc["parameters"].items():  # a constant forecast of 1e308 hits every target
            saved["data"] = [1e308 if param == "forecast_tower.out.bias" else 0.0] * len(saved["data"])
        (ckpts / name).write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = ["evaluate", "--config", str(workspace["run_config"]), "--data", str(data),
                "--checkpoints", str(ckpts), "--out", str(out), "--seeds", "0"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning must not reach stderr either
            assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {data}: mean absolute error of baseline_mean+input_variance seed 0 is not finite\n")
        assert not out.exists()


class TestCluster:
    def test_centroids_table(self, cluster_results):
        lines = (cluster_results / "centroids.csv").read_text().splitlines()
        assert lines[0] == "cluster," + ",".join(f"value_{i}" for i in range(1, 9))
        assert len(lines) == 5
        row = lines[1].split(",")
        assert row[0] == "0" and all(math.isfinite(float(v)) for v in row[1:])

    def test_assignments_cover_every_series(self, cluster_results):
        lines = (cluster_results / "assignments.csv").read_text().splitlines()
        assert lines[0] == "series_index,cluster"
        assert len(lines) == 61
        clusters = {int(line.split(",")[1]) for line in lines[1:]}
        assert clusters <= set(range(4))

    def test_summary_document(self, cluster_results):
        doc = json.loads((cluster_results / "cluster_summary.json").read_text())
        assert doc["schema_version"] == 1
        assert doc["k"] == 4
        assert doc["inertia"] >= 0.0
        assert doc["n_iter"] >= 1


def test_cluster_holds_only_the_normalized_windows_in_k_means(tmp_path, monkeypatch, capsys):
    values = np.random.default_rng(8).normal(size=(20_000, 25)) * 30.0
    data = tmp_path / "wide.csv"
    write_series_csv(RawSeries(values[:, :-1], values[:, -1], np.ones(20_000)), data)
    entered = []

    def traced_kmeans(normalized, k, seed):
        entered.append((tracemalloc.get_traced_memory()[0], normalized.nbytes))
        return kmeans(normalized, k, seed)

    kmeans = cli.kmeans
    monkeypatch.setattr(cli, "kmeans", traced_kmeans)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cli.cmd_cluster(cli.RunConfig(k=4), data, tmp_path / "out", seed=0)
    finally:
        tracemalloc.stop()
    [(in_use, normalized_bytes)] = entered
    # the file's (N, T+2) table is gone: only the normalized copy and a few (N,) arrays are left
    assert in_use - before <= 1.5 * normalized_bytes
    assert capsys.readouterr().out.startswith("clustered 20000 series into 4 groups")


BAD_HEADER = ": need one 'target' column and at most one 'true_scale' column after it"


class TestMalformedCsv:
    """A bad dataset fails at the reader: exit 1 and one stderr line, no traceback."""

    @pytest.mark.parametrize("bad_row, message", [
        ("1.0,2.0,3.0", "line 3: 3 cells, header has 10"),
        ("1.0,2.0,3.0,4.0,nan,6.0,7.0,8.0,9.0,2.0", "line 3: non-finite cell"),
        ("1.0,2.0,3.0,4.0,5.0,6.0,7.0,8.0,9.0,inf", "line 3: non-finite cell"),
        ("1.0,abc,3.0,4.0,5.0,6.0,7.0,8.0,9.0,2.0", "line 3: could not convert string 'abc'"),
        ("1.0,2.0,3.0,4.0,5.0,6.0,7.0,8.0,9.0,-2.0", "line 3: negative true_scale -2.0"),
    ])
    @pytest.mark.parametrize("command", ["train", "evaluate", "cluster"])
    def test_one_line_error(self, workspace, tmp_path, capsys, command, bad_row, message):
        lines = workspace["data"].read_text().splitlines()
        lines[2] = bad_row
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        argv = [command, "--config", str(workspace["run_config"]), "--data", str(bad),
                "--out", str(tmp_path / "out")]
        if command == "evaluate":
            argv += ["--checkpoints", str(workspace["ckpts"])]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"error: {bad}, {message}")

    @pytest.mark.filterwarnings("error")  # a warning printed before the error line fails too
    @pytest.mark.parametrize("text, message", [
        ("value_1,value_2,target,true_scale\n", ": no series rows after the header"),
        ("target\n\n", ": no series rows after the header"),
        ("value_1,value_2,target,true_scale\n1.0,2.0,3.0,1.0\n\n2.0,1.0,0.5,1.0\n",
         ", line 3: 1 cells, header has 4"),
        ("value_1,value_2,target,true_scale\n1.0,nan,3.0,1.0\n", ", line 2: non-finite cell"),
        ("true_scale,value_1,target\n1.5,2.0,3.0\n", BAD_HEADER),
        ("value_1,value_2,target,true_scale,true_scale\n1,2,3,4,-1\n", BAD_HEADER),
        ("value_1,target\n1.0,2.0\n", ": need at least 2 value columns before 'target'"),
    ], ids=["header-only", "one-column-blank", "blank-middle-line", "nan-cell", "scale-before-target",
            "scale-twice", "one-value-column"])
    @pytest.mark.parametrize("command", ["train", "evaluate", "cluster"])
    def test_whole_file_gives_exactly_one_error_line(self, workspace, tmp_path, capsys, command,
                                                     text, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        argv = [command, "--data", str(bad), "--out", str(tmp_path / "out")]
        if command == "evaluate":
            argv += ["--checkpoints", str(workspace["ckpts"])]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {bad}{message}\n"
        assert not (tmp_path / "out").exists()

    def test_undecodable_bytes_name_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"value_1,value_2,target,true_scale\n1.0,2.0,3.0,1.0\n1.0,\xff2.0,3.0,1.0\n")
        assert main(["cluster", "--data", str(bad), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err == f"error: {bad}: not UTF-8 text: invalid start byte at byte 54\n"


class TestStatisticsThatOverflow:
    """Finite values whose mean or std overflows fail at the reader: exit 1, one line naming the file and line,
    and no ``--out``."""

    @pytest.mark.filterwarnings("error")  # numpy's overflow warning printed before the error fails too
    @pytest.mark.parametrize("values", [["3e307"] * 8, ["1e200", "-1e200"] * 4], ids=["mean", "std"])
    @pytest.mark.parametrize("command", ["train", "train --jobs 2", "evaluate", "cluster"],
                             ids=["train", "train-jobs-2", "evaluate", "cluster"])
    def test_one_line_names_the_row(self, workspace, tmp_path, capsys, command, values):
        lines = workspace["data"].read_text().splitlines()
        assert len(lines[0].split(",")) == len(values) + 2  # values, target, true_scale
        lines[3] = ",".join(values + ["1.0", "1.0"])
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        argv = command.split() + ["--config", str(workspace["run_config"]), "--data", str(bad), "--out", str(out)]
        if command == "evaluate":
            argv += ["--checkpoints", str(workspace["ckpts"])]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {bad}, line 4: mean or standard deviation is not finite\n"
        assert not out.exists()


def test_cluster_with_fewer_series_than_k_names_file_and_field(tmp_path, capsys):
    data = tmp_path / "two.csv"
    data.write_text("value_1,value_2,target,true_scale\n1.0,2.0,3.0,1.0\n2.0,1.0,0.5,1.0\n")
    assert main(["cluster", "--data", str(data), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err == (f"error: {data}: 2 series, fewer than k=16 clusters; "
                   "set k in the run config (default 16)\n")


class TestBooleansAreNotNumbers:
    """A JSON true or false where a number belongs fails: exit 1, one stderr line."""

    @pytest.mark.parametrize("noise, field", [
        ({"law": "constant", "scale": True}, "noise.scale"),
        ({"law": "uniform", "low": False, "high": True}, "noise.low"),
    ])
    def test_generate(self, tmp_path, capsys, noise, field):
        config = tmp_path / "generator.json"
        config.write_text(json.dumps({**GENERATOR, "noise": noise}))
        assert main(["generate", "--config", str(config), "--out", str(tmp_path / "d.csv")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"error: {config}.{field}: expected a finite number, got ")
        assert not (tmp_path / "d.csv").exists()

    def test_evaluate(self, workspace, tmp_path, capsys):
        ckpts = tmp_path / "checkpoints"
        ckpts.mkdir()
        source = sorted(workspace["ckpts"].glob("*.ckpt.json"))[0]
        doc = json.loads(source.read_text())
        doc["parameters"]["forecast_tower.layer0.weights"]["data"][1] = True
        path = ckpts / source.name
        path.write_text(json.dumps(doc))
        argv = ["evaluate", "--config", str(workspace["run_config"]), "--data",
                str(workspace["data"]), "--checkpoints", str(ckpts), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().err == (f'error: {path}.parameters."forecast_tower.layer0.weights": '
                       "data must be a flat list of finite numbers\n")


def test_no_command_imports_scipy(workspace, tmp_path):
    # the package needs numpy only: the four commands run in one process, and
    # scipy is not loaded at start-up or after any of them; the bare package
    # root loads none of its modules
    config, data = str(workspace["run_config"]), str(tmp_path / "data.csv")
    runs = [
        ["generate", "--config", str(workspace["gen_config"]), "--out", data],
        ["train", "--config", config, "--data", data, "--out", str(tmp_path / "ckpts")],
        ["evaluate", "--config", config, "--data", data, "--checkpoints", str(tmp_path / "ckpts"),
         "--out", str(tmp_path / "eval")],
        ["cluster", "--config", config, "--data", data, "--out", str(tmp_path / "clusters")],
    ]
    script = (
        "import json, sys, forecast_uq\n"
        "loaded = sorted(name for name in sys.modules if name.startswith('forecast_uq.'))\n"
        "assert not loaded, f'import forecast_uq loaded {loaded}'\n"
        "import forecast_uq.cli\n"
        "assert 'scipy' not in sys.modules, 'scipy imported at start-up'\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert forecast_uq.cli.main(argv) == 0, argv[0]\n"
        "    assert 'scipy' not in sys.modules, f'scipy imported by {argv[0]}'\n"
    )
    src = str(Path(forecast_uq.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert done.returncode == 0, done.stderr
    assert any(re.search(r", spearman rho -?[01]\.\d{3}$", line) for line in done.stdout.splitlines())


@pytest.mark.parametrize("fields", [
    {"noise": {"law": "constant", "scale": 1e308}},
    {"noise": {"law": "uniform", "low": 1e308, "high": 1.7e308}},
    # every value is finite, but 24 of 1e307 sum past the float64 range, so the reader would reject the file
    {"families": {"noise": 3}, "series_length": 24, "amplitude_range": [1e307, 1e307],
     "noise": {"law": "constant", "scale": 0.0}},
], ids=["constant", "uniform", "mean-overflows"])
def test_generate_out_of_range_noise_gives_one_error_line(fields, tmp_path, capsys):
    config = tmp_path / "generator.json"
    config.write_text(json.dumps({"families": {"trend": 5, "noise": 5}, "series_length": 6, **fields}))
    out = tmp_path / "out" / "data.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning must not reach stderr either
        code = main(["generate", "--config", str(config), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: noise ") and "amplitude_range" in err
    assert err.count("\n") == 1
    assert not out.parent.exists()


@pytest.mark.parametrize("command, config, seeds, message", [
    ("train", "run_config", "-1", "seeds must be non-negative, got -1"),
    ("train", "run_config", "0,0", "seeds must not repeat"),
    ("generate", "gen_config", "-1", "seed must be non-negative, got -1"),
    ("generate", "gen_config", "3,4", "generate takes one seed, got 3,4"),
    ("cluster", "run_config", "3,4", "cluster takes one seed, got 3,4"),
])
def test_bad_seed_flag_gives_one_error_line(command, config, seeds, message, workspace,
                                            tmp_path, capsys):
    data = [] if command == "generate" else ["--data", str(workspace["data"])]
    code = main([command, "--config", str(workspace[config]), *data,
                 "--out", str(tmp_path / "out"), "--seeds", seeds])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed, message", [
    (5, ": train.seed is set per job by seeds; remove it"),
    (-1, ".train: seed must be non-negative"),
])
def test_train_seed_in_run_config_rejected(seed, message, workspace, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({**RUN, "train": {**RUN["train"], "seed": seed}}))
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--data", str(workspace["data"]),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {config}{message}\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_jobs_below_one_rejected(value, workspace, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["train", "--data", str(workspace["data"]), "--out", str(tmp_path), "--jobs", value])
    assert info.value.code == 2
    assert f"argument --jobs: must be at least 1, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--seeds", "1,x", "argument --seeds: bad seed list '1,x'"),
    ("--seeds", ",", "argument --seeds: seed list is empty"),
    ("--jobs", "two", "argument --jobs: expected an integer, got 'two'"),
])
def test_malformed_flag_value_exits_2_with_one_error_line(flag, value, message, workspace, tmp_path, capsys):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as info:
            main(["train", "--data", str(workspace["data"]), "--out", str(out), flag, value])
    assert info.value.code == 2
    # argparse prints its usage block first; the one error line ends stderr
    usage, error = capsys.readouterr().err.rstrip("\n").rsplit("\n", 1)
    assert usage.startswith("usage: forecast-uq train ") and "error" not in usage
    assert error == f"forecast-uq train: error: {message}"
    assert not out.exists()


def test_pool_never_exceeds_the_job_count(workspace, tmp_path, monkeypatch):
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    run = load_json(workspace["run_config"], cli.RunConfig)
    stems = cli.cmd_train(run, workspace["data"], tmp_path, jobs=64)
    assert sizes == [len(stems)] == [4]
    for name in ("dense_point_seed0.ckpt.json", "dense_heteroscedastic_seed1.ckpt.json"):
        assert (tmp_path / name).read_bytes() == (workspace["ckpts"] / name).read_bytes()


@pytest.mark.parametrize("argv", [
    ["generate"],
    ["evaluate", "--data", "x.csv", "--checkpoints", "c"],
    ["cluster", "--data", "x.csv"],
])
def test_jobs_is_a_train_only_flag(argv, tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(argv + ["--out", str(tmp_path / "out.csv"), "--jobs", "2"])
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


# -- BLAS threads ---------------------------------------------------------------

SRC = str(Path(forecast_uq.__file__).parents[1])


def _env_without_thread_vars(**extra):
    env = {k: v for k, v in os.environ.items() if k not in cli._THREAD_VARS}
    return {**env, "PYTHONPATH": SRC, **extra}


@pytest.fixture
def blas_threads(monkeypatch):
    """numpy's OpenBLAS thread-count getter, with the caller on two threads and no thread variable set."""
    calls = cli._openblas_threads()
    if calls is None:
        pytest.skip("numpy's BLAS exports no known thread-count function")
    for name in cli._THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    get, set_threads = calls
    before = get()
    set_threads(2)
    yield get
    set_threads(before)


def _record_threads(monkeypatch, command, get, error=None):
    """Replace ``cli.<command>`` by a stand-in that records the thread count it runs on."""
    counts = []
    real = getattr(cli, command)

    def recording(*args, **kwargs):
        counts.append(get())
        if error is not None:
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, command, recording)
    return counts


class TestBlasThreads:
    def test_a_command_runs_on_one_thread_and_restores_the_callers_count(
            self, blas_threads, workspace, tmp_path, monkeypatch):
        counts = _record_threads(monkeypatch, "cmd_generate", blas_threads)
        assert main(["generate", "--config", str(workspace["gen_config"]),
                     "--out", str(tmp_path / "data.csv")]) == 0
        assert counts == [1]
        assert blas_threads() == 2

    @pytest.mark.parametrize("error, code", [(ConfigError("bad"), 1), (RuntimeError("crash"), None)],
                             ids=["exit-1", "uncaught"])
    def test_the_callers_count_comes_back_after_an_error(self, error, code, blas_threads, workspace,
                                                         tmp_path, monkeypatch, capsys):
        counts = _record_threads(monkeypatch, "cmd_cluster", blas_threads, error)
        argv = ["cluster", "--data", str(workspace["data"]), "--out", str(tmp_path / "out")]
        if code is None:
            with pytest.raises(RuntimeError, match="crash"):
                main(argv)
        else:
            assert main(argv) == code
            assert capsys.readouterr().err == "error: bad\n"
        assert counts == [1]
        assert blas_threads() == 2

    @pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_a_thread_variable_leaves_the_count_alone(self, name, blas_threads, workspace, tmp_path,
                                                      monkeypatch):
        monkeypatch.setenv(name, "2")
        counts = _record_threads(monkeypatch, "cmd_generate", blas_threads)
        assert main(["generate", "--config", str(workspace["gen_config"]),
                     "--out", str(tmp_path / "data.csv")]) == 0
        assert counts == [2]
        assert blas_threads() == 2

    def test_openblas_num_threads_at_start_up_wins(self, blas_threads, workspace, tmp_path):
        # OpenBLAS caps the variable at the core count, so compare with what it read at start-up
        script = (
            "import sys\n"
            "from forecast_uq import cli\n"
            "get = cli._openblas_threads()[0]\n"
            "outside, real = get(), cli.cmd_generate\n"
            "cli.cmd_generate = lambda *args: print(outside, get()) or real(*args)\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        argv = ["generate", "--config", str(workspace["gen_config"]), "--out", str(tmp_path / "d.csv")]
        done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                              env=_env_without_thread_vars(OPENBLAS_NUM_THREADS="2"), timeout=120)
        assert done.returncode == 0, done.stderr
        outside, inside = map(int, done.stdout.split()[:2])
        assert inside == outside == min(2, len(os.sched_getaffinity(0)))

    def test_jobs_workers_train_on_one_thread(self, blas_threads, workspace, tmp_path):
        # the wrapper is installed at import, so a worker that re-imported this
        # script instead of forking would run it on numpy's default count
        script = tmp_path / "train_on_one_thread.py"
        script.write_text(
            "import os, sys\n"
            "from forecast_uq import cli\n"
            "from forecast_uq.exceptions import TrainingError\n"
            "get, real_train = cli._openblas_threads()[0], cli.train\n"
            "\n"
            "def train(*args, **kwargs):\n"
            "    count = get()\n"
            "    with open(sys.argv[1], 'a') as log:\n"
            "        log.write(f'{os.getpid()} {count}\\n')\n"
            "    if count != 1:\n"
            "        raise TrainingError(f'a job trained on {count} BLAS threads')\n"
            "    return real_train(*args, **kwargs)\n"
            "\n"
            "cli.train = train\n"
            "if __name__ == '__main__':\n"
            "    print(os.getpid())\n"
            "    sys.exit(cli.main(sys.argv[2:]))\n"
        )
        log = tmp_path / "jobs.log"
        argv = ["train", "--config", str(workspace["run_config"]), "--data", str(workspace["data"]),
                "--out", str(tmp_path / "ckpts"), "--jobs", "2"]
        done = subprocess.run([sys.executable, str(script), str(log), *argv], capture_output=True,
                              text=True, env=_env_without_thread_vars(), timeout=300)
        assert done.returncode == 0, done.stderr
        jobs = [line.split() for line in log.read_text().splitlines()]
        assert len(jobs) == 4 and {count for _, count in jobs} == {"1"}
        assert done.stdout.split()[0] not in {pid for pid, _ in jobs}
        for name in ("dense_point_seed0.ckpt.json", "dense_heteroscedastic_seed1.ckpt.json"):
            assert (tmp_path / "ckpts" / name).read_bytes() == (workspace["ckpts"] / name).read_bytes()


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 4000 held-out series of length 24: the first dense layer is a 4000x26 @ 26x32
    # GEMM, large enough that OpenBLAS splits it when it has two threads
    generator = {"series_length": 24, "amplitude_range": [10.0, 100.0],
                 "noise": {"law": "uniform", "low": 1.0, "high": 10.0}}
    (tmp_path / "train.json").write_text(json.dumps(
        {**generator, "families": {name: 100 for name in ("periodic", "spikes", "trend", "noise")}}))
    (tmp_path / "heldout.json").write_text(json.dumps(
        {**generator, "families": {name: 1000 for name in ("periodic", "spikes", "trend", "noise")},
         "seed": 1}))
    (tmp_path / "run.json").write_text(json.dumps({
        "models": [{"backbone": b, "uncertainty": u} for b, u in
                   [("dense", "point"), ("dense", "heteroscedastic"), ("lstm", "mc_dropout")]],
        "train": {"max_epochs": 2, "patience": 2}, "seeds": [0], "desk": True, "mc_samples": 3,
    }))
    script = (
        "import sys\n"
        "from forecast_uq.cli import main\n"
        "c = sys.argv[1]\n"
        "runs = [\n"
        "    ['generate', '--config', f'{c}/train.json', '--out', 'train.csv'],\n"
        "    ['generate', '--config', f'{c}/heldout.json', '--out', 'heldout.csv'],\n"
        "    ['train', '--config', f'{c}/run.json', '--data', 'train.csv', '--out', 'ckpt'],\n"
        "    ['evaluate', '--config', f'{c}/run.json', '--data', 'heldout.csv', '--checkpoints', 'ckpt',\n"
        "     '--out', 'eval'],\n"
        "    ['cluster', '--config', f'{c}/run.json', '--data', 'heldout.csv', '--out', 'clusters'],\n"
        "]\n"
        "for argv in runs:\n"
        "    assert main(argv) == 0, argv[0]\n"
    )
    outputs = {}
    for side, extra in (("two", {"OPENBLAS_NUM_THREADS": "2"}), ("policy", {})):
        out = tmp_path / side
        out.mkdir()
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], cwd=out, capture_output=True,
                              text=True, env=_env_without_thread_vars(**extra), timeout=300)
        assert done.returncode == 0, done.stderr
        outputs[side] = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        outputs[side]["stdout"] = done.stdout.encode()
    # two datasets, three checkpoints and histories, the evaluate and cluster outputs, stdout
    assert len(outputs["policy"]) == 2 + 6 + 10 + 3 + 1
    assert outputs["two"] == outputs["policy"]
