"""Tests of the benchmark itself: python3 -m pytest perfbench

They run every workload at a few dozen series, so they take seconds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import checks
import session
from metrics import END_TO_END, EXACT_COUNTS, PER_LAYER
from tracer import Tracer
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def small(workload, per_family=30):
    def shrink(data):
        return {**data, "families": {name: per_family for name in data["families"]}}

    return dataclasses.replace(
        workload,
        train_data=shrink(workload.train_data),
        heldout_data=shrink(workload.heldout_data),
        max_epochs=2,
        mc_samples=3,
        k=4,
    )


def traced_run(workload, work):
    return session.run(workload, bench_seed=3, seconds=0.0, trace=True, work=str(work),
                       spawned_at=time.monotonic())


def test_benchmark_json_matches_the_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [tuple(m.values()) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [tuple(m.values()) for m in spec["per_layer"]] == list(PER_LAYER)


def test_tracer_wraps_every_lookup_site_and_restores_them(tmp_path):
    cli = session.import_cli()
    from forecast_uq import models
    from forecast_uq.nn.tensor import GradientTape

    originals = (cli.train, cli.read_series_csv, models.laplace_nll, GradientTape.gradients)
    tracer = Tracer(tmp_path)
    tracer.install()
    try:
        wrapped = (cli.train, cli.read_series_csv, models.laplace_nll, GradientTape.gradients)
        assert all(w is not o for w, o in zip(wrapped, originals))
        assert cli.train is models.train
    finally:
        tracer.uninstall()
    assert (cli.train, cli.read_series_csv, models.laplace_nll, GradientTape.gradients) == originals


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_exact_counts_and_artifacts_repeat_run_to_run(name, tmp_path):
    workload = small(WORKLOADS[name])
    first = traced_run(workload, tmp_path / "first")
    second = traced_run(workload, tmp_path / "second")

    for result in (first, second):
        assert [op for op in result["ops"] if op["problems"]] == []
    counts = [{n: r["iterations"][0]["layers"][n] for n in EXACT_COUNTS} for r in (first, second)]
    assert counts[0] == counts[1]
    assert first["hashes"] == second["hashes"]

    layers = counts[0]
    n_jobs = len(workload.models) * len(workload.seeds)
    train_reads = 1 + n_jobs if "train" in workload.timed else 0
    assert layers["data.read_series_csv_calls"] == train_reads + 2  # + evaluate + cluster
    assert layers["selective.curves"] == len(workload.curve_files())
    assert layers["cluster.kmeans_iters"] >= 1
    if "train" in workload.timed:
        assert layers["optim.adam_steps"] > 0
        assert layers["optim.adam_steps"] == layers["tensor.backward_calls"]
    else:
        assert layers["optim.adam_steps"] == 0
    mc_models = sum(1 for _, u in workload.models if u == "mc_dropout") * len(workload.seeds)
    assert layers["models.mc_passes"] == mc_models * workload.mc_samples


def test_worker_spans_reach_the_parent(tmp_path):
    workload = small(WORKLOADS["dense-grid"])
    assert workload.jobs > 1
    layers = traced_run(workload, tmp_path)["iterations"][0]["layers"]
    # every train job ran in a forked worker and spooled its spans
    assert layers["models.train_self_s"] > 0
    assert 0 < layers["cli.train_parallel_eff"] <= 1.0


def test_a_failing_stage_is_a_failed_operation_not_a_crash():
    class BrokenCli:
        @staticmethod
        def main(argv):
            raise KeyError("boom")

    runner = session.Session(BrokenCli)
    _, op = runner.call("train", ["train"], lambda: [])
    assert op["problems"] and "KeyError" in op["problems"][0]


def test_train_check_rejects_early_stopped_history(tmp_path):
    workload = small(WORKLOADS["lstm-mc"])
    for stem in workload.checkpoint_stems():
        (tmp_path / f"{stem}.ckpt.json").write_text("{}")
        (tmp_path / f"{stem}.history.json").write_text(json.dumps({"epochs_run": 1}))
    problems = checks.check_train(tmp_path, workload)
    assert len(problems) == len(workload.checkpoint_stems())


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lstm-mc", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_end_to_end_metrics_are_named_once():
    names = [m[0] for m in END_TO_END] + [m[0] for m in PER_LAYER]
    assert len(names) == len(set(names))
    assert all(0 < bound <= 0.25 for *_, bound in END_TO_END)
