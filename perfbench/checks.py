"""Output checks for each CLI stage call, artifact hashes and quality readouts.

Every check returns a list of problems; an empty list means the stage call
produced what the workload implies. A problem marks that call as a failed
operation; it never stops the run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

from scipy import stats

from workloads import Workload


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _count_lines(path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def check_generate(csv_path, expected_series: int) -> list[str]:
    if not os.path.isfile(csv_path):
        return [f"{csv_path} missing"]
    rows = _count_lines(csv_path) - 1
    if rows != expected_series:
        return [f"{csv_path} has {rows} series, expected {expected_series}"]
    return []


def check_train(ckpt_dir, workload: Workload) -> list[str]:
    if not os.path.isdir(ckpt_dir):
        return [f"{ckpt_dir} missing"]
    names = os.listdir(ckpt_dir)
    stems = {n[: -len(".ckpt.json")] for n in names if n.endswith(".ckpt.json")}
    expected = workload.checkpoint_stems()
    problems = []
    if stems != expected:
        problems.append(f"checkpoints {sorted(stems)} != expected {sorted(expected)}")
    for stem in sorted(expected):
        path = os.path.join(ckpt_dir, stem + ".history.json")
        if not os.path.isfile(path):
            problems.append(f"{stem}.history.json missing")
            continue
        epochs = _read_json(path).get("epochs_run")
        if epochs != workload.max_epochs:
            problems.append(f"{stem} ran {epochs} epochs, expected {workload.max_epochs}")
    return problems


def check_evaluate(eval_dir, workload: Workload) -> list[str]:
    matrix_path = os.path.join(eval_dir, "matrix.json")
    if not os.path.isfile(matrix_path):
        return [f"{matrix_path} missing"]
    problems = []
    rows = set(_read_json(matrix_path)["rows"])
    if rows != workload.matrix_rows():
        problems.append(f"matrix rows {sorted(rows)} != expected {sorted(workload.matrix_rows())}")
    curves = {n for n in os.listdir(eval_dir) if n.startswith("curve_")}
    if curves != workload.curve_files():
        problems.append(f"{len(curves)} curve files, expected {len(workload.curve_files())}")
    for name in sorted(curves):
        with open(os.path.join(eval_dir, name), "r", encoding="utf-8", newline="") as fh:
            last = list(csv.reader(fh))[-1]
        if float(last[1]) != 1.0:
            problems.append(f"{name} ends at keep_fraction {last[1]}, expected 1.0")
    if not os.path.isfile(os.path.join(eval_dir, "scatter.csv")):
        problems.append("scatter.csv missing")
    return problems


def check_cluster(cluster_dir, workload: Workload) -> list[str]:
    summary_path = os.path.join(cluster_dir, "cluster_summary.json")
    if not os.path.isfile(summary_path):
        return [f"{summary_path} missing"]
    problems = []
    summary = _read_json(summary_path)
    if summary["k"] != workload.k or summary["n_iter"] < 1:
        problems.append(f"bad cluster summary {summary}")
    centroids = _count_lines(os.path.join(cluster_dir, "centroids.csv")) - 1
    if centroids != workload.k:
        problems.append(f"{centroids} centroids, expected {workload.k}")
    assigned = _count_lines(os.path.join(cluster_dir, "assignments.csv")) - 1
    if assigned != workload.heldout_size:
        problems.append(f"{assigned} assignments, expected {workload.heldout_size}")
    return problems


def digest(directory, predicate) -> str:
    """sha256 over the names and bytes of the matching files, in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        if predicate(name):
            h.update(name.encode() + b"\0")
            with open(os.path.join(directory, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def artifact_hashes(eval_dir, ckpt_dir) -> dict[str, str]:
    return {
        "matrix": digest(eval_dir, lambda n: n == "matrix.json"),
        "curves": digest(eval_dir, lambda n: n.startswith("curve_")),
        "checkpoints": digest(ckpt_dir, lambda n: n.endswith(".ckpt.json")),
    }


def quality(eval_dir, workload: Workload) -> dict[str, float]:
    """The paper's headline readouts of the heteroscedastic row.

    keep25_mae_ratio: seed-mean MAE at keep 0.25 over MAE at keep 1.0.
    scale_rho: Spearman correlation of |error| with the predicted scale
    over scatter.csv.
    """
    row = _read_json(os.path.join(eval_dir, "matrix.json"))["rows"][workload.headline_row()]
    with open(os.path.join(eval_dir, "scatter.csv"), "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        pairs = [(float(err), float(score)) for err, score in reader]
    errors, scores = zip(*pairs)
    return {
        "keep25_mae_ratio": row["0.25"]["mean"] / row["1.0"]["mean"],
        "scale_rho": float(stats.spearmanr(errors, scores).statistic),
    }
