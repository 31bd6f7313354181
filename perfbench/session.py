"""One benchmark process: set up a workload, run its timed stages, check them.

``run.py`` starts this script as a fresh interpreter for every set-up
measurement and for the measured pipeline, so set-up time includes the
imports. The readings go to ``--result`` as JSON:

    python3 perfbench/session.py --workload lstm-mc --seed 0 --seconds 25 \\
        --trace 0 --work DIR --result FILE --spawned-at MONOTONIC [--setup-only]

The timed stages repeat, each repetition in a fresh directory, while the
next one is expected to end within ``--seconds``; at least one runs. Every
repetition must reproduce the first one's artifacts byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

import checks
from metrics import layer_metrics, layer_self_times
from tracer import Tracer
from workloads import WORKLOADS, Workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def import_cli():
    """Import forecast_uq from this checkout's ``src``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    from forecast_uq import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"forecast_uq imported from {cli.__file__}, not from {src}")
    return cli


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "usable_cores": len(os.sched_getaffinity(0)),
        "jobs": {name: w.jobs for name, w in WORKLOADS.items()},
    }


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)


class Session:
    """Runs CLI stage calls and records each as one checked operation."""

    def __init__(self, cli):
        self.cli = cli
        self.tracer: Tracer | None = None
        self.ops: list[dict] = []

    def call(self, stage: str, argv: list[str], check) -> tuple[float, dict]:
        """Run one stage; returns its wall time and its operation record."""
        op = {"stage": stage, "problems": []}
        self.ops.append(op)
        start = time.perf_counter()
        try:
            if self.tracer is None:
                code = self.cli.main(argv)
            else:
                code = self.tracer.span(f"cli.{stage}", self.cli.main, argv)
        except Exception:  # a crashing stage is a failed operation, not a failed run
            code = traceback.format_exc(limit=3)
        wall = time.perf_counter() - start
        try:
            op["problems"] = check() if code == 0 else [code if isinstance(code, str) else f"exit code {code}"]
        except Exception:  # so is an output too broken for the checks to read
            op["problems"] = [traceback.format_exc(limit=3)]
        return wall, op


def stage_calls(w: Workload, work: str, heldout: str, ckpt: str, out_dir: str) -> dict:
    """Stage name -> (CLI argv, output check) for one pass over the stages."""
    run_json = os.path.join(work, "run.json")
    eval_dir = os.path.join(out_dir, "eval")
    cluster_dir = os.path.join(out_dir, "cluster")
    return {
        "generate": (
            ["generate", "--config", os.path.join(work, "generator_heldout.json"), "--out", heldout],
            lambda: checks.check_generate(heldout, w.heldout_size),
        ),
        "train": (
            ["train", "--config", run_json, "--data", os.path.join(work, "train.csv"),
             "--out", ckpt, "--jobs", str(w.jobs)],
            lambda: checks.check_train(ckpt, w),
        ),
        "evaluate": (
            ["evaluate", "--config", run_json, "--data", heldout, "--checkpoints", ckpt, "--out", eval_dir],
            lambda: checks.check_evaluate(eval_dir, w),
        ),
        "cluster": (
            ["cluster", "--config", run_json, "--data", heldout, "--out", cluster_dir],
            lambda: checks.check_cluster(cluster_dir, w),
        ),
    }


def run(w: Workload, bench_seed: int, seconds: float, trace: bool, work: str,
        spawned_at: float, setup_only: bool = False) -> dict:
    cli = import_cli()
    os.makedirs(work, exist_ok=True)
    session = Session(cli)

    # -- set-up: configs and the inputs that precede the timed stages ---------
    _write_json(os.path.join(work, "generator_train.json"), w.generator("train", bench_seed))
    _write_json(os.path.join(work, "generator_heldout.json"), w.generator("heldout", bench_seed))
    _write_json(os.path.join(work, "run.json"), w.run_config())
    train_csv = os.path.join(work, "train.csv")
    session.call(
        "generate",
        ["generate", "--config", os.path.join(work, "generator_train.json"), "--out", train_csv],
        lambda: checks.check_generate(train_csv, sum(w.train_data["families"].values())),
    )
    setup = stage_calls(w, work, os.path.join(work, "heldout.csv"), os.path.join(work, "ckpt"), work)
    for stage in ("generate", "train"):
        if stage not in w.timed:
            session.call(stage, *setup[stage])
    setup_s = time.monotonic() - spawned_at
    if setup_only:
        return {"setup_s": setup_s, "ops": session.ops}

    # -- timed stages ----------------------------------------------------------
    tracer = None
    if trace:
        spool = os.path.join(work, "spool")
        os.makedirs(spool, exist_ok=True)
        tracer = session.tracer = Tracer(spool)
        tracer.install()

    iterations = []
    first_hashes = quality = None
    begin = time.perf_counter()
    try:
        while True:
            it_start = time.perf_counter()
            it_dir = os.path.join(work, f"it{len(iterations)}")
            os.makedirs(it_dir)
            heldout = os.path.join(it_dir if "generate" in w.timed else work, "heldout.csv")
            ckpt = os.path.join(it_dir if "train" in w.timed else work, "ckpt")
            calls = stage_calls(w, work, heldout, ckpt, it_dir)
            if tracer is not None:
                tracer.reset()
            walls, op_of = {}, {}
            for stage in w.timed:
                walls[stage], op_of[stage] = session.call(stage, *calls[stage])
                if stage == "train" and tracer is not None:
                    tracer.merge_spool()
            record = {"walls": walls, "pipeline_s": sum(walls.values())}
            if tracer is not None:
                record["layers"] = layer_metrics(tracer.stats, tracer.counters, walls, w.jobs)
                record["self_times"] = layer_self_times(tracer.stats, w.jobs)
            iterations.append(record)

            eval_dir = os.path.join(it_dir, "eval")
            if not op_of["evaluate"]["problems"]:
                hashes = checks.artifact_hashes(eval_dir, ckpt)
                if first_hashes is None:
                    first_hashes = hashes
                    quality = checks.quality(eval_dir, w)
                for kind, value in hashes.items():
                    if value != first_hashes[kind]:
                        producer = "train" if kind == "checkpoints" and "train" in w.timed else "evaluate"
                        op_of[producer]["problems"].append(f"{kind} differ from the first repetition")
            if len(iterations) > 1:
                shutil.rmtree(it_dir)
            elapsed = time.perf_counter() - begin
            if elapsed + (time.perf_counter() - it_start) > seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {
        "setup_s": setup_s,
        "iterations": iterations,
        "rss_self_mb": own,
        "rss_children_mb": workers,
        "quality": quality,
        "hashes": first_hashes,
        "ops": session.ops,
        "env": environment(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                 args.work, args.spawned_at, args.setup_only)
    _write_json(args.result, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
