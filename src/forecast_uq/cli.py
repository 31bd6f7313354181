"""Command line pipeline: generate, train, evaluate, cluster.

Every command is deterministic given its config and seeds, and re-running
one overwrites its outputs with identical bytes. The CLI renders no
plots; it writes tidy CSV/JSON artifacts for external tools.

Output locations come from ``--out`` or, when that is omitted, the
``FORECAST_UQ_OUT`` environment variable.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import NamedTuple

from .cluster import kmeans
from .data import (
    GeneratorConfig,
    center_scale_normalize,
    generate_synthetic,
    make_dataset,
    read_series_csv,
    write_series_csv,
)
from .documents import check_kinds, load_json, write_csv, write_json
from .exceptions import ConfigError, ShapeError, TrainingError
from .models import (
    BACKBONES,
    BASELINES,
    UNCERTAINTIES,
    ModelSpec,
    TrainConfig,
    baseline_predict,
    build,
    forecast,
    input_variance_score,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .selective import evaluation_report, write_curve_csv, write_matrix_json, write_scatter_csv

__all__ = [
    "OUT_ENV_VAR",
    "RunConfig",
    "cmd_cluster",
    "cmd_evaluate",
    "cmd_generate",
    "cmd_train",
    "main",
]

OUT_ENV_VAR = "FORECAST_UQ_OUT"
DEFAULT_SEEDS = (0, 1, 2, 3, 4, 5)

DEFAULT_GENERATOR = GeneratorConfig(
    families={"periodic": 250, "spikes": 250, "trend": 250, "noise": 250},
    series_length=24,
    amplitude_range=(10.0, 100.0),
    noise={"law": "uniform", "low": 1.0, "high": 10.0},
    seed=0,
)


# one grid entry; a run config spells it {"backbone": ..., "uncertainty": ...}
ModelPair = NamedTuple("ModelPair", [("backbone", str), ("uncertainty", str)])


@dataclass(frozen=True)
class RunConfig:
    """Command parameters beyond file paths, loadable from one JSON doc.

    ``models`` is the training grid as (backbone, uncertainty) pairs; an
    empty grid means every combination. Evaluation-only fields are
    ignored by train and vice versa.
    """

    schema_version: int = 1
    models: tuple[ModelPair, ...] = ()
    train: TrainConfig = TrainConfig()
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    desk: bool = False
    mc_samples: int = 50
    curve_points: int = 50
    scatter_rows: int = 10000
    k: int = 16

    def __post_init__(self):
        check_kinds(self)
        if self.schema_version != 1:
            raise ConfigError(f"unsupported schema_version {self.schema_version!r}")
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be non-negative, got {min(self.seeds)}")
        for name, items in (("seeds", self.seeds), ("models", self.models)):
            if len(set(items)) < len(items):
                raise ConfigError(f"{name} must not repeat")
        if self.train.seed != 0:
            raise ConfigError("train.seed is set per job by seeds; remove it")
        for backbone, uncertainty in self.models:
            if backbone not in BACKBONES or uncertainty not in UNCERTAINTIES:
                raise ConfigError(f"unknown model ({backbone!r}, {uncertainty!r})")
        if self.mc_samples < 2:
            raise ConfigError("mc_samples must be at least 2")
        if self.curve_points < 2:
            raise ConfigError("curve_points must be at least 2")
        if self.scatter_rows < 1:
            raise ConfigError("scatter_rows must be positive")
        if self.k < 1:
            raise ConfigError("k must be positive")


# -- generate -----------------------------------------------------------------


def cmd_generate(config: GeneratorConfig, out_path) -> None:
    series = generate_synthetic(config)
    parent = os.path.dirname(out_path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    write_series_csv(series, out_path)
    print(f"wrote {len(series)} series to {out_path}")


# -- train --------------------------------------------------------------------


def _checkpoint_stem(spec: ModelSpec, seed: int) -> str:
    return f"{spec.backbone}_{spec.uncertainty}_seed{seed}"


def _train_job(spec: ModelSpec, config: TrainConfig, data_path):
    """One (model, seed) training run, module-level so jobs can fork; returns ``(model, history)``, writes nothing."""
    stem = _checkpoint_stem(spec, config.seed)
    try:  # a grid's one error line names the job that failed
        dataset = make_dataset(read_series_csv(data_path))
        return train(build(spec, seed=config.seed), dataset, config)
    except TrainingError as exc:
        raise TrainingError(f"{stem}: {exc}") from None
    except ValueError as exc:  # ConfigError and ShapeError too, which main prints alike
        raise ValueError(f"{stem}: {exc}") from None


def cmd_train(run: RunConfig, data_path, out_dir, jobs: int = 1) -> list[str]:
    """Train every (model, seed) job, then create ``out_dir`` and write each job's checkpoint and history.

    Returns the checkpoint stems in grid order. Only this function writes: a
    failed job, or a ``--jobs`` worker that ends without a result, raises
    before ``out_dir`` is created, so an existing ``out_dir`` keeps its files.
    """
    if len(series := read_series_csv(data_path)) < 2:  # the fewest data.split divides in two
        raise ConfigError(f"{data_path}: {len(series)} series, train needs at least 2")
    input_dim = series.length + 2
    grid = run.models or tuple((b, u) for b in BACKBONES for u in UNCERTAINTIES)
    specs = [ModelSpec.default(b, u, input_dim, desk=run.desk) for b, u in grid for _ in run.seeds]
    configs = [replace(run.train, seed=seed) for _ in grid for seed in run.seeds]

    # a fork pool starts every worker up front, so never ask for idle ones
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(specs))) if jobs > 1 else None
    try:
        with pool or contextlib.nullcontext():
            results = list((pool.map if pool else map)(_train_job, specs, configs, [str(data_path)] * len(specs)))
    except BrokenProcessPool:
        raise TrainingError("a --jobs worker ended without a result (killed, or out of memory)") from None

    os.makedirs(out_dir, exist_ok=True)
    stems = []
    for spec, config, (model, history) in zip(specs, configs, results):
        stems.append(stem := _checkpoint_stem(spec, config.seed))
        save_checkpoint(model, os.path.join(out_dir, stem + ".ckpt.json"), config)
        write_json(os.path.join(out_dir, stem + ".history.json"), {"schema_version": 1, **history})
        print(f"trained {stem}")
    return stems


# -- evaluate -----------------------------------------------------------------


def _load_checkpoints(checkpoints_dir, data_path, data_shape, seeds_filter):
    """Map (predictor, seed) to each checkpoint's (model, path); a predictor is ``<backbone>_<uncertainty>``.

    A kept model whose input width differs from the features of ``data_path``
    (shape ``data_shape``) raises ``ShapeError``, and a second checkpoint of one
    key ``ConfigError``; each names both files.
    """
    models = {}
    for name in sorted(os.listdir(checkpoints_dir)):
        if not name.endswith(".ckpt.json"):
            continue
        path = os.path.join(checkpoints_dir, name)
        model = load_checkpoint(path)
        if seeds_filter is not None and model.seed not in seeds_filter:
            continue
        if model.spec.input_dim != data_shape[1]:
            raise ShapeError(
                f"{path}: expected an (N, {model.spec.input_dim}) batch, "
                f"got shape {data_shape} from {data_path}"
            )
        key = (f"{model.spec.backbone}_{model.spec.uncertainty}", model.seed)
        if key in models:
            raise ConfigError(f"{path}: duplicate checkpoint for {key[0]} seed {key[1]}, also in {models[key][1]}")
        models[key] = model, path
    return models


def cmd_evaluate(run: RunConfig, checkpoints_dir, data_path, out_dir, seeds_filter=None) -> dict:
    dataset = make_dataset(read_series_csv(data_path))
    x, y = dataset.x, dataset.y
    if len(y) < 3:  # the fewest series a rank correlation is defined on
        raise ConfigError(f"{data_path}: {len(y)} series, evaluate needs at least 3")
    var_scores = input_variance_score(dataset.values)
    models = _load_checkpoints(checkpoints_dir, data_path, x.shape, seeds_filter)
    if not models:
        seeds = "" if seeds_filter is None else " for seeds " + ",".join(map(str, sorted(seeds_filter)))
        raise ConfigError(f"{checkpoints_dir}: no checkpoints{seeds}")
    # (predictor, seed) -> (file it forecasts from, y_hat, scores), each predicted once
    table = {}
    for key, (model, path) in sorted(models.items()):
        try:
            y_hat, _, scores = forecast(model, x, run.mc_samples)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        table[key] = path, y_hat, scores
    for kind in BASELINES:  # a baseline sits at seed 0 and forecasts from the data
        table[f"baseline_{kind}", 0] = data_path, baseline_predict(kind, dataset.values), {}

    rows, curves, scatter = evaluation_report(y, table, var_scores, run.curve_points, run.scatter_rows)

    os.makedirs(out_dir, exist_ok=True)
    for name, curve in curves.items():
        write_curve_csv(curve, os.path.join(out_dir, name))
    matrix_path = os.path.join(out_dir, "matrix.json")
    write_matrix_json(rows, matrix_path)
    print(f"wrote {matrix_path} with {len(rows)} rows")
    if scatter is not None:
        row, seed, rho, pairs = scatter
        scatter_path = os.path.join(out_dir, "scatter.csv")
        write_scatter_csv(pairs, scatter_path)
        print(f"wrote {scatter_path} ({len(pairs)} rows) from {row} seed {seed}, spearman rho {rho:.3f}")
    return rows


# -- cluster ------------------------------------------------------------------


def cmd_cluster(run: RunConfig, data_path, out_dir, seed: int) -> None:
    series = read_series_csv(data_path)
    if len(series) < run.k:
        raise ConfigError(
            f"{data_path}: {len(series)} series, fewer than k={run.k} clusters; "
            f"set k in the run config (default {RunConfig.k})"
        )
    normalized = center_scale_normalize(series.values)
    del series  # the raw table need not live through k-means
    result = kmeans(normalized, run.k, seed=seed)
    os.makedirs(out_dir, exist_ok=True)

    header = ["cluster"] + [f"value_{i}" for i in range(1, normalized.shape[1] + 1)]
    centroids = ([i] + row for i, row in enumerate(result.centroids.tolist()))
    write_csv(os.path.join(out_dir, "centroids.csv"), header, centroids)
    assignments = enumerate(result.assignments.tolist())
    write_csv(os.path.join(out_dir, "assignments.csv"), ("series_index", "cluster"), assignments)
    summary = {
        "schema_version": 1,
        "k": run.k,
        "seed": seed,
        "inertia": result.inertia,
        "n_iter": result.n_iter,
    }
    write_json(os.path.join(out_dir, "cluster_summary.json"), summary)
    print(f"clustered {len(normalized)} series into {run.k} groups, inertia {result.inertia:.4f}")


# -- argument plumbing ---------------------------------------------------------


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed list {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError("seed list is empty")
    return seeds


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _resolve_out(args, kind: str) -> str:
    if args.out:
        return args.out
    env = os.environ.get(OUT_ENV_VAR)
    if env:
        return os.path.join(env, "dataset.csv") if kind == "file" else env
    raise ConfigError(f"no output location: pass --out or set {OUT_ENV_VAR}")


def _check_one_seed(args) -> None:
    """Reject a ``--seeds`` list of more than one seed for a command that takes one."""
    if args.seeds and len(args.seeds) > 1:
        raise ConfigError(f"{args.command} takes one seed, got {','.join(map(str, args.seeds))}")


def _run_config(args) -> RunConfig:
    run = load_json(args.config, RunConfig) if args.config else RunConfig()
    if args.seeds:
        run = replace(run, seeds=args.seeds)
    if getattr(args, "desk", False):
        run = replace(run, desk=True)
    return run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forecast-uq",
        description="Uncertainty-aware forecasting pipeline over short series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data: bool = True):
        p.add_argument("--config", help="JSON config file")
        if data:  # generate reads no dataset
            p.add_argument("--data", required=True, help="dataset CSV")
        p.add_argument("--out", help=f"output location (default from ${OUT_ENV_VAR})")
        p.add_argument("--seeds", type=_parse_seeds, help="comma-separated seed list")

    p = sub.add_parser("generate", help="write a synthetic dataset CSV")
    common(p, data=False)
    p.set_defaults(func=_main_generate)

    p = sub.add_parser("train", help="train the model grid on a dataset")
    common(p)
    p.add_argument("--desk", action="store_true", help="small architecture profile")
    p.add_argument("--jobs", type=_positive_int, default=1, help="parallel training jobs")
    p.set_defaults(func=_main_train)

    p = sub.add_parser("evaluate", help="selective-prediction comparison matrix")
    common(p)
    p.add_argument("--checkpoints", required=True, help="directory of .ckpt.json files")
    p.set_defaults(func=_main_evaluate)

    p = sub.add_parser("cluster", help="k-means over normalized series")
    common(p)
    p.set_defaults(func=_main_cluster)
    return parser


def _main_generate(args) -> int:
    config = load_json(args.config, GeneratorConfig) if args.config else DEFAULT_GENERATOR
    _check_one_seed(args)
    if args.seeds:
        config = replace(config, seed=args.seeds[0])
    out_path = _resolve_out(args, "file")
    try:
        cmd_generate(config, out_path)
    except ConfigError as exc:  # a config that loaded but draws values out of range
        raise ConfigError(f"{args.config}: {exc}") from None
    return 0


def _main_train(args) -> int:
    run = _run_config(args)
    cmd_train(run, args.data, _resolve_out(args, "dir"), jobs=args.jobs)
    return 0


def _main_evaluate(args) -> int:
    run = _run_config(args)
    seeds_filter = set(args.seeds) if args.seeds else None
    cmd_evaluate(run, args.checkpoints, args.data, _resolve_out(args, "dir"), seeds_filter)
    return 0


def _main_cluster(args) -> int:
    _check_one_seed(args)
    run = _run_config(args)
    cmd_cluster(run, args.data, _resolve_out(args, "dir"), run.seeds[0])
    return 0


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")  # OpenBLAS honours each
_THREAD_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_", "openblas_{}_num_threads")


def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS numpy loaded, or None if none is found."""
    core = sys.modules.get("numpy._core._multiarray_umath") or sys.modules.get("numpy.core._multiarray_umath")
    for symbol in _THREAD_SYMBOLS:
        with contextlib.suppress(AttributeError, OSError):  # no numpy core library, or no such symbol
            lib = ctypes.CDLL(core.__file__)
            return (ctypes.CFUNCTYPE(ctypes.c_int)((symbol.format("get"), lib)),
                    ctypes.CFUNCTYPE(None, ctypes.c_int)((symbol.format("set"), lib)))


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread unless a variable above chose the count, then restore the caller's."""
    calls = None if any(map(os.environ.get, _THREAD_VARS)) else _openblas_threads()
    get, set_threads = calls or (lambda: None, lambda count: None)
    before = get()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a second BLAS thread makes large GEMMs wait for it on a busy machine; forked jobs inherit one
        with _one_blas_thread():
            return args.func(args)
    except (ValueError, TrainingError, OSError, MemoryError) as exc:  # ConfigError and ShapeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
