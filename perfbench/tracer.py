"""Layer spans for the traced benchmark run, recorded from outside the package.

``Tracer.install`` replaces the public functions of each forecast_uq module
with timing wrappers, at every place the name is looked up: the defining
module, every module that imported the name directly (``cli`` imports
``train`` and ``read_series_csv`` by name), and class attributes for
methods. Nothing under ``src/`` changes.

Spans nest. A span's self time is its duration minus the time its child
spans cover, so the self times of all spans in one process add up to the
traced wall time. Only aggregates are kept in memory: per span name the
call count, total and self time, plus work counters such as flops.

Forked ``--jobs`` workers exit without running ``atexit`` handlers, so the
wrapper around ``cli._train_job`` writes the worker's aggregates to the
spool directory at the end of every job, and the parent merges them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter
from time import perf_counter

# (span name, defining module, attribute); a span's layer is the name
# without its last dotted part.
TARGETS = (
    ("data.generate_synthetic", "forecast_uq.data", "generate_synthetic"),
    ("data.write_series_csv", "forecast_uq.data", "write_series_csv"),
    ("data.read_series_csv", "forecast_uq.data", "read_series_csv"),
    ("data.make_dataset", "forecast_uq.data", "make_dataset"),
    ("nn.tensor.backward", "forecast_uq.nn.tensor", "GradientTape.gradients"),
    ("nn.layers.dense_forward", "forecast_uq.nn.layers", "DenseLayer.forward"),
    ("nn.layers.lstm_step", "forecast_uq.nn.layers", "LstmCell.step"),
    ("nn.optim.adam_step", "forecast_uq.nn.optim", "Adam.step"),
    ("losses.laplace_nll", "forecast_uq.losses", "laplace_nll"),
    ("losses.mae_loss", "forecast_uq.losses", "mae_loss"),
    ("losses.elu_plus_one", "forecast_uq.losses", "elu_plus_one"),
    ("models.train", "forecast_uq.models", "train"),
    ("models.predict", "forecast_uq.models", "predict"),
    ("models.mc_dropout_predict", "forecast_uq.models", "mc_dropout_predict"),
    ("models.save_checkpoint", "forecast_uq.models", "save_checkpoint"),
    ("models.load_checkpoint", "forecast_uq.models", "load_checkpoint"),
    ("selective.make_records", "forecast_uq.selective", "make_records"),
    ("selective.error_keep_curve", "forecast_uq.selective", "error_keep_curve"),
    ("selective.keep_grid_readout", "forecast_uq.selective", "keep_grid_readout"),
    ("selective.error_score_correlation", "forecast_uq.selective", "error_score_correlation"),
    ("selective.write_curve_csv", "forecast_uq.selective", "write_curve_csv"),
    ("selective.write_matrix_json", "forecast_uq.selective", "write_matrix_json"),
    ("selective.write_scatter_csv", "forecast_uq.selective", "write_scatter_csv"),
    ("cluster.kmeans", "forecast_uq.cluster", "kmeans"),
    ("cli.train_job", "forecast_uq.cli", "_train_job"),
)

LAYERS = ("cli", "data", "nn.tensor", "nn.layers", "nn.optim", "losses", "models", "selective", "cluster")


def layer_of(span_name: str) -> str:
    return span_name.rsplit(".", 1)[0]


# -- work counters, computed from arguments and results ----------------------


def _count_lstm_step(counters, args, kwargs, result):
    cell, h_prev = args[0], args[1]
    batch = h_prev.shape[0] if len(h_prev.shape) == 2 else 1
    hidden, inputs = cell.hidden_dim, cell.input_dim
    # four gate matmuls of (batch, hidden + inputs) @ (hidden + inputs, hidden)
    counters["lstm_flops"] += 8 * batch * (hidden + inputs) * hidden


def _count_mc_passes(counters, args, kwargs, result):
    counters["mc_passes"] += kwargs["n_samples"] if "n_samples" in kwargs else args[2]


def _count_records(counters, args, kwargs, result):
    counters["records"] += len(result)


def _count_kmeans(counters, args, kwargs, result):
    n, dim = args[0].shape
    k = kwargs["k"] if "k" in kwargs else args[1]
    counters["kmeans_iters"] += result.n_iter
    # one (n, k, dim) difference plus a multiply-add per distance evaluation:
    # once per Lloyd iteration and once for the final assignment
    counters["distance_flops"] += 3 * n * k * dim * (result.n_iter + 1)


COUNTERS = {
    "nn.layers.lstm_step": _count_lstm_step,
    "models.mc_dropout_predict": _count_mc_passes,
    "selective.make_records": _count_records,
    "cluster.kmeans": _count_kmeans,
}


class Tracer:
    """Aggregated spans of one process, plus the spool of its job workers."""

    def __init__(self, spool_dir):
        self.spool_dir = str(spool_dir)
        self.owner = os.getpid()
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: Counter = Counter()
        self._stack: list[float] = []  # child time covered, per open span
        self._patches: list[tuple[object, str, object]] = []
        self._jobs_done = 0

    def reset(self) -> None:
        self.stats = {}
        self.counters = Counter()
        self._stack = []

    # spans -----------------------------------------------------------------

    def _open(self) -> float:
        self._stack.append(0.0)
        return perf_counter()

    def _close(self, name: str, start: float) -> None:
        duration = perf_counter() - start
        covered = self._stack.pop()
        if self._stack:
            self._stack[-1] += duration
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - covered

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span; used for the CLI stage boundaries."""
        start = self._open()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, start)

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        worker_job = name == "cli.train_job"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            in_worker = worker_job and os.getpid() != self.owner
            if in_worker:
                # a forked worker starts with a copy of the parent's state
                self.reset()
            start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, start)
            if count is not None:
                count(self.counters, args, kwargs, result)
            if in_worker:
                self._spool()
            return result

        return wrapper

    # patching --------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever forecast_uq looks it up."""
        for name, module_name, attr in TARGETS:
            module = sys.modules[module_name]
            owner_name, _, attr_name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr_name)
            wrapper = self._wrap(name, original)
            self._set(owner, attr_name, wrapper)
            if owner_name:
                continue  # a method is looked up through its class only
            for other_name, other in list(sys.modules.items()):
                if other is module or not other_name.startswith("forecast_uq"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._set(other, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # worker spool ----------------------------------------------------------

    def _spool(self) -> None:
        self._jobs_done += 1
        path = os.path.join(self.spool_dir, f"{os.getpid()}-{self._jobs_done}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"stats": self.stats, "counters": self.counters}, fh)
        self.reset()

    def merge_spool(self) -> int:
        """Add the workers' spooled aggregates to this process; returns files merged."""
        names = sorted(os.listdir(self.spool_dir))
        for name in names:
            path = os.path.join(self.spool_dir, name)
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            os.remove(path)
            for span, (calls, total, self_time) in doc["stats"].items():
                entry = self.stats.setdefault(span, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += self_time
            self.counters.update(doc["counters"])
        return len(names)

