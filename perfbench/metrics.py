"""Metric definitions and the per-layer readout of a traced pipeline.

``END_TO_END`` and ``PER_LAYER`` are the source of ``BENCHMARK.json``'s
metric lists; a test keeps the two equal. Each per-layer comment names the
end-to-end metric the layer should move, and on which workload.
"""

from __future__ import annotations

from tracer import LAYERS, layer_of

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("pipeline_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("keep25_mae_ratio", "ratio", "lower", 0.25),
    ("scale_rho", "rho", "higher", 0.2),
)

# name, unit, better
PER_LAYER = (
    # stage walls: pipeline_s where the stage dominates
    ("cli.generate_s", "s", "lower"),
    ("cli.train_s", "s", "lower"),
    ("cli.evaluate_s", "s", "lower"),
    ("cli.cluster_s", "s", "lower"),
    # busy time of the train jobs / (jobs x cli.train_s): pipeline_s on dense-grid
    ("cli.train_parallel_eff", "ratio", "higher"),
    # pipeline_s on eval-wide and dense-grid; make_dataset also peak_rss_mb on eval-wide
    ("data.generate_synthetic_s", "s", "lower"),
    ("data.write_series_csv_s", "s", "lower"),
    ("data.read_series_csv_s", "s", "lower"),
    ("data.make_dataset_s", "s", "lower"),
    ("data.read_series_csv_calls", "count", "lower"),
    # GradientTape.gradients: pipeline_s on dense-grid and lstm-mc
    ("tensor.backward_s", "s", "lower"),
    ("tensor.backward_calls", "count", "lower"),
    # dense: pipeline_s on dense-grid; lstm: pipeline_s on lstm-mc. The GFLOP/s
    # metrics here and under cluster are computed: matmul or distance flops
    # from the argument shapes, divided by the span time; no hardware counter.
    ("layers.dense_forward_s", "s", "lower"),
    ("layers.dense_forward_calls", "count", "lower"),
    ("layers.lstm_step_s", "s", "lower"),
    ("layers.lstm_step_calls", "count", "lower"),
    ("layers.lstm_gflop_s", "GFLOP/s", "higher"),
    # pipeline_s on dense-grid
    ("optim.adam_step_s", "s", "lower"),
    ("optim.adam_steps", "count", "lower"),
    ("losses.loss_s", "s", "lower"),
    ("models.train_self_s", "s", "lower"),
    # pipeline_s on lstm-mc
    ("models.mc_dropout_predict_s", "s", "lower"),
    ("models.mc_passes", "count", "lower"),
    # small everywhere; should stay flat
    ("models.predict_s", "s", "lower"),
    ("models.checkpoint_s", "s", "lower"),
    # pipeline_s and peak_rss_mb on eval-wide
    ("selective.make_records_s", "s", "lower"),
    ("selective.records", "count", "lower"),
    ("selective.error_keep_curve_s", "s", "lower"),
    ("selective.curves", "count", "lower"),
    ("selective.keep_grid_readout_s", "s", "lower"),
    ("selective.correlation_s", "s", "lower"),
    ("selective.write_s", "s", "lower"),
    # pipeline_s on eval-wide
    ("cluster.kmeans_s", "s", "lower"),
    ("cluster.kmeans_iters", "count", "lower"),
    ("cluster.distance_gflop_s", "GFLOP/s", "higher"),
    # traced self time per layer, summed over the process and its jobs workers
    *((f"self.{layer}_s", "s", "lower") for layer in LAYERS),
    # traced pipeline wall; minus the untraced pipeline_s it is the tracing overhead
    ("trace.pipeline_s", "s", "lower"),
)

# metrics that are exact counts: they must repeat run to run on one seed
EXACT_COUNTS = tuple(name for name, unit, _ in PER_LAYER if unit == "count")


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_self_times(stats: dict, jobs: int) -> dict[str, float]:
    """Self time per layer, plus ``wait``: the parent idling on the job pool.

    With ``jobs > 1`` the train stage's own span in the parent process only
    waits for the workers, whose spans are merged in separately.
    """
    self_times = {layer: 0.0 for layer in LAYERS}
    self_times["wait"] = 0.0
    for name, (_calls, _total, self_time) in stats.items():
        layer = "wait" if name == "cli.train" and jobs > 1 else layer_of(name)
        self_times[layer] += self_time
    return self_times


def layer_metrics(stats: dict, counters: dict, walls: dict, jobs: int) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline iteration."""

    def total(*names):
        return sum(stats[n][1] for n in names if n in stats)

    def calls(name):
        return stats[name][0] if name in stats else 0

    def self_time(name):
        return stats[name][2] if name in stats else 0.0

    train_s = walls.get("train", 0.0)
    lstm_s = total("nn.layers.lstm_step")
    kmeans_s = total("cluster.kmeans")
    out = {
        "cli.generate_s": walls.get("generate", 0.0),
        "cli.train_s": train_s,
        "cli.evaluate_s": walls.get("evaluate", 0.0),
        "cli.cluster_s": walls.get("cluster", 0.0),
        "cli.train_parallel_eff": _ratio(total("cli.train_job"), jobs * train_s),
        "data.generate_synthetic_s": total("data.generate_synthetic"),
        "data.write_series_csv_s": total("data.write_series_csv"),
        "data.read_series_csv_s": total("data.read_series_csv"),
        "data.make_dataset_s": total("data.make_dataset"),
        "data.read_series_csv_calls": calls("data.read_series_csv"),
        "tensor.backward_s": total("nn.tensor.backward"),
        "tensor.backward_calls": calls("nn.tensor.backward"),
        "layers.dense_forward_s": total("nn.layers.dense_forward"),
        "layers.dense_forward_calls": calls("nn.layers.dense_forward"),
        "layers.lstm_step_s": lstm_s,
        "layers.lstm_step_calls": calls("nn.layers.lstm_step"),
        "layers.lstm_gflop_s": _ratio(counters.get("lstm_flops", 0) / 1e9, lstm_s),
        "optim.adam_step_s": total("nn.optim.adam_step"),
        "optim.adam_steps": calls("nn.optim.adam_step"),
        "losses.loss_s": total("losses.laplace_nll", "losses.mae_loss", "losses.elu_plus_one"),
        "models.train_self_s": self_time("models.train"),
        "models.mc_dropout_predict_s": total("models.mc_dropout_predict"),
        "models.mc_passes": counters.get("mc_passes", 0),
        "models.predict_s": total("models.predict"),
        "models.checkpoint_s": total("models.save_checkpoint", "models.load_checkpoint"),
        "selective.make_records_s": total("selective.make_records"),
        "selective.records": counters.get("records", 0),
        "selective.error_keep_curve_s": total("selective.error_keep_curve"),
        "selective.curves": calls("selective.error_keep_curve"),
        "selective.keep_grid_readout_s": total("selective.keep_grid_readout"),
        "selective.correlation_s": total("selective.error_score_correlation"),
        "selective.write_s": total(
            "selective.write_curve_csv", "selective.write_matrix_json", "selective.write_scatter_csv"
        ),
        "cluster.kmeans_s": kmeans_s,
        "cluster.kmeans_iters": counters.get("kmeans_iters", 0),
        "cluster.distance_gflop_s": _ratio(counters.get("distance_flops", 0) / 1e9, kmeans_s),
        "trace.pipeline_s": sum(walls.values()),
    }
    for layer, seconds in layer_self_times(stats, jobs).items():
        if layer != "wait":
            out[f"self.{layer}_s"] = seconds
    return out
