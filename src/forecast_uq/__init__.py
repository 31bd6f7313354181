"""Uncertainty-aware forecasting for short, noisy monthly series.

Train small dense or LSTM networks that output a Laplace predictive
distribution (point forecast plus noise scale), then use the scale as a
confidence score to decline the hardest forecasts. Includes a synthetic
generator with ground-truth noise scales, selective-prediction
evaluation, and a command line pipeline.
"""

from .cluster import ClusterResult, kmeans
from .data import (
    DEFAULT_STD_THRESHOLD,
    Dataset,
    GeneratorConfig,
    RawSeries,
    center_scale_normalize,
    featurize,
    generate_synthetic,
    make_dataset,
    read_series_csv,
    split,
    write_series_csv,
)
from .exceptions import ConfigError, ShapeError, TrainingError
from .losses import (
    DEFAULT_ALPHA,
    DEFAULT_SCALE_FLOOR,
    elu_plus_one,
    laplace_likelihood,
    laplace_nll,
    mae_loss,
)
from .models import (
    BACKBONES,
    BASELINES,
    MC_DROPOUT_P,
    Model,
    ModelSpec,
    TrainConfig,
    baseline_predict,
    build,
    input_variance_score,
    load_checkpoint,
    mc_dropout_predict,
    predict,
    save_checkpoint,
    train,
)
from .selective import (
    KEEP_GRID,
    ErrorKeepCurve,
    PredictionRecords,
    error_keep_curve,
    error_score_correlation,
    keep_grid_readout,
    mae_at_keep,
    mae_at_threshold,
    make_records,
    read_curve_csv,
    write_curve_csv,
    write_matrix_json,
    write_scatter_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BACKBONES",
    "BASELINES",
    "ClusterResult",
    "ConfigError",
    "DEFAULT_ALPHA",
    "DEFAULT_SCALE_FLOOR",
    "DEFAULT_STD_THRESHOLD",
    "Dataset",
    "ErrorKeepCurve",
    "GeneratorConfig",
    "KEEP_GRID",
    "MC_DROPOUT_P",
    "Model",
    "ModelSpec",
    "PredictionRecords",
    "RawSeries",
    "ShapeError",
    "TrainConfig",
    "TrainingError",
    "baseline_predict",
    "build",
    "center_scale_normalize",
    "elu_plus_one",
    "error_keep_curve",
    "error_score_correlation",
    "featurize",
    "generate_synthetic",
    "input_variance_score",
    "keep_grid_readout",
    "kmeans",
    "laplace_likelihood",
    "laplace_nll",
    "load_checkpoint",
    "mae_at_keep",
    "mae_at_threshold",
    "mae_loss",
    "make_dataset",
    "make_records",
    "mc_dropout_predict",
    "predict",
    "read_curve_csv",
    "read_series_csv",
    "save_checkpoint",
    "split",
    "train",
    "write_curve_csv",
    "write_matrix_json",
    "write_scatter_csv",
    "write_series_csv",
]
