"""Forecasting model zoo: point, homoscedastic, heteroscedastic, MC dropout.

Every model predicts the next raw value of a series from its feature
vector. The uncertainty variants differ in how they produce a score:

* ``point``            no score; plain MAE training.
* ``homoscedastic``    one trainable noise scale shared by all inputs.
* ``heteroscedastic``  a second tower maps each input to its own scale.
* ``mc_dropout``       dropout kept active at prediction time; the
                       spread of repeated stochastic passes is the score.

The heteroscedastic model's two towers (mean and scale) share the input
but no parameters, and are optimized jointly under the Laplace negative
log likelihood. Trivial baselines (mean / zero / last) and the input
variance score live here too so evaluation can rank everything through
one interface.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset, split
from .documents import load_json
from .exceptions import ConfigError, ShapeError, TrainingError
from .losses import (
    DEFAULT_ALPHA,
    DEFAULT_SCALE_FLOOR,
    ScaleSpec,
    elu_plus_one,
    laplace_nll,
    mae_loss,
)
from .nn import Adam, DenseLayer, GradientTape, LstmCell, Tensor, concat

__all__ = [
    "BACKBONES",
    "BASELINES",
    "MC_DROPOUT_P",
    "Model",
    "ModelSpec",
    "TrainConfig",
    "baseline_predict",
    "build",
    "input_variance_score",
    "load_checkpoint",
    "mc_dropout_predict",
    "predict",
    "save_checkpoint",
    "train",
]

BACKBONES = ("dense", "lstm")
UNCERTAINTIES = ("point", "homoscedastic", "heteroscedastic", "mc_dropout")
BASELINES = ("mean", "zero", "last")

MC_DROPOUT_P = 0.5

_FULL_DENSE_SIZES = (128, 64)
_FULL_LSTM_SIZES = (128, 128)
_FULL_LSTM_HEAD = 128
_DESK_DENSE_SIZES = (32, 16)
_DESK_LSTM_SIZES = (32, 32)
_DESK_LSTM_HEAD = 32


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; ``default`` gives the standard profiles.

    ``layer_sizes`` are dense hidden widths for the dense backbone and
    stacked cell widths for the LSTM backbone; ``head_size`` is the
    dense layer after the LSTM stack (0 for the dense backbone).
    """

    backbone: str
    uncertainty: str
    input_dim: int
    layer_sizes: tuple[int, ...]
    head_size: int = 0
    dropout_p: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in self.layer_sizes))
        if self.backbone not in BACKBONES:
            raise ConfigError(f"unknown backbone {self.backbone!r}")
        if self.uncertainty not in UNCERTAINTIES:
            raise ConfigError(f"unknown uncertainty {self.uncertainty!r}")
        if not self.layer_sizes or any(s < 1 for s in self.layer_sizes):
            raise ConfigError("layer_sizes must be positive integers")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError("dropout_p must be in [0, 1)")
        if self.backbone == "dense":
            if self.input_dim < 1:
                raise ConfigError("dense backbone needs input_dim >= 1")
            if self.head_size != 0:
                raise ConfigError("head_size applies only to the lstm backbone")
        else:
            # lstm consumes input as (series of input_dim - 2 steps, mean, std)
            if self.input_dim < 3:
                raise ConfigError("lstm backbone needs input_dim >= 3")
            if self.head_size < 1:
                raise ConfigError("lstm backbone needs head_size >= 1")

    @classmethod
    def default(
        cls,
        backbone: str,
        uncertainty: str,
        input_dim: int,
        desk: bool = False,
        dropout_p: float | None = None,
    ) -> "ModelSpec":
        if dropout_p is None:
            dropout_p = MC_DROPOUT_P if uncertainty == "mc_dropout" else 0.0
        if backbone == "dense":
            sizes = _DESK_DENSE_SIZES if desk else _FULL_DENSE_SIZES
            return cls(backbone, uncertainty, input_dim, sizes, 0, dropout_p)
        sizes = _DESK_LSTM_SIZES if desk else _FULL_LSTM_SIZES
        head = _DESK_LSTM_HEAD if desk else _FULL_LSTM_HEAD
        return cls(backbone, uncertainty, input_dim, sizes, head, dropout_p)


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 800
    patience: int = 20
    validation_fraction: float = 0.1
    batch_size: int = 256
    seed: int = 0
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be at least 1")
        if self.patience < 1:
            raise ConfigError("patience must be at least 1")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ConfigError("validation_fraction must be in (0, 1)")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.learning_rate <= 0.0:
            raise ConfigError("learning_rate must be positive")


def _dropout_mask(rng: np.random.Generator, shape, p: float) -> np.ndarray:
    # inverted dropout: scale the survivors so the expectation is unchanged
    return (rng.random(shape) >= p).astype(np.float64) / (1.0 - p)


class _DenseTower:
    """Hidden relu layers plus a 1-unit identity output layer."""

    def __init__(self, input_dim: int, sizes: tuple[int, ...], rng: np.random.Generator):
        self.hidden = []
        prev = input_dim
        for width in sizes:
            self.hidden.append(DenseLayer.create(prev, width, "relu", rng))
            prev = width
        self.out = DenseLayer.create(prev, 1, "identity", rng)

    def forward(self, x: np.ndarray, dropout_p: float = 0.0, rng=None) -> Tensor:
        h = Tensor(x)
        for layer in self.hidden:
            h = layer.forward(h)
            if dropout_p > 0.0:
                h = h * Tensor(_dropout_mask(rng, h.shape, dropout_p))
        return self.out.forward(h)

    def parameters(self) -> dict[str, Tensor]:
        named = {}
        for i, layer in enumerate(self.hidden):
            for key, value in layer.parameters().items():
                named[f"layer{i}.{key}"] = value
        for key, value in self.out.parameters().items():
            named[f"out.{key}"] = value
        return named


class _LstmTower:
    """Stacked LSTM cells over the normalized values, then a dense head.

    The series part of the input feeds the stack one value per step; the
    (mean, std) attributes join the final hidden state before the head,
    so the recurrent layers see shape and the head still sees scale.
    """

    def __init__(self, input_dim: int, sizes: tuple[int, ...], head_size: int, rng):
        self.input_dim = input_dim
        self.cells = []
        prev = 1
        for width in sizes:
            self.cells.append(LstmCell.create(prev, width, rng))
            prev = width
        self.head = DenseLayer.create(prev + 2, head_size, "relu", rng)
        self.out = DenseLayer.create(head_size, 1, "identity", rng)

    def forward(self, x: np.ndarray, dropout_p: float = 0.0, rng=None) -> Tensor:
        n_steps = self.input_dim - 2
        steps = [Tensor(x[:, i : i + 1]) for i in range(n_steps)]
        for cell in self.cells[:-1]:
            steps = cell.run(steps, return_sequence=True)
        h = self.cells[-1].run(steps)
        if dropout_p > 0.0:
            h = h * Tensor(_dropout_mask(rng, h.shape, dropout_p))
        a = self.head.forward(concat([h, Tensor(x[:, n_steps:])], axis=1))
        if dropout_p > 0.0:
            a = a * Tensor(_dropout_mask(rng, a.shape, dropout_p))
        return self.out.forward(a)

    def parameters(self) -> dict[str, Tensor]:
        named = {}
        for i, cell in enumerate(self.cells):
            for key, value in cell.parameters().items():
                named[f"lstm{i}.{key}"] = value
        for key, value in self.head.parameters().items():
            named[f"head.{key}"] = value
        for key, value in self.out.parameters().items():
            named[f"out.{key}"] = value
        return named


@dataclass
class Model:
    spec: ModelSpec
    forecast_tower: object
    scale_tower: object | None
    scale_pre: Tensor | None
    scale: ScaleSpec
    seed: int

    def parameters(self) -> dict[str, Tensor]:
        named = {f"forecast_tower.{k}": v for k, v in self.forecast_tower.parameters().items()}
        if self.scale_tower is not None:
            named.update({f"scale_tower.{k}": v for k, v in self.scale_tower.parameters().items()})
        if self.scale_pre is not None:
            named["scale_pre"] = self.scale_pre
        return named

    def forward_mean(self, x: np.ndarray, dropout_p: float = 0.0, rng=None) -> Tensor:
        return self.forecast_tower.forward(x, dropout_p, rng)

    def forward_scale(self, x: np.ndarray) -> Tensor | None:
        """Positive noise scale for the active uncertainty mode, as a tensor."""
        if self.scale.mode == "homoscedastic":
            pre = self.scale_pre
        elif self.scale.mode == "heteroscedastic":
            pre = self.scale_tower.forward(x)
        else:
            return None
        return elu_plus_one(pre, self.scale.alpha).clip_min(self.scale.floor)


def build(spec: ModelSpec, seed: int = 0) -> Model:
    """Initialize a model; same (spec, seed) gives identical parameters."""
    rng = np.random.default_rng(seed)

    def tower():
        if spec.backbone == "dense":
            return _DenseTower(spec.input_dim, spec.layer_sizes, rng)
        return _LstmTower(spec.input_dim, spec.layer_sizes, spec.head_size, rng)

    forecast_tower = tower()
    scale_tower = tower() if spec.uncertainty == "heteroscedastic" else None
    scale_pre = None
    if spec.uncertainty == "homoscedastic":
        # pre-activation 0 puts the shared scale at exactly 1.0 initially
        scale_pre = Tensor(np.zeros((1, 1)), requires_grad=True)
    mode = {
        "point": "none",
        "mc_dropout": "none",
        "homoscedastic": "homoscedastic",
        "heteroscedastic": "heteroscedastic",
    }[spec.uncertainty]
    scale = ScaleSpec(mode=mode, alpha=DEFAULT_ALPHA, floor=DEFAULT_SCALE_FLOOR)
    model = Model(spec=spec, forecast_tower=forecast_tower, scale_tower=scale_tower, scale_pre=scale_pre, scale=scale, seed=seed)
    for name, p in model.parameters().items():
        p.name = name  # so training errors name the parameter
    return model


def _as_batch(x, input_dim: int) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr, single = arr[None, :], True
    else:
        single = False
    if arr.ndim != 2 or arr.shape[1] != input_dim:
        raise ShapeError(f"expected inputs of dimension {input_dim}, got shape {arr.shape}")
    bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
    if bad.size:
        raise ValueError(f"features must be finite, row {bad[0]} is not")
    return arr, single


def predict(model: Model, x):
    """Deterministic forecast; returns (y_hat, scale or None).

    ``x`` is one (input_dim,) feature vector or an (N, input_dim)
    matrix; a vector in gives scalars out.
    """
    batch, single = _as_batch(x, model.spec.input_dim)
    mu = model.forward_mean(batch).data.ravel()
    scale_t = model.forward_scale(batch)
    if scale_t is None:
        scales = None
    else:
        scales = np.broadcast_to(scale_t.data.ravel(), mu.shape).copy()
    if single:
        return float(mu[0]), (None if scales is None else float(scales[0]))
    return mu, scales


def mc_dropout_predict(model: Model, x, n_samples: int, seed: int = 0):
    """Mean and spread of repeated stochastic passes with dropout active.

    With dropout_p = 0 every pass is the plain forward, so the spread is
    exactly zero. Std is the population (divide-by-n) convention.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    batch, single = _as_batch(x, model.spec.input_dim)
    rng = np.random.default_rng(seed)
    samples = np.stack(
        [
            model.forward_mean(batch, model.spec.dropout_p, rng).data.ravel()
            for _ in range(n_samples)
        ]
    )
    mean = samples.mean(axis=0)
    std = samples.std(axis=0)
    if single:
        return float(mean[0]), float(std[0])
    return mean, std


def baseline_predict(kind: str, values) -> np.ndarray:
    """Naive forecast of each raw window (last axis) in ``values``."""
    values = np.asarray(values, dtype=np.float64)
    if kind == "mean":
        return values.mean(axis=-1)
    if kind == "zero":
        return np.zeros(values.shape[:-1])
    if kind == "last":
        return values[..., -1]
    raise ValueError(f"unknown baseline {kind!r}, expected one of {BASELINES}")


def input_variance_score(values) -> np.ndarray:
    """Population variance of each raw window (last axis), a scale-sensitive proxy score."""
    return np.asarray(values, dtype=np.float64).var(axis=-1)


def _batch_loss(model: Model, x: np.ndarray, y: np.ndarray, training: bool, rng):
    dropout_p = model.spec.dropout_p if training else 0.0
    mu = model.forward_mean(x, dropout_p, rng)
    targets = Tensor(y[:, None])
    if model.scale.mode == "none":
        return mae_loss(targets, mu)
    scales = model.forward_scale(x)
    return laplace_nll(targets, mu, scales) / float(len(y))


def train(model: Model, dataset: Dataset, config: TrainConfig) -> tuple[Model, dict]:
    """Mini-batch Adam with early stopping on a held-out validation split.

    Returns the model carrying the best-validation-epoch parameters and
    a history dict with per-epoch mean losses (per-sample scale).
    """
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    train_ds, val_ds = split(dataset, config.validation_fraction, config.seed)
    x_train, y_train = train_ds.x, train_ds.y
    x_val, y_val = val_ds.x, val_ds.y
    if x_train.shape[1] != model.spec.input_dim:
        raise ShapeError(
            f"model expects input_dim {model.spec.input_dim}, data has {x_train.shape[1]}"
        )

    params = model.parameters()
    values = list(params.values())
    optimizer = Adam(
        values,
        lr=config.learning_rate,
        beta1=config.beta1,
        beta2=config.beta2,
        eps=config.eps,
    )
    rng = np.random.default_rng(config.seed)
    n = len(y_train)

    best_val = np.inf
    best_epoch = 0
    best_state = {name: p.data.copy() for name, p in params.items()}
    history = {"train_loss": [], "validation_loss": []}

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n)
        epoch_total = 0.0
        for batch_index, start in enumerate(range(0, n, config.batch_size)):
            rows = order[start : start + config.batch_size]
            with GradientTape() as tape:
                loss = _batch_loss(model, x_train[rows], y_train[rows], True, rng)
            loss_value = float(loss.data)
            if not np.isfinite(loss_value):
                raise TrainingError(
                    f"non-finite training loss at epoch {epoch}, batch {batch_index}"
                )
            try:
                optimizer.step(tape.gradients(loss, values))
            except TrainingError as exc:
                raise TrainingError(f"epoch {epoch}, batch {batch_index}: {exc}") from None
            epoch_total += loss_value * len(rows)
        history["train_loss"].append(epoch_total / n)

        val_loss = float(_batch_loss(model, x_val, y_val, False, None).data)
        if not np.isfinite(val_loss):
            raise TrainingError(f"non-finite validation loss at epoch {epoch}")
        history["validation_loss"].append(val_loss)

        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_state = {name: p.data.copy() for name, p in params.items()}
        elif epoch - best_epoch >= config.patience:
            break

    for name, p in params.items():
        p.data[...] = best_state[name]
    history["best_epoch"] = best_epoch
    history["best_validation_loss"] = best_val
    history["epochs_run"] = len(history["train_loss"])
    history["seed"] = config.seed
    return model, history


# -- checkpoints ---------------------------------------------------------------


@dataclass(frozen=True)
class _SavedParameter:
    """One parameter array as saved: its shape and its values in C order."""

    shape: tuple[int, ...]
    data: list

    def __post_init__(self):
        data = np.asarray(self.data)  # the loader adds the path to a ValueError
        # numpy reads [0.5, true] as [0.5, 1.0], so booleans are looked for in the list
        numeric = data.dtype.kind in "iuf" and bool not in map(type, self.data)
        if data.ndim != 1 or not numeric or not np.isfinite(data).all():
            raise ConfigError("data must be a flat list of finite numbers")
        object.__setattr__(self, "data", data.astype(np.float64))


@dataclass(frozen=True)
class _Checkpoint:
    """The checkpoint document ``save_checkpoint`` writes."""

    schema_version: int
    architecture: ModelSpec
    parameters: dict[str, _SavedParameter]
    rng_seed: int
    training_config: TrainConfig | None


def save_checkpoint(model: Model, path, training_config: TrainConfig | None = None) -> None:
    """One JSON document: architecture, named flat parameter arrays, seed."""
    doc = {
        "schema_version": 1,
        "architecture": asdict(model.spec),
        "parameters": {
            name: {"shape": list(p.data.shape), "data": p.data.ravel().tolist()}
            for name, p in model.parameters().items()
        },
        "rng_seed": model.seed,
        "training_config": None if training_config is None else asdict(training_config),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def load_checkpoint(path) -> Model:
    doc = load_json(path, _Checkpoint)
    if doc.schema_version != 1:
        raise ConfigError(f"{path}: unsupported checkpoint schema_version {doc.schema_version}")
    model = build(doc.architecture, seed=doc.rng_seed)
    params = model.parameters()
    if set(doc.parameters) != set(params):
        raise ConfigError(f"{path}.parameters: names do not match the architecture")
    for name, p in params.items():
        saved = doc.parameters[name]
        if saved.shape != p.data.shape or saved.data.size != p.data.size:
            raise ConfigError(f"{path}: parameter {name} does not fit shape {list(p.data.shape)}")
        p.data[...] = saved.data.reshape(saved.shape)
    return model
