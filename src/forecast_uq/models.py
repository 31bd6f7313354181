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

from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset, split
from .documents import check_kinds, load_json, write_json
from .exceptions import ConfigError, ShapeError, TrainingError
from .losses import DEFAULT_SCALE_FLOOR, elu_plus_one, laplace_nll, mae_loss
from .nn.layers import DenseLayer, LstmCell, dense_chain
from .nn.optim import Adam
from .nn.tensor import GradientTape, Tensor, concat

__all__ = [
    "BACKBONES",
    "BASELINES",
    "MC_DROPOUT_P",
    "Model",
    "ModelSpec",
    "TrainConfig",
    "UNCERTAINTIES",
    "baseline_predict",
    "build",
    "forecast",
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

# (backbone, desk) -> (layer_sizes, head_size) of the two standard profiles
_PROFILES = {
    ("dense", False): ((128, 64), 0),
    ("lstm", False): ((128, 128), 128),
    ("dense", True): ((32, 16), 0),
    ("lstm", True): ((32, 32), 32),
}


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
        check_kinds(self)
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
    ) -> "ModelSpec":
        # an unknown backbone gets no sizes, and the constructor names it
        sizes, head = _PROFILES.get((backbone, bool(desk)), ((), 0))
        dropout_p = MC_DROPOUT_P if uncertainty == "mc_dropout" else 0.0
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
        check_kinds(self)
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be at least 1")
        if self.patience < 1:
            raise ConfigError("patience must be at least 1")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ConfigError("validation_fraction must be in (0, 1)")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        for name in ("learning_rate", "eps"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1)")


def _dropout_mask(
    shape: tuple[int, ...], p: float, rng: np.random.Generator | None
) -> np.ndarray | None:
    """An inverted-dropout mask, which scales the survivors so the expectation is unchanged."""
    if p <= 0.0:
        return None
    return (rng.random(shape) >= p).astype(np.float64) / (1.0 - p)


def _named(**parts) -> dict[str, Tensor]:
    """Each part's parameters as ``<key>.<name>``, in order; a tensor part is named ``<key>``, a None part skipped."""
    named = {}
    for key, part in parts.items():
        if isinstance(part, Tensor):
            named[key] = part
        elif part is not None:
            named.update({f"{key}.{name}": p for name, p in part.parameters().items()})
    return named


class _Tower:
    def forward(self, x: np.ndarray, dropout_p: float = 0.0, rng=None) -> Tensor:
        """The dropout-free ``trunk``, then the ``tail``, which draws every dropout mask."""
        return self.tail(self.trunk(x), x, dropout_p, rng)


class _DenseTower(_Tower):
    """Hidden relu layers of ``spec.layer_sizes`` plus a 1-unit identity output layer."""

    def __init__(self, spec: ModelSpec, rng: np.random.Generator):
        widths = (spec.input_dim, *spec.layer_sizes)
        self.hidden = [DenseLayer.create(a, b, "relu", rng) for a, b in zip(widths, widths[1:])]
        self.out = DenseLayer.create(widths[-1], 1, "identity", rng)

    def trunk(self, x: np.ndarray) -> Tensor:
        """The first hidden layer: everything before the first dropout mask."""
        # no dropout here, so the MC-dropout passes can share one trunk
        return dense_chain(x, self.hidden[:1], (None,))

    def tail(self, z: Tensor, x: np.ndarray, dropout_p: float = 0.0, rng=None) -> Tensor:
        """The rest of ``forward`` from trunk output ``z``: a mask after each hidden layer."""
        # every mask is drawn before any layer runs, in the order a layer-by-layer pass draws them
        rows = z.shape[0]
        masks = [
            _dropout_mask((rows, layer.weights.shape[0]), dropout_p, rng) for layer in self.hidden
        ]
        return dense_chain(z, [*self.hidden[1:], self.out], masks)

    def parameters(self) -> dict[str, Tensor]:
        return _named(**{f"layer{i}": layer for i, layer in enumerate(self.hidden)}, out=self.out)


class _LstmTower(_Tower):
    """Stacked LSTM cells of ``spec.layer_sizes`` over the normalized values, then a dense head.

    The series part of the input feeds the stack one value per step; the
    (mean, std) attributes join the final hidden state before the head,
    so the recurrent layers see shape and the head still sees scale.
    """

    def __init__(self, spec: ModelSpec, rng: np.random.Generator):
        self.input_dim = spec.input_dim
        widths = (1, *spec.layer_sizes)
        self.cells = [LstmCell.create(a, b, rng) for a, b in zip(widths, widths[1:])]
        self.head = DenseLayer.create(widths[-1] + 2, spec.head_size, "relu", rng)
        self.out = DenseLayer.create(spec.head_size, 1, "identity", rng)

    def trunk(self, x: np.ndarray) -> Tensor:
        """The cell stack's final hidden state: everything before the first dropout mask."""
        # The recurrence holds no dropout, so MC-dropout passes share one run of
        # it; dropout inside the recurrence would move this split point.
        seq = np.ascontiguousarray(x[:, : self.input_dim - 2].T)[:, :, None]
        for cell in self.cells[:-1]:
            seq = cell.run(seq, return_sequence=True)
        return self.cells[-1].run(seq)

    def tail(self, z: Tensor, x: np.ndarray, dropout_p: float = 0.0, rng=None) -> Tensor:
        """The rest of ``forward`` from trunk output ``z``: masks before and after the head."""
        # the masks are drawn in a layer-by-layer pass's order; (mean, std) pass the first unscaled
        before = _dropout_mask(z.shape, dropout_p, rng)
        after = _dropout_mask((len(x), self.head.weights.shape[0]), dropout_p, rng)
        if before is not None:
            before = np.hstack([before, np.ones((len(x), 2))])
        h = concat([z, Tensor(x[:, self.input_dim - 2 :])], axis=1)
        return dense_chain(h, [self.head, self.out], [before, after])

    def parameters(self) -> dict[str, Tensor]:
        return _named(**{f"lstm{i}": cell for i, cell in enumerate(self.cells)}, head=self.head, out=self.out)


@dataclass
class Model:
    """A forecast tower, plus a scale tower (heteroscedastic) or a shared scale ``scale_pre`` (homoscedastic)."""

    spec: ModelSpec
    forecast_tower: object
    scale_tower: object | None
    scale_pre: Tensor | None
    seed: int

    def parameters(self) -> dict[str, Tensor]:
        return _named(forecast_tower=self.forecast_tower, scale_tower=self.scale_tower, scale_pre=self.scale_pre)

    def forward_scale(self, x: np.ndarray) -> Tensor | None:
        """Positive noise scale as a tensor; None for a model with neither scale part."""
        if self.scale_tower is not None:
            pre = self.scale_tower.forward(x)
        elif self.scale_pre is not None:
            pre = self.scale_pre
        else:
            return None
        return elu_plus_one(pre).clip_min(DEFAULT_SCALE_FLOOR)


def build(spec: ModelSpec, seed: int = 0) -> Model:
    """Initialize a model, turning its uncertainty kind into parts; same (spec, seed) gives identical parameters."""
    rng = np.random.default_rng(seed)
    tower = _DenseTower if spec.backbone == "dense" else _LstmTower
    forecast_tower = tower(spec, rng)
    scale_tower = tower(spec, rng) if spec.uncertainty == "heteroscedastic" else None
    # pre-activation 0 puts the shared scale at exactly 1.0 initially
    scale_pre = Tensor(np.zeros((1, 1)), requires_grad=True) if spec.uncertainty == "homoscedastic" else None
    model = Model(spec, forecast_tower, scale_tower, scale_pre, seed)
    for name, p in model.parameters().items():
        p.name = name  # so training errors name the parameter
    return model


def _as_batch(x, input_dim: int) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != input_dim:
        raise ShapeError(f"expected an (N, {input_dim}) batch, got shape {arr.shape}")
    bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
    if bad.size:
        raise ValueError(f"features must be finite, row {bad[0]} is not")
    return arr


def predict(model: Model, x):
    """Deterministic forecast of an (N, input_dim) batch; returns (y_hat, scales).

    Both are (N,) arrays; ``scales`` is None for models without a scale.
    One sample is a one-row batch.
    """
    batch = _as_batch(x, model.spec.input_dim)
    mu = model.forecast_tower.forward(batch).data.ravel()
    scale_t = model.forward_scale(batch)
    if scale_t is None:
        return mu, None
    return mu, np.broadcast_to(scale_t.data.ravel(), mu.shape).copy()


def mc_dropout_predict(model: Model, x, n_samples: int, seed: int = 0):
    """Mean and spread of repeated stochastic passes with dropout active.

    ``x`` is an (N, input_dim) batch; both results are (N,) arrays. With
    dropout_p = 0 every pass is the plain forward, so the spread is
    exactly zero. Std is the population (divide-by-n) convention. The
    tower's dropout-free trunk runs once and every pass reuses it, which
    gives the same bits as ``n_samples`` full ``forward`` passes.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    batch = _as_batch(x, model.spec.input_dim)
    rng = np.random.default_rng(seed)
    tower = model.forecast_tower
    z = tower.trunk(batch)
    samples = np.stack(
        [
            tower.tail(z, batch, model.spec.dropout_p, rng).data.ravel()
            for _ in range(n_samples)
        ]
    )
    return samples.mean(axis=0), samples.std(axis=0)


def forecast(model: Model, x, mc_samples: int):
    """A model's (y_hat, scale, scores) for an (N, input_dim) batch, each array (N,).

    ``scale`` is None for point and MC dropout; ``scores`` maps ``predicted_scale`` or ``mc_std``
    (``mc_samples`` passes seeded by ``model.seed``). Non-finite values raise a ValueError.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is named below
        if model.spec.uncertainty == "mc_dropout":
            y_hat, spread = mc_dropout_predict(model, x, mc_samples, seed=model.seed)
            scale, scores = None, {"mc_std": spread}
        else:
            y_hat, scale = predict(model, x)
            scores = {} if model.scale_tower is None else {"predicted_scale": scale}
    for name, values in (("y_hat", y_hat), ("scale", scale), *scores.items()):
        if values is not None and not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite, series {np.isfinite(values).argmin()} is not")
    return y_hat, scale, scores


def baseline_predict(kind: str, values) -> np.ndarray:
    """Naive forecast of each raw window (last axis) in ``values``."""
    values = np.asarray(values, dtype=np.float64)
    if kind == "mean":
        return values.mean(axis=-1)
    if kind == "zero":
        return np.zeros(values.shape[:-1])
    if kind == "last":
        return values[..., -1].copy()
    raise ValueError(f"unknown baseline {kind!r}, expected one of {BASELINES}")


def input_variance_score(values) -> np.ndarray:
    """Population variance of each raw window (last axis), a scale-sensitive proxy score."""
    return np.asarray(values, dtype=np.float64).var(axis=-1)


def _batch_loss(model: Model, x: np.ndarray, y: np.ndarray, training: bool, rng):
    dropout_p = model.spec.dropout_p if training else 0.0
    mu = model.forecast_tower.forward(x, dropout_p, rng)
    targets = Tensor(y[:, None])
    scales = model.forward_scale(x)
    if scales is None:
        return mae_loss(targets, mu)
    return laplace_nll(targets, mu, scales) / float(len(y))


def train(model: Model, dataset: Dataset, config: TrainConfig) -> tuple[Model, dict]:
    """Mini-batch Adam with early stopping on a held-out validation split.

    Returns the model carrying the best-validation-epoch parameters and
    a history dict with per-epoch mean losses (per-sample scale).
    A non-finite number ends training as a ``TrainingError`` naming the epoch, without numpy warnings.
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

    values = list(model.parameters().values())
    optimizer = Adam(values, lr=config.learning_rate, beta1=config.beta1, beta2=config.beta2, eps=config.eps)
    rng = np.random.default_rng(config.seed)
    n = len(y_train)

    best_val = np.inf
    best_epoch = 0
    best_state = optimizer.flat.copy()  # every parameter is a view into this buffer
    history = {"train_loss": [], "validation_loss": []}

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # the checks below name a non-finite number
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
                best_state = optimizer.flat.copy()
            elif epoch - best_epoch >= config.patience:
                break

    optimizer.flat[...] = best_state
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
        check_kinds(self)
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

    def __post_init__(self):
        check_kinds(self)
        if self.rng_seed < 0:
            raise ConfigError("rng_seed must be non-negative")
        if self.schema_version != 1:
            raise ConfigError(f"unsupported checkpoint schema_version {self.schema_version}")


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
    write_json(path, doc)


def load_checkpoint(path) -> Model:
    doc = load_json(path, _Checkpoint)
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
