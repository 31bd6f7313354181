"""Selective prediction: trade error against the fraction of forecasts kept.

Given per-sample uncertainty scores (lower = more confident), a model
can decline to answer above a threshold. Sweeping the threshold maps out
an error-vs-keep curve; fixed keep fractions give comparable readouts
across models, and the rank correlation between scores and realized
errors measures whether the scores mean anything at all.

Keeping nothing leaves the error undefined, reported as NaN rather than
0 so an empty selection can never look perfect.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .documents import load_csv

__all__ = [
    "KEEP_GRID",
    "ErrorKeepCurve",
    "PredictionRecords",
    "error_keep_curve",
    "error_score_correlation",
    "keep_grid_readout",
    "mae_at_keep",
    "mae_at_threshold",
    "make_records",
    "read_curve_csv",
    "write_curve_csv",
    "write_matrix_json",
    "write_scatter_csv",
]

# Fixed readout fractions for side-by-side model tables.
KEEP_GRID = (0.25, 0.41, 0.5, 0.75, 0.995, 1.0)

_CURVE_COLUMNS = ("threshold", "keep_fraction", "mae", "n_kept")  # ErrorKeepCurve fields, CSV header


@dataclass(frozen=True)
class ErrorKeepCurve:
    """One curve point per threshold, as four equal-length arrays.

    ``mae`` is NaN where nothing is kept. The last point keeps every
    record, so ``n_kept[-1]`` is the number of records.
    """

    threshold: np.ndarray
    keep_fraction: np.ndarray
    mae: np.ndarray
    n_kept: np.ndarray


@dataclass(frozen=True)
class PredictionRecords:
    """N forecasts as arrays: realized |y_true - y_hat| and the uncertainty
    score (lower = more confident). Build with ``make_records``, which
    validates them."""

    abs_error: np.ndarray
    score: np.ndarray

    def __len__(self) -> int:
        return len(self.score)


def make_records(y_true, y_hat, scores) -> PredictionRecords:
    y_true = np.asarray(y_true, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if not y_true.shape == y_hat.shape == scores.shape or y_true.ndim != 1:
        raise ValueError("y_true, y_hat, scores must be equal-length vectors")
    if len(scores) == 0:
        raise ValueError("records must be nonempty")
    for name, values in (("y_true", y_true), ("y_hat", y_hat)):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValueError(f"{name} must be finite, got {values[bad[0]]} at index {bad[0]}")
    bad = np.flatnonzero(~(np.isfinite(scores) & (scores >= 0.0)))
    if bad.size:
        raise ValueError(f"score must be finite and nonnegative, got {scores[bad[0]]} at index {bad[0]}")
    return PredictionRecords(abs_error=np.abs(y_true - y_hat), score=scores)


def mae_at_threshold(records: PredictionRecords, threshold: float) -> tuple[float, float]:
    """MAE over the records with score strictly below threshold.

    Returns (mae, keep_fraction); mae is NaN when the threshold keeps
    nothing.
    """
    kept = records.score < threshold
    n_kept = int(kept.sum())
    if n_kept == 0:
        return math.nan, 0.0
    return float(records.abs_error[kept].mean()), n_kept / len(records)


def error_keep_curve(records: PredictionRecords, n_points: int = 50) -> ErrorKeepCurve:
    """Sweep thresholds over the observed scores (subsampled to n_points).

    The sweep always ends with an above-maximum threshold, so the last
    point keeps everything and its MAE is the plain MAE. Each point is a
    masked mean in input order, not a running sum over sorted errors, so
    its MAE is bit-identical to ``mae_at_threshold``.
    """
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    unique = np.unique(records.score)
    if len(unique) > n_points - 1:
        pick = np.linspace(0, len(unique) - 1, n_points - 1).round().astype(int)
        unique = unique[np.unique(pick)]
    thresholds = np.append(unique, math.inf)
    mae, keep = np.array([mae_at_threshold(records, t) for t in thresholds]).T
    n_kept = np.rint(keep * len(records)).astype(np.int64)
    return ErrorKeepCurve(threshold=thresholds, keep_fraction=keep, mae=mae, n_kept=n_kept)


def mae_at_keep(records: PredictionRecords, k_fraction: float) -> float:
    """MAE of the ceil(k*N) most-confident records.

    Rank-based: any strictly increasing transform of the scores selects
    the same records. Ties keep input order (stable sort).
    """
    return keep_grid_readout(records, (k_fraction,))[float(k_fraction)]


def keep_grid_readout(
    records: PredictionRecords, grid: Sequence[float] = KEEP_GRID
) -> dict[float, float]:
    """``mae_at_keep`` at every fraction of the grid, from one stable sort."""
    if not all(0.0 < k <= 1.0 for k in grid):
        raise ValueError("k_fraction must be in (0, 1]")
    ranked = records.abs_error[np.argsort(records.score, kind="stable")]
    return {float(k): float(ranked[: math.ceil(k * len(records))].mean()) for k in grid}


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the mean of their ranks (``scipy.stats.rankdata``'s "average")."""
    order = np.argsort(values)
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])  # first of each tie run
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)  # mean of starts+1 .. ends
    return ranks


def error_score_correlation(records: PredictionRecords):
    """Spearman rank correlation between |error| and score, plus the pairs.

    Returns (rho, scatter) where scatter is an (N, 2) array of
    (abs_error, score) rows for external plotting. Rho is the Pearson
    correlation of the average ranks, as ``scipy.stats.spearmanr`` computes
    it, and NaN when either side is constant (ranks undefined).
    """
    if len(records) < 3:
        raise ValueError("need at least 3 records for a rank correlation")
    errors, scores = records.abs_error, records.score
    scatter = np.column_stack([errors, scores])
    if np.all(errors == errors[0]) or np.all(scores == scores[0]):
        return math.nan, scatter
    rho = float(np.corrcoef(_average_ranks(errors), _average_ranks(scores))[0, 1])
    return rho, scatter


# -- file formats ------------------------------------------------------------


def write_curve_csv(curve: ErrorKeepCurve, path) -> None:
    rows = zip(*(getattr(curve, name).tolist() for name in _CURVE_COLUMNS))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_CURVE_COLUMNS) + "\n")
        fh.writelines(f"{t!r},{k!r},{m!r},{n}\n" for t, k, m, n in rows)


def read_curve_csv(path) -> ErrorKeepCurve:
    header, data = load_csv(path, "curve points")
    if tuple(header) != _CURVE_COLUMNS:
        raise ValueError(f"{path}: unexpected curve header {header}")
    threshold, keep_fraction, mae, n_kept = data.T
    if not (np.isfinite(n_kept) & (n_kept == np.rint(n_kept))).all():
        raise ValueError(f"{path}: n_kept must hold whole numbers")
    return ErrorKeepCurve(threshold, keep_fraction, mae, n_kept.astype(np.int64))


def write_scatter_csv(scatter: np.ndarray, path) -> None:
    """(abs_error, score) pairs; consumers typically plot both on log scales."""
    scatter = np.asarray(scatter, dtype=np.float64)
    if scatter.ndim != 2 or scatter.shape[1] != 2:
        raise ValueError(f"scatter must be (N, 2), got {scatter.shape}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("abs_error,score\n")
        fh.writelines(f"{err!r},{score!r}\n" for err, score in scatter.tolist())


def write_matrix_json(rows: dict, keep_grid: Sequence[float], path) -> None:
    """Comparison matrix: row name -> {keep K -> {mean, std, per_seed}}.

    Row names identify a (predictor, score) pair, e.g.
    "dense_heteroscedastic+predicted_scale". JSON keys are the grid
    fractions as strings.
    """
    doc = {
        "schema_version": 1,
        "keep_grid": [repr(float(k)) for k in keep_grid],
        "rows": {
            name: {repr(float(k)): cell for k, cell in row.items()}
            for name, row in rows.items()
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
