"""Seeded k-means over normalized series, for exploring shape families.

Plain Lloyd iterations with k-means++ seeding. Inputs are expected to be
normalized series (see ``center_scale_normalize``) so distances compare shapes
rather than monetary magnitudes, but nothing here enforces that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ClusterResult", "kmeans"]


@dataclass(frozen=True)
class ClusterResult:
    centroids: np.ndarray  # (k, T)
    assignments: np.ndarray  # (N,) ints, nearest centroid per series
    inertia: float
    n_iter: int


# Rows per distance block: bounds the (rows, k, T) difference temporary.
DISTANCE_BLOCK_ROWS = 1024


def _squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    out = np.empty((points.shape[0], centroids.shape[0]))
    for start in range(0, points.shape[0], DISTANCE_BLOCK_ROWS):
        diff = points[start : start + DISTANCE_BLOCK_ROWS, None, :] - centroids[None, :, :]
        out[start : start + DISTANCE_BLOCK_ROWS] = np.einsum("nkd,nkd->nk", diff, diff)
    return out


def _seed_centroids(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++: spread initial centroids proportional to squared distance."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    closest = np.sum((points - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # all remaining points coincide with a centroid, any pick works
            centroids[i] = points[rng.integers(n)]
            continue
        idx = rng.choice(n, p=closest / total)
        centroids[i] = points[idx]
        closest = np.minimum(closest, np.sum((points - centroids[i]) ** 2, axis=1))
    return centroids


def kmeans(series, k: int, seed: int = 0, max_iter: int = 100) -> ClusterResult:
    """Cluster series into k groups; deterministic given (series, k, seed)."""
    points = np.asarray(series, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"expected a 2-D array of series, got shape {points.shape}")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")

    rng = np.random.default_rng(seed)
    centroids = _seed_centroids(points, k, rng)
    assignments = np.full(n, -1)
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        distances = _squared_distances(points, centroids)
        new_assignments = distances.argmin(axis=1)
        for cluster in range(k):
            members = points[new_assignments == cluster]
            if len(members) > 0:
                centroids[cluster] = members.mean(axis=0)
            else:
                # re-seed an empty cluster at the point farthest from its centroid
                worst = distances[np.arange(n), new_assignments].argmax()
                centroids[cluster] = points[worst]
                new_assignments[worst] = cluster
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments

    distances = _squared_distances(points, centroids)
    assignments = distances.argmin(axis=1)
    inertia = float(distances[np.arange(n), assignments].sum())
    return ClusterResult(
        centroids=centroids,
        assignments=assignments,
        inertia=inertia,
        n_iter=n_iter,
    )
