"""Seeded k-means over normalized series, for exploring shape families.

Lloyd iterations with k-means++ seeding, pruned by Hamerly's bounds to the
same result as plain Lloyd. Inputs are expected to be normalized series (see
``center_scale_normalize``) so distances compare shapes rather than monetary
magnitudes, but nothing here enforces that.
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


def _squared_distances(points: np.ndarray, centroids: np.ndarray, rows=None) -> np.ndarray:
    """Squared distances from ``points[rows]`` (default: every point) to each centroid.

    Rows are gathered one block at a time, so ``points[rows]`` is never copied whole.
    """
    count = points.shape[0] if rows is None else rows.size
    out = np.empty((count, centroids.shape[0]))
    buf = np.empty((min(count, DISTANCE_BLOCK_ROWS),) + centroids.shape)
    for start in range(0, count, DISTANCE_BLOCK_ROWS):
        block = slice(start, start + DISTANCE_BLOCK_ROWS)
        chunk = points[block] if rows is None else points[rows[block]]
        diff = np.subtract(chunk[:, None, :], centroids[None], out=buf[: len(chunk)])
        out[block] = np.einsum("nkd,nkd->nk", diff, diff)
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
    """Cluster series into k groups; deterministic given (series, k, seed).

    Lloyd iterations with Hamerly's bounds. Each point carries ``upper``,
    at least its distance to its own centroid, and ``lower``, at most its
    distance to any other centroid. After the centroids move, ``upper``
    grows by its centroid's shift and ``lower`` shrinks by the largest
    shift, so both stay valid. A point's distance row is recomputed only
    when ``not (upper + margin < lower)``; otherwise the point is strictly
    nearer its own centroid than any other, and a full pass would assign
    it the same cluster, ties included. ``margin`` absorbs float rounding:
    each distance and each bound update is off by a few ulps of
    ``max|points| * sqrt(dim)``, and ``margin`` is millions of those.
    Results equal plain Lloyd's bit for bit.
    """
    points = np.asarray(series, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"expected a 2-D array of series, got shape {points.shape}")
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if bad.size:
        raise ValueError(f"series must be finite, row {bad[0]} is not")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")

    rng = np.random.default_rng(seed)
    centroids = _seed_centroids(points, k, rng)
    margin = 1e-9 * (1.0 + max(points.max(), -points.min())) * np.sqrt(points.shape[1])
    upper = np.full(n, np.inf)
    lower = np.zeros(n)
    assignments = np.full(n, -1)
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        rows = np.flatnonzero(~(upper + margin < lower))
        distances = _squared_distances(points, centroids, rows)
        nearest = distances.argmin(axis=1)
        new_assignments = assignments.copy()
        new_assignments[rows] = nearest
        if np.bincount(new_assignments, minlength=k).all():
            # exact bounds for the recomputed rows: own distance and runner-up
            picked = (np.arange(rows.size), nearest)
            own = distances[picked]
            distances[picked] = np.inf
            runner_up = distances.min(axis=1)
            upper[rows] = np.sqrt(own, out=own)
            lower[rows] = np.sqrt(runner_up, out=runner_up)

            previous = centroids.copy()
            for cluster in range(k):
                centroids[cluster] = points[new_assignments == cluster].mean(axis=0)
            shifts = np.linalg.norm(centroids - previous, axis=1)
            upper += shifts[new_assignments]
            lower -= shifts.max()
        else:
            # a cluster is empty: re-seed it as plain Lloyd does, from the full matrix
            if rows.size < n:
                distances = _squared_distances(points, centroids)
            for cluster in range(k):
                members = points[new_assignments == cluster]
                if len(members) > 0:
                    centroids[cluster] = members.mean(axis=0)
                else:
                    # re-seed an empty cluster at the point farthest from its centroid
                    worst = distances[np.arange(n), new_assignments].argmax()
                    centroids[cluster] = points[worst]
                    new_assignments[worst] = cluster
            # the centroids moved without the bounds: recompute every row next pass
            upper[:] = np.inf
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
