"""Seeded k-means over normalized series, for exploring shape families.

Lloyd iterations with k-means++ seeding, pruned by Hamerly's bounds and
screened by GEMM distances, to the same result as plain Lloyd. Inputs are
expected to be normalized series (see ``center_scale_normalize``) so
distances compare shapes rather than monetary magnitudes, but nothing here
enforces that.
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


def _screen(points: np.ndarray, sq_norms: np.ndarray, max_norm: float, centroids: np.ndarray,
            rows: np.ndarray) -> tuple[np.ndarray, float]:
    """Squared distances d~ from ``points[rows]`` to each centroid by GEMM, and their error bound eps.

    d~ = |x|^2 + |c|^2 - 2 x.c, with ``sq_norms`` the points' |x|^2 and
    ``max_norm`` the largest |x|. Let u = 2**-53, gamma_n = n u / (1 - n u)
    and S = (max|x| + max|c|)^2. The standard dot-product bound gives
    |d~ - D| <= gamma_(dim+2) S for the true D = |x - c|^2: the three
    inner products are within gamma_dim of |x|^2, |c|^2 and |x||c|, and
    the two additions add one u each. ``_squared_distances`` rounds the
    dim differences, their squares and their sum, so it is within
    gamma_(dim+2) D <= gamma_(dim+2) S of D. Hence
    |d~ - exact| <= 2 gamma_(dim+2) S. The sums that form the screen's
    comparison and bounds round once more, by about u S each. So
    eps = 4 (dim + 2) u S covers all of it, with room for the rounding
    of S itself; the smallest normal float is added for underflow.
    Rows go through the GEMM a block at a time, so ``points[rows]`` is
    never copied whole.
    """
    scores = np.empty((rows.size, centroids.shape[0]))
    sq_centroids = np.einsum("kd,kd->k", centroids, centroids)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow sends rows to the exact path
        for start in range(0, rows.size, DISTANCE_BLOCK_ROWS):
            block = slice(start, start + DISTANCE_BLOCK_ROWS)
            np.matmul(points[rows[block]], centroids.T, out=scores[block])
        scores *= -2.0
        scores += sq_centroids
        scores += sq_norms[rows, None]
        eps = 4.0 * (points.shape[1] + 2) * 2.0**-53 * (max_norm + np.sqrt(sq_centroids.max())) ** 2
    return scores, eps + np.finfo(np.float64).tiny


def _nearest(points: np.ndarray, sq_norms: np.ndarray, max_norm: float, centroids: np.ndarray,
             rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest centroid of each ``points[rows]``, as the argmin of its exact distance row.

    Returns ``(nearest, own, runner_up)``: ``own`` is at least the exact
    squared distance to the nearest centroid, and ``runner_up`` at most
    the exact squared distance to any other; "exact" is
    ``_squared_distances``' rounded value. A row whose ``d~_own + eps`` is
    below its runner-up's ``d~_2 - eps`` (see ``_screen``) has a strict
    exact argmin, so the screen decides it, with bounds ``d~_own + eps``
    and ``max(d~_2 - eps, 0)``. The other rows, ties and near-ties, and
    scores that overflowed, take their exact distance rows.
    """
    scores, eps = _screen(points, sq_norms, max_norm, centroids, rows)
    nearest = scores.argmin(axis=1)
    picked = (np.arange(rows.size), nearest)
    with np.errstate(over="ignore", invalid="ignore"):
        own = scores[picked] + eps
        scores[picked] = np.inf
        # min over a (rows, k) array's short last axis is slow: reduce a (k, rows) copy
        runner_up = np.maximum(np.ascontiguousarray(scores.T).min(axis=0) - eps, 0.0)
    exact = np.flatnonzero(~(np.isfinite(own) & (own < runner_up)))
    if exact.size:
        distances = _squared_distances(points, centroids, rows[exact])
        picked = (np.arange(exact.size), distances.argmin(axis=1))
        nearest[exact] = picked[1]
        own[exact] = distances[picked]
        distances[picked] = np.inf
        runner_up[exact] = distances.min(axis=1)
    return nearest, own, runner_up


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


def _centroid_means(points: np.ndarray, columns: np.ndarray, assignments: np.ndarray,
                    counts: np.ndarray) -> np.ndarray:
    """``points[assignments == c].mean(axis=0)`` for each cluster c, byte for byte.

    ``columns`` is ``points`` column-major and ``counts`` the positive
    cluster sizes. With at least 2 columns numpy's axis-0 sum adds each
    column in row order, as ``bincount`` does; one contiguous column it
    sums pairwise, so that case keeps the per-cluster mean.
    """
    k = len(counts)
    if points.shape[1] == 1:
        return np.stack([points[assignments == cluster].mean(axis=0) for cluster in range(k)])
    sums = np.column_stack([np.bincount(assignments, weights=column, minlength=k) for column in columns])
    # bincount starts from +0.0, as numpy 2.4's sum does; a numpy that starts
    # from the first member differs only where every member is -0.0, and
    # then the sum reads 0.0, so those clusters take numpy's own sum
    for cluster in np.flatnonzero((sums == 0.0).any(axis=1)):
        sums[cluster] = points[assignments == cluster].sum(axis=0)
    return sums / counts[:, None]


def kmeans(series, k: int, seed: int = 0, max_iter: int = 100) -> ClusterResult:
    """Cluster series into k groups; deterministic given (series, k, seed).

    Lloyd iterations with Hamerly's bounds. Each point carries ``upper``,
    at least its distance to its own centroid, and ``lower``, at most its
    distance to any other centroid. After the centroids move, ``upper``
    grows by its centroid's shift and ``lower`` shrinks by the largest
    shift, so both stay valid. A point is re-scored only when
    ``not (upper + margin < lower)``; otherwise the point is strictly
    nearer its own centroid than any other, and a full pass would assign
    it the same cluster, ties included. ``margin`` absorbs float rounding:
    each distance and each bound update is off by a few ulps of
    ``max|points| * sqrt(dim)``, and ``margin`` is millions of those.
    Re-scored points go through ``_nearest``: one GEMM per block of rows,
    and exact distance rows only for near-ties, whose bounds it widens
    by its error bound. Centroid sums take one ``bincount`` per column.
    Seeding, re-seeding and the final assignment pass use exact distance
    rows. Results equal plain Lloyd's bit for bit.
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
    columns = np.ascontiguousarray(points.T)
    sq_norms = np.einsum("nd,nd->n", points, points)
    max_norm = float(np.sqrt(sq_norms.max()))
    margin = 1e-9 * (1.0 + max(points.max(), -points.min())) * np.sqrt(points.shape[1])
    upper = np.full(n, np.inf)
    lower = np.zeros(n)
    assignments = np.full(n, -1)
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        rows = np.flatnonzero(~(upper + margin < lower))
        nearest, own, runner_up = _nearest(points, sq_norms, max_norm, centroids, rows)
        new_assignments = assignments.copy()
        new_assignments[rows] = nearest
        counts = np.bincount(new_assignments, minlength=k)
        if counts.all():
            upper[rows] = np.sqrt(own, out=own)
            lower[rows] = np.sqrt(runner_up, out=runner_up)

            previous = centroids
            centroids = _centroid_means(points, columns, new_assignments, counts)
            shifts = np.linalg.norm(centroids - previous, axis=1)
            upper += shifts[new_assignments]
            lower -= shifts.max()
        else:
            # a cluster is empty: re-seed it as plain Lloyd does, from the full matrix
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
