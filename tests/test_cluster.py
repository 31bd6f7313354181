"""Lloyd k-means behavior on constructed fixtures."""

import numpy as np
import pytest

from forecast_uq.cluster import DISTANCE_BLOCK_ROWS, _squared_distances, kmeans
from forecast_uq.data import center_scale_normalize


class TestKmeans:
    def test_k_equals_n_gives_zero_inertia(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(8, 4))
        result = kmeans(points, k=8, seed=1)
        np.testing.assert_allclose(result.inertia, 0.0, atol=1e-20)
        assert sorted(result.assignments) == list(range(8))

    def test_two_separated_blobs(self):
        rng = np.random.default_rng(1)
        blob_a = rng.normal(size=(40, 3)) * 0.1 + np.array([5.0, 0.0, 0.0])
        blob_b = rng.normal(size=(40, 3)) * 0.1 + np.array([-5.0, 0.0, 0.0])
        points = np.vstack([blob_a, blob_b])
        result = kmeans(points, k=2, seed=0)
        centers = result.centroids[np.argsort(result.centroids[:, 0])]
        np.testing.assert_allclose(centers[0], blob_b.mean(axis=0), atol=0.05)
        np.testing.assert_allclose(centers[1], blob_a.mean(axis=0), atol=0.05)
        assert len(set(result.assignments[:40])) == 1
        assert len(set(result.assignments[40:])) == 1

    def test_inertia_non_increasing_with_iterations(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(200, 6))
        inertias = [kmeans(points, k=5, seed=3, max_iter=i).inertia for i in range(1, 8)]
        assert all(b <= a + 1e-9 for a, b in zip(inertias, inertias[1:]))

    def test_assignments_index_nearest_centroid(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(100, 4))
        result = kmeans(points, k=7, seed=4)
        distances = ((points[:, None, :] - result.centroids[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(result.assignments, distances.argmin(axis=1))

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(60, 5))
        a = kmeans(points, k=4, seed=9)
        b = kmeans(points, k=4, seed=9)
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.assignments, b.assignments)
        assert a.inertia == b.inertia

    def test_blocked_distances_match_one_block(self):
        rng = np.random.default_rng(7)
        points = rng.normal(size=(2 * DISTANCE_BLOCK_ROWS + 37, 24))
        centroids = rng.normal(size=(16, 24))
        diff = points[:, None, :] - centroids[None, :, :]
        assert np.array_equal(_squared_distances(points, centroids), np.einsum("nkd,nkd->nk", diff, diff))

    def test_k_larger_than_n_rejected(self):
        points = np.zeros((3, 2))
        with pytest.raises(ValueError):
            kmeans(points, k=4, seed=0)

    def test_recovers_shape_families_after_normalization(self):
        # two shapes of very different monetary scales; normalization makes
        # clustering see the shape, not the scale
        t = np.arange(24.0)
        rng = np.random.default_rng(5)
        rows = []
        labels = []
        for _ in range(30):
            scale = rng.uniform(10.0, 1000.0)
            rows.append(scale * np.sin(2 * np.pi * t / 12.0) + rng.normal(size=24) * scale * 0.01)
            labels.append(0)
            rows.append(scale * (t / 24.0) + rng.normal(size=24) * scale * 0.01)
            labels.append(1)
        normalized = np.stack([center_scale_normalize(r) for r in rows])
        result = kmeans(normalized, k=2, seed=6)
        groups = np.asarray(result.assignments)
        labels = np.asarray(labels)
        # one-to-one up to relabeling
        agreement = max(
            (groups == labels).mean(),
            (groups == 1 - labels).mean(),
        )
        assert agreement == 1.0
