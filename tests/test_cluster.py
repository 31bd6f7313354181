"""Lloyd k-means behavior on constructed fixtures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forecast_uq import cluster
from forecast_uq.cluster import (
    DISTANCE_BLOCK_ROWS,
    ClusterResult,
    _nearest,
    _screen,
    _seed_centroids,
    _squared_distances,
    kmeans,
)
from forecast_uq.data import FAMILIES, GeneratorConfig, center_scale_normalize, generate_synthetic


def plain_lloyd(series, k, seed=0, max_iter=100):
    """The unpruned Lloyd loop that `kmeans` replaced, kept as the reference."""
    points = np.asarray(series, dtype=np.float64)
    n = points.shape[0]

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


def assert_screen_within_eps(points, centroids):
    """The GEMM distances of every row are within the screen's eps of the exact ones."""
    sq_norms = np.einsum("nd,nd->n", points, points)
    scores, eps = _screen(points, sq_norms, np.sqrt(sq_norms.max()), centroids, np.arange(len(points)))
    assert np.abs(scores - _squared_distances(points, centroids)).max() <= eps


def assert_same_result(points, k, seed=0, max_iter=100):
    got = kmeans(points, k, seed=seed, max_iter=max_iter)
    want = plain_lloyd(points, k, seed=seed, max_iter=max_iter)
    # bytes, not values: array_equal takes -0.0 for 0.0
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert np.array_equal(got.assignments, want.assignments)
    assert got.inertia == want.inertia
    assert got.n_iter == want.n_iter
    assert_screen_within_eps(points, got.centroids)


def separated_blobs():
    # four Gaussian blobs of 250 points in 4-D, centers at least 19 apart
    rng = np.random.default_rng(1)
    centers = rng.uniform(-20.0, 20.0, size=(4, 4))
    return (centers[:, None, :] + 2.0 * rng.normal(size=(4, 250, 4))).reshape(-1, 4)


# Ten distinct 1-D points: after two iterations at seed 0 and k=4, cluster 2
# has no members, so the third iteration re-seeds it.
EMPTIES_AT_ITERATION_3 = np.array([
    0.6583826284892821, 1.0162965205499248, -1.8914172507877878, -0.7551459537297309,
    -0.5828582798307672, 0.8244444033587993, 0.48256668254771473, 1.4179562401901562,
    1.5524176351497077, -0.6125104286129136,
])[:, None]


def count_screened_rows(monkeypatch):
    """Record how many rows each pass of `kmeans` re-scores through `_nearest`."""
    screened = []

    def counted(points, sq_norms, max_norm, centroids, rows):
        screened.append(len(rows))
        return _nearest(points, sq_norms, max_norm, centroids, rows)

    monkeypatch.setattr(cluster, "_nearest", counted)
    return screened


@st.composite
def lloyd_cases(draw):
    n = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.normal(size=(n, dim)) * draw(st.sampled_from([1.0, 5.0]))
    layout = draw(st.sampled_from(["plain", "duplicates", "rounded", "offset", "diagonal", "negative_zero"]))
    if layout == "negative_zero":
        points[:, rng.integers(dim)] = -0.0
    elif layout == "diagonal":
        # integers on the line x_1 = ... = x_dim: exact distance ties whose
        # square roots round, so a pruning test without margin goes wrong
        points = np.repeat(np.round(points[:, :1] * 3.0), dim, axis=1)
    elif layout == "duplicates":
        points = points[rng.integers(0, max(1, n // 3), size=n)]
    elif layout == "rounded":
        points = np.round(points, draw(st.integers(0, 1)))
    elif layout == "offset":
        points = 1e8 + 1e-8 * points
    k = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    max_iter = draw(st.one_of(st.integers(1, 7), st.just(100)))
    return points, k, draw(st.integers(0, 50)), max_iter


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

    def test_subset_rows_match_full_rows(self):
        # pruning recomputes some rows only; each must equal its full-pass row
        rng = np.random.default_rng(8)
        points = rng.normal(size=(2 * DISTANCE_BLOCK_ROWS + 300, 24))
        centroids = rng.normal(size=(16, 24))
        rows = np.flatnonzero(rng.random(len(points)) < 0.6)
        assert rows.size > DISTANCE_BLOCK_ROWS
        assert np.array_equal(_squared_distances(points, centroids, rows),
                              _squared_distances(points, centroids)[rows])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_names_its_row(self, value):
        points = np.random.default_rng(9).normal(size=(8, 3))
        points[4, 1] = value
        with pytest.raises(ValueError, match=r"^series must be finite, row 4 is not$"):
            kmeans(points, k=2, seed=0)

    def test_k_larger_than_n_rejected(self):
        points = np.zeros((3, 2))
        with pytest.raises(ValueError):
            kmeans(points, k=4, seed=0)

    @pytest.mark.parametrize("points, max_iter, message", [
        (np.zeros(5), 10, r"^expected a 2-D array of series, got shape \(5,\)$"),
        (np.zeros((5, 2)), 0, r"^max_iter must be at least 1$"),
    ], ids=["one-dimensional", "no-iterations"])
    def test_malformed_call_rejected(self, points, max_iter, message):
        with pytest.raises(ValueError, match=message):
            kmeans(points, k=2, seed=0, max_iter=max_iter)

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


class TestPrunedLloydIsExact:
    """`kmeans` skips distance rows by Hamerly's bounds and still equals plain Lloyd."""

    @settings(max_examples=300, deadline=None)
    @given(case=lloyd_cases())
    def test_matches_plain_lloyd(self, case):
        points, k, seed, max_iter = case
        assert_same_result(points, k, seed, max_iter)

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 4, 5, 6, 7, 100])
    def test_matches_plain_lloyd_on_normalized_series(self, max_iter):
        t = np.arange(24.0)
        rng = np.random.default_rng(10)
        phase = rng.uniform(0.0, 2 * np.pi, size=(3000, 1))
        rows = np.sin(2 * np.pi * t / 12.0 + phase) + rng.normal(size=(3000, 24)) * 0.5
        normalized = np.stack([center_scale_normalize(r) for r in rows])
        assert_same_result(normalized, 16, seed=2, max_iter=max_iter)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_plain_lloyd_on_unstructured_points(self, seed):
        # no cluster structure: points trade clusters for dozens of iterations
        points = np.random.default_rng(seed).normal(size=(2000, 3))
        assert_same_result(points, 8, seed=seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_plain_lloyd_on_one_column(self, seed):
        # numpy sums one contiguous column pairwise, not in row order
        points = np.random.default_rng(seed).normal(size=(200, 1))
        result = kmeans(points, 3, seed=seed)
        assert np.bincount(result.assignments).min() >= 8
        assert_same_result(points, 3, seed=seed)

    def test_one_cluster_of_one_column(self):
        # eight values whose pairwise and row-order sums differ
        points = np.random.default_rng(1).normal(size=(8, 1))
        assert points.sum() != np.cumsum(points)[-1]
        assert_same_result(points, 1)

    def test_column_of_negative_zeros_in_one_cluster(self):
        # two blobs 20 apart, the second column -0.0 across the left one
        rng = np.random.default_rng(11)
        points = rng.normal(size=(60, 2))
        points[:30, 0] -= 10.0
        points[30:, 0] += 10.0
        points[:30, 1] = -0.0
        assert np.bincount(kmeans(points, 2, seed=0).assignments[:30], minlength=2).max() == 30
        assert_same_result(points, 2, seed=0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_plain_lloyd_on_eval_wide_shaped_series(self, seed):
        config = GeneratorConfig(families={family: 2000 for family in FAMILIES}, series_length=24,
                                 noise={"law": "uniform", "low": 0.5, "high": 9.0}, seed=seed)
        normalized = center_scale_normalize(generate_synthetic(config).values)
        assert normalized.shape == (8000, 24)
        assert_same_result(normalized, 16, seed=seed)

    @pytest.mark.parametrize("layout", ["diagonal", "offset", "magnitude"])
    def test_screen_hands_near_ties_to_the_exact_path(self, layout, monkeypatch):
        rng = np.random.default_rng(12)
        if layout == "diagonal":
            # integers on the line x_1 = ... = x_4: exact distance ties
            points = np.repeat(np.round(rng.normal(size=(300, 1)) * 3.0), 4, axis=1)
        elif layout == "offset":
            # |x| ~ 1e8 and spreads of 1e-8: eps dwarfs every gap
            points = 1e8 + 1e-8 * rng.normal(size=(300, 3))
        else:
            # unnormalized, |x| ~ 1e6: eps ~ 1e-2 against gaps of order 1
            points = 1e6 + rng.normal(size=(2000, 3))
        exact_rows = []

        def counted(points, centroids, rows=None):
            if rows is not None:  # only the screen asks for some rows
                exact_rows.append(len(rows))
            return _squared_distances(points, centroids, rows)

        monkeypatch.setattr(cluster, "_squared_distances", counted)
        kmeans(points, 6, seed=0)
        assert sum(exact_rows) > 0
        monkeypatch.undo()
        assert_same_result(points, 6, seed=0)
        assert_screen_within_eps(points, _seed_centroids(points, 6, np.random.default_rng(0)))

    @pytest.mark.filterwarnings("error")  # no overflow warning from the screen either
    def test_scores_that_overflow_take_the_exact_path(self):
        # |x| ~ 1e160: |x|^2 and x.c overflow in the screen, no difference does
        points = 1e160 + 1e150 * np.random.default_rng(13).normal(size=(50, 3))
        got, want = kmeans(points, 3, seed=0), plain_lloyd(points, 3, seed=0)
        assert got.centroids.tobytes() == want.centroids.tobytes()
        assert np.array_equal(got.assignments, want.assignments)
        assert (got.inertia, got.n_iter) == (want.inertia, want.n_iter)

    def test_rounded_bounds_on_exact_ties_are_not_pruned(self):
        # collinear integer points: some point sits exactly as far from two
        # centroids, and the rounded bound arithmetic says "strictly nearer";
        # without the margin that point keeps the higher-index cluster
        line = np.array([-5.0, 1.0, -1.0, 2.0, 4.0, -2.0, -5.0, 6.0, -6.0, 6.0, -4.0, -2.0, -6.0, -6.0])
        assert_same_result(np.repeat(line[:, None], 5, axis=1), 4, seed=4)

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 4, 5, 100])
    def test_empty_cluster_at_seeding_is_reseeded_alike(self, max_iter):
        # three distinct points for k=5: k-means++ must repeat a point, the
        # repeated centroid loses every argmin tie, so the first pass
        # leaves a cluster empty
        points = np.repeat(np.array([[0.0, 0.0], [3.0, 1.0], [-2.0, 4.0]]), [5, 3, 4], axis=0)
        seeded = _seed_centroids(points, 5, np.random.default_rng(0))
        first = _squared_distances(points, seeded).argmin(axis=1)
        assert not np.bincount(first, minlength=5).all()
        assert_same_result(points, 5, seed=0, max_iter=max_iter)

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 4, 5, 100])
    def test_empty_cluster_after_pruned_passes_is_reseeded_alike(self, max_iter):
        points = EMPTIES_AT_ITERATION_3
        # the final pass after 2 iterations is the third iteration's
        # assignment, so a missing label there means iteration 3 re-seeds
        assert 2 not in kmeans(points, 4, seed=0, max_iter=2).assignments
        assert kmeans(points, 4, seed=0, max_iter=3).n_iter == 3
        assert_same_result(points, 4, seed=0, max_iter=max_iter)

    def test_pass_after_a_reseed_recomputes_every_row(self, monkeypatch):
        # a re-seed moves centroids without moving the bounds, so the next
        # pass may prune nothing
        screened = count_screened_rows(monkeypatch)
        kmeans(EMPTIES_AT_ITERATION_3, 4, seed=0)
        n = len(EMPTIES_AT_ITERATION_3)
        # iteration 3 prunes, then re-seeds; iteration 4 re-scores every row
        assert screened[2] < n and screened[3] == n

    def test_later_passes_skip_most_rows(self, monkeypatch):
        points = separated_blobs()
        n = len(points)
        screened = count_screened_rows(monkeypatch)
        result = kmeans(points, 4, seed=0)
        assert result.n_iter >= 5
        assert len(screened) == result.n_iter  # one pass per iteration; the final pass is exact
        assert screened[0] == n
        assert max(screened[2:]) < n / 10
        monkeypatch.undo()
        assert_same_result(points, 4, seed=0)
