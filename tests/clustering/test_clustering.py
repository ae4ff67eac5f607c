"""Tests for K-means, global K-means, silhouette, and K selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import (
    KMeansResult,
    assign_labels,
    global_kmeans,
    global_kmeans_path,
    inertia_of,
    kmeans,
    max_k_for_budget,
    select_k,
    silhouette_samples,
    silhouette_score,
)


def _blobs(n_per=20, k=3, spread=0.1, seed=0, dim=2):
    """Well-separated Gaussian blobs with ground-truth labels."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-5, 5, size=(k, dim))
    # Reject center pairs that are too close for a clean test.
    while True:
        dists = np.linalg.norm(centers[:, None] - centers[None, :], axis=2)
        np.fill_diagonal(dists, np.inf)
        if dists.min() > 2.0:
            break
        centers = rng.uniform(-5, 5, size=(k, dim))
    points = np.concatenate([
        c + rng.normal(0, spread, size=(n_per, dim)) for c in centers
    ])
    labels = np.repeat(np.arange(k), n_per)
    return points, labels


def _same_partition(a, b):
    """Two labelings describe the same partition (up to renaming)."""
    mapping = {}
    for x, y in zip(a, b):
        if x in mapping and mapping[x] != y:
            return False
        mapping[x] = y
    return len(set(mapping.values())) == len(mapping)


class TestKMeans:
    def test_recovers_blobs(self):
        points, truth = _blobs()
        result = kmeans(points, 3, seed=1)
        assert _same_partition(truth, result.labels)

    def test_k1_centroid_is_mean(self):
        points, _ = _blobs()
        result = kmeans(points, 1)
        np.testing.assert_allclose(result.centroids[0], points.mean(axis=0))

    def test_k_equals_n(self):
        points = np.array([[0.0], [1.0], [2.0]])
        result = kmeans(points, 3, seed=0)
        assert result.inertia < 1e-12

    def test_invalid_k(self):
        points, _ = _blobs(n_per=5)
        with pytest.raises(ValueError):
            kmeans(points, 0)
        with pytest.raises(ValueError):
            kmeans(points, len(points) + 1)

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros(5), 2)

    def test_deterministic_given_seed(self):
        points, _ = _blobs(seed=3)
        a = kmeans(points, 3, seed=9)
        b = kmeans(points, 3, seed=9)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_inertia_decreases_with_k(self):
        points, _ = _blobs(seed=4)
        inertias = [kmeans(points, k, seed=0).inertia for k in (1, 2, 3, 6)]
        assert all(a >= b - 1e-9 for a, b in zip(inertias[:-1], inertias[1:]))

    def test_assign_labels_nearest(self):
        centroids = np.array([[0.0, 0.0], [10.0, 10.0]])
        points = np.array([[1.0, 1.0], [9.0, 9.0]])
        np.testing.assert_array_equal(assign_labels(points, centroids), [0, 1])

    def test_inertia_of(self):
        points = np.array([[0.0], [2.0]])
        centroids = np.array([[1.0]])
        labels = np.array([0, 0])
        assert inertia_of(points, centroids, labels) == 2.0


class TestGlobalKMeans:
    def test_path_lengths(self):
        points, _ = _blobs(n_per=10)
        path = global_kmeans_path(points, 4)
        assert len(path) == 4
        assert [r.k for r in path] == [1, 2, 3, 4]

    def test_recovers_blobs(self):
        points, truth = _blobs(n_per=12, seed=5)
        result = global_kmeans(points, 3)
        assert _same_partition(truth, result.labels)

    def test_monotone_inertia(self):
        points, _ = _blobs(n_per=10, seed=6)
        path = global_kmeans_path(points, 5)
        inertias = [r.inertia for r in path]
        assert all(a >= b - 1e-9 for a, b in zip(inertias[:-1], inertias[1:]))

    def test_deterministic(self):
        points, _ = _blobs(n_per=8, seed=7)
        a = global_kmeans(points, 3)
        b = global_kmeans(points, 3)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_no_worse_than_lloyd(self):
        """Global K-means matches or beats randomly seeded Lloyd."""
        points, _ = _blobs(n_per=15, k=4, spread=0.8, seed=8)
        glob = global_kmeans(points, 4)
        lloyd = kmeans(points, 4, seed=0, n_init=1)
        assert glob.inertia <= lloyd.inertia + 1e-6

    def test_invalid_args(self):
        points, _ = _blobs(n_per=3)
        with pytest.raises(ValueError):
            global_kmeans_path(points, 0)
        with pytest.raises(ValueError):
            global_kmeans_path(np.zeros(5), 2)


class TestSilhouette:
    def test_perfect_separation_near_one(self):
        points, labels = _blobs(n_per=10, spread=0.01, seed=9)
        assert silhouette_score(points, labels) > 0.95

    def test_bad_labels_score_lower(self):
        points, labels = _blobs(n_per=10, seed=10)
        rng = np.random.default_rng(0)
        shuffled = rng.permutation(labels)
        assert silhouette_score(points, labels) > silhouette_score(points, shuffled)

    def test_range(self):
        points, labels = _blobs(n_per=6, spread=2.0, seed=11)
        values = silhouette_samples(points, labels)
        assert np.all(values >= -1.0) and np.all(values <= 1.0)

    def test_single_cluster_raises(self):
        with pytest.raises(ValueError):
            silhouette_score(np.zeros((4, 2)), np.zeros(4, dtype=int))

    def test_singleton_cluster_scores_zero(self):
        points = np.array([[0.0], [0.1], [5.0]])
        labels = np.array([0, 0, 1])
        values = silhouette_samples(points, labels)
        assert values[2] == 0.0

    def test_label_shape_mismatch(self):
        with pytest.raises(ValueError):
            silhouette_score(np.zeros((4, 2)), np.zeros(3, dtype=int))

    @given(st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_property_true_labels_beat_random(self, seed):
        points, labels = _blobs(n_per=8, spread=0.05, seed=seed)
        rng = np.random.default_rng(seed + 1)
        random_labels = rng.integers(0, 3, size=len(labels))
        if len(np.unique(random_labels)) < 2:
            return
        assert (silhouette_score(points, labels)
                >= silhouette_score(points, random_labels))


class TestSelection:
    def test_budget_formula(self):
        assert max_k_for_budget(1000, 100) == 10
        assert max_k_for_budget(1000, 999) == 1
        assert max_k_for_budget(100, 1000) == 1  # floor, at least 1

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            max_k_for_budget(0, 10)

    def test_selects_true_k(self):
        points, _ = _blobs(n_per=10, k=3, spread=0.05, seed=12)
        selection = select_k(points, k_max=8)
        assert selection.k == 3
        assert selection.result is not None
        assert selection.result.k == 3

    def test_constraint_caps_k(self):
        points, _ = _blobs(n_per=10, k=5, spread=0.05, seed=13)
        selection = select_k(points, k_max=3)
        assert selection.k <= 3

    def test_degenerate_single_point_cluster(self):
        points = np.zeros((1, 4))
        selection = select_k(points, k_max=5)
        assert selection.k == 1

    def test_k_max_one(self):
        points, _ = _blobs(n_per=5, seed=14)
        selection = select_k(points, k_max=1)
        assert selection.k == 1

    def test_scores_recorded(self):
        points, _ = _blobs(n_per=10, k=3, spread=0.05, seed=15)
        selection = select_k(points, k_max=5)
        assert set(selection.scores) == {2, 3, 4, 5}
        assert selection.scores[selection.k] == max(selection.scores.values())

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            select_k(np.zeros(4), 2)
        with pytest.raises(ValueError):
            select_k(np.zeros((4, 2)), 0)
