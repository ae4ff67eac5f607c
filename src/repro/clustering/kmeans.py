"""Lloyd's K-means with k-means++ seeding.

The baseline clustering algorithm (Section 3.1.2).  The paper replaces it
with the *global* K-means of Likas et al. to avoid poor local optima — both
are provided, and an ablation benchmark compares them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["KMeansResult", "kmeans", "lloyd_iterations", "assign_labels",
           "inertia_of"]


@dataclass(frozen=True)
class KMeansResult:
    """Clustering output: centroids ``(k, d)``, labels ``(n,)``, inertia."""

    centroids: np.ndarray
    labels: np.ndarray
    inertia: float

    @property
    def k(self) -> int:
        return int(self.centroids.shape[0])


def assign_labels(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid assignment (squared Euclidean)."""
    d2 = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    return np.argmin(d2, axis=1)


def inertia_of(points: np.ndarray, centroids: np.ndarray,
               labels: np.ndarray) -> float:
    """Within-cluster sum of squared distances."""
    return float(np.sum((points - centroids[labels]) ** 2))


def _kmeans_pp_init(points: np.ndarray, k: int,
                    rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by D^2 sampling."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    centroids[0] = points[rng.integers(n)]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[i:] = points[rng.integers(n, size=k - i)]
            break
        probs = d2 / total
        centroids[i] = points[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, np.sum((points - centroids[i]) ** 2, axis=1))
    return centroids


def lloyd_iterations(points: np.ndarray,
                     centroids: np.ndarray) -> KMeansResult:
    """Run Lloyd's algorithm from given centroids until the labels stop
    changing, for at most 100 rounds."""
    centroids = centroids.astype(np.float64).copy()
    labels = assign_labels(points, centroids)
    for _ in range(100):
        for j in range(centroids.shape[0]):
            members = points[labels == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
        new_labels = assign_labels(points, centroids)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return KMeansResult(centroids=centroids, labels=labels,
                        inertia=inertia_of(points, centroids, labels))


def kmeans(
    points: np.ndarray, k: int, seed: int = 0, n_init: int = 4,
) -> KMeansResult:
    """K-means with ``n_init`` k-means++ restarts; best inertia wins."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"expected (n, d) points, got shape {points.shape}")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    best: KMeansResult | None = None
    for _ in range(n_init):
        init = _kmeans_pp_init(points, k, rng)
        result = lloyd_iterations(points, init)
        if best is None or result.inertia < best.inertia:
            best = result
    return best
