"""The global K-means algorithm (Likas, Vlassis & Verbeek, 2003).

dcSR uses global K-means instead of plain Lloyd's to avoid local optima
(Section 3.1.2).  The algorithm solves K-means incrementally: the solution
with ``k`` clusters is built from the ``k-1`` solution by trying every data
point as the seed of the new cluster and keeping the run with the lowest
inertia.  It is deterministic and (empirically) near-globally optimal, at
O(n) Lloyd runs per added cluster — fine at dcSR's scale, where ``n`` is the
number of video segments.
"""

from __future__ import annotations

import numpy as np

from .kmeans import KMeansResult, inertia_of, lloyd_iterations

__all__ = ["global_kmeans", "global_kmeans_path"]


def global_kmeans_path(points: np.ndarray, k_max: int) -> list[KMeansResult]:
    """Solutions for every ``k`` in ``1..k_max`` (index ``k-1``)."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"expected (n, d) points, got shape {points.shape}")
    n = points.shape[0]
    if not 1 <= k_max <= n:
        raise ValueError(f"k_max must be in [1, {n}], got {k_max}")

    # k = 1: centroid is the mean.
    mean = points.mean(axis=0, keepdims=True)
    labels = np.zeros(n, dtype=np.int64)
    path = [KMeansResult(centroids=mean, labels=labels,
                         inertia=inertia_of(points, mean, labels))]

    for k in range(2, k_max + 1):
        base = path[-1].centroids
        best: KMeansResult | None = None
        # Deduplicate candidate seeds (identical points give identical runs).
        candidates = np.unique(points, axis=0)
        for seed_point in candidates:
            init = np.vstack([base, seed_point[None, :]])
            result = lloyd_iterations(points, init)
            if best is None or result.inertia < best.inertia:
                best = result
        path.append(best)
    return path


def global_kmeans(points: np.ndarray, k: int) -> KMeansResult:
    """Global K-means solution for a single ``k``."""
    return global_kmeans_path(points, k)[k - 1]
