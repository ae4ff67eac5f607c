"""Constrained selection of the number of micro models (Eq. 2-3).

``k* = argmax_k SC(k)`` subject to ``1 <= k <= |M_big| / |M_min|`` — the
total size of the deployed micro models must not exceed the single big
model prior systems ship.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .global_kmeans import global_kmeans_path
from .kmeans import KMeansResult
from .silhouette import silhouette_score

__all__ = ["KSelection", "max_k_for_budget", "select_k"]


@dataclass
class KSelection:
    """Result of the constrained-K search."""

    k: int
    scores: dict[int, float] = field(default_factory=dict)
    k_max: int = 0
    result: KMeansResult | None = None


def max_k_for_budget(big_model_bytes: int, min_model_bytes: int) -> int:
    """Eq. (3): the largest K whose micro models fit the big-model budget."""
    if big_model_bytes <= 0 or min_model_bytes <= 0:
        raise ValueError("model sizes must be positive")
    return max(1, big_model_bytes // min_model_bytes)


def select_k(features: np.ndarray, k_max: int) -> KSelection:
    """Pick K by maximum silhouette over ``2..k_max`` (Eq. 2).

    ``k_max`` comes from :func:`max_k_for_budget` and is additionally capped
    at ``n - 1`` (silhouette is undefined at ``k = n``; with every segment
    its own cluster there is nothing to share).  Degenerate inputs (a single
    segment, or ``k_max = 1``) select ``k = 1``.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"expected (n, d) features, got {features.shape}")
    n = features.shape[0]
    if k_max < 1:
        raise ValueError("k_max must be >= 1")

    effective_max = min(k_max, n - 1)
    if effective_max < 2:
        path = global_kmeans_path(features, 1)
        return KSelection(k=1, scores={}, k_max=k_max, result=path[0])

    path = global_kmeans_path(features, effective_max)
    scores: dict[int, float] = {}
    for k in range(2, effective_max + 1):
        result = path[k - 1]
        # Global k-means may leave a cluster empty when points coincide;
        # silhouette needs the realised number of clusters.
        realised = len(np.unique(result.labels))
        if realised < 2:
            scores[k] = float("-inf")
        else:
            scores[k] = silhouette_score(features, result.labels)
    best_k = max(scores, key=lambda k: (scores[k], -k))
    return KSelection(k=best_k, scores=scores, k_max=k_max,
                      result=path[best_k - 1])
