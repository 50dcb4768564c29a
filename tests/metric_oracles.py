"""Per-run clustering references the lockstep code in ``kpcaig.metrics`` is tested against.

``kmeans_per_run`` is k-means as it ran before restarts were batched: one
seed, one Lloyd loop, one cluster mean at a time.
"""

from typing import NamedTuple

import numpy as np
from scipy.spatial.distance import cdist

from kpcaig import InputError


class PerRun(NamedTuple):
    labels: np.ndarray
    inertia: float
    n_iter: int              # Lloyd iterations run


def kmeanspp_per_run(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii, SODA 2007) of one run."""
    m = X.shape[0]
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(m)
    d2 = cdist(X, X[chosen[:1]], "sqeuclidean")[:, 0]
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(m, p=d2 / total)
        else:
            # all remaining points coincide with a chosen center
            taken = set(chosen[:c].tolist())
            idx = next(i for i in range(m) if i not in taken)
        chosen[c] = idx
        d2 = np.minimum(d2, cdist(X, X[idx:idx + 1], "sqeuclidean")[:, 0])
    return X[chosen].copy()


def kmeans_per_run(coords, k: int, seed: int, *, max_iter: int = 300,
                   init_centers=None) -> PerRun:
    """Lloyd's algorithm with k-means++ seeding for a single seed."""
    X = np.atleast_2d(np.asarray(coords, dtype=np.float64))
    m = X.shape[0]
    if not 1 <= k <= m:
        raise InputError(f"k must be in [1, m], got k={k} for m={m}")
    rng = np.random.default_rng(seed)
    centers = np.array(init_centers, dtype=np.float64) if init_centers is not None \
        else kmeanspp_per_run(X, k, rng)
    prev = None
    prev_cost = np.inf
    n_iter = 0
    for _ in range(max_iter):
        n_iter += 1
        d2 = cdist(X, centers, "sqeuclidean")
        labels = d2.argmin(axis=1)
        for c in range(k):
            if np.any(labels == c):
                continue
            own = d2[np.arange(m), labels]
            counts = np.bincount(labels, minlength=k)
            movable = counts[labels] > 1
            far = int(np.flatnonzero(movable)[own[movable].argmax()])
            labels[far] = c
            d2[:, c] = cdist(X, X[far:far + 1], "sqeuclidean")[:, 0]
        cost = float(d2[np.arange(m), labels].sum())
        if cost > prev_cost + 1e-9 * (1.0 + cost):
            raise RuntimeError(f"k-means objective increased from {prev_cost} to {cost}")
        if cost >= prev_cost:   # no longer falling: keep the previous assignment
            labels = prev
            break
        prev_cost = cost
        centers = np.stack([X[labels == c].mean(axis=0) for c in range(k)])
        if prev is not None and np.array_equal(labels, prev):
            break
        prev = labels
    inertia = float(((X - centers[labels]) ** 2).sum())
    return PerRun(labels=labels, inertia=inertia, n_iter=n_iter)
