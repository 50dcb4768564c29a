"""Seeded synthetic data generators used by the evaluation harness and tests."""

from __future__ import annotations

import numpy as np

from .data import Dataset

# scale of the cluster centres' sign patterns on the informative columns
SEPARATION = 1.0


def planted_clusters(n: int, p: int, k: int, n_informative: int, *,
                     within_std: float = 0.1, seed: int = 0) -> Dataset:
    """Gaussian clusters that differ only in the first n_informative columns.

    Cluster centers are distinct +-SEPARATION sign patterns on the
    informative block (pairwise Hamming distance >= 2); every other column
    is standard normal noise. Labels are balanced and shuffled.
    """
    rng = np.random.default_rng(seed)
    if n_informative > p:
        raise ValueError("n_informative exceeds p")
    min_hamming = min(n_informative, max(2, int(0.4 * n_informative)))
    while True:
        patterns = rng.choice([-1.0, 1.0], size=(k, n_informative))
        # every informative column must differ across clusters, and every
        # cluster pair must be separated in enough coordinates
        if np.any(patterns.min(axis=0) == patterns.max(axis=0)):
            continue
        dists = [np.sum(patterns[a] != patterns[b])
                 for a in range(k) for b in range(a + 1, k)]
        if not dists or min(dists) >= min_hamming:
            break
    labels = rng.permutation(np.arange(n) % k)
    X = rng.normal(0.0, 1.0, size=(n, p))
    X[:, :n_informative] = (SEPARATION * patterns[labels]
                            + within_std * rng.normal(size=(n, n_informative)))
    return Dataset.from_matrix(X, labels=labels)


def random_ranking(p: int, seed: int) -> np.ndarray:
    """A seeded random permutation of the feature indices."""
    return np.random.default_rng(seed).permutation(p)
