"""Seeded synthetic data generators, used by the planted-signal demo script and the tests."""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .exceptions import InputError

# scale of the cluster centres' sign patterns on the informative columns
SEPARATION = 1.0


def planted_clusters(n: int, p: int, k: int, n_informative: int, *,
                     within_std: float = 0.1, seed: int = 0) -> tuple[Dataset, np.ndarray]:
    """Gaussian clusters that differ only in n_informative columns at seeded positions.

    Returns the Dataset, with its labels, and the informative columns'
    positions, so a ranking that breaks ties by index does not find them.
    Cluster centres are +-SEPARATION sign patterns on those columns, drawn
    once: every column varies across clusters and no two centres coincide.
    At k = 2 the second pattern is minus the first. If two drawn patterns
    coincide, the first m = bit_length(k - 1) columns take each cluster's
    index in binary, times the first pattern's signs; a column that all
    clusters share then flips the entry of cluster (column index mod k).
    Every other column is standard normal noise. Labels are balanced and
    shuffled. Raises InputError for k < 2, n_informative > p, or
    n_informative < m, where no k distinct sign patterns exist.
    """
    if k < 2:
        raise InputError(f"planted clusters need k >= 2, got k={k}")
    if n_informative > p:
        raise InputError(f"n_informative={n_informative} exceeds p={p}")
    m = (k - 1).bit_length()
    if n_informative < m:
        raise InputError(f"k={k} distinct cluster centres need n_informative >= m={m} "
                         f"columns, got n_informative={n_informative}")
    rng = np.random.default_rng(seed)
    patterns = rng.choice([-1.0, 1.0], size=(k, n_informative))
    if k == 2:
        patterns[1] = -patterns[0]
    if len(np.unique(patterns, axis=0)) < k:
        bits = (np.arange(k)[:, None] >> np.arange(m)) & 1
        patterns[:, :m] = patterns[0, :m] * (1 - 2 * bits)
    shared = np.flatnonzero(patterns.min(axis=0) == patterns.max(axis=0))
    patterns[shared % k, shared] *= -1
    labels = rng.permutation(np.arange(n) % k)
    X = rng.normal(0.0, 1.0, size=(n, p))
    signal = (SEPARATION * patterns[labels]
              + within_std * rng.normal(size=(n, n_informative)))
    informative = rng.choice(p, n_informative, replace=False)
    X[:, informative] = signal
    return Dataset.from_matrix(X, labels=labels), informative


def random_ranking(p: int, seed: int) -> np.ndarray:
    """A seeded random permutation of the feature indices."""
    return np.random.default_rng(seed).permutation(p)
