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
    Cluster centres are +-SEPARATION sign patterns on those columns; each
    column differs across clusters, and each pair of clusters in at least
    h = min(n_informative, max(2, 0.4 n_informative)) of them. Every other
    column is standard normal noise. Labels are balanced and shuffled.
    At k = 2 the second pattern is minus the first, the only pair that passes,
    so the first draw does. Raises InputError for k < 2, n_informative > p, or
    when no k patterns exist (more than the Singleton bound
    2^(n_informative - h + 1)) or turn up in 50 000 draws.
    """
    if k < 2:
        raise InputError(f"planted clusters need k >= 2, got k={k}")
    if n_informative > p:
        raise InputError(f"n_informative={n_informative} exceeds p={p}")
    rng = np.random.default_rng(seed)
    min_hamming = min(n_informative, max(2, int(0.4 * n_informative)))
    feasible = not min_hamming or k <= 2 ** (n_informative - min_hamming + 1)
    pairs = np.triu_indices(k, 1)
    for _ in range(50_000 if feasible else 0):
        patterns = rng.choice([-1.0, 1.0], size=(k, n_informative))
        if k == 2:
            patterns[1] = -patterns[0]
        # every informative column must differ across clusters, and every
        # cluster pair must be separated in enough coordinates
        if np.any(patterns.min(axis=0) == patterns.max(axis=0)):
            continue
        if (patterns[:, None] != patterns[None]).sum(axis=2)[pairs].min() >= min_hamming:
            break
    else:
        raise InputError(f"found no k={k} cluster centres that differ on each of "
                         f"n_informative={n_informative} columns and pairwise on "
                         f"{min_hamming} of them")
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
