"""Seeded planted-cluster inputs, independent of ``kpcaig.synthetic``.

The informative columns sit at seeded random positions, so a ranking that
falls back to index order cannot match the reference. They come in three
groups of unequal size; each group separates the clusters along a
different split, so the leading kernel eigenvalues are distinct and the
retained eigenvectors are well determined.
"""

from __future__ import annotations

import numpy as np

# cluster-centre signs per group, one row per cluster (k = 4)
_SPLITS = np.array([[1.0, 1.0, 1.0],
                    [1.0, -1.0, -1.0],
                    [-1.0, 1.0, -1.0],
                    [-1.0, -1.0, 1.0]])
_GROUP_SHARES = (0.5, 0.3, 0.2)
_SEPARATION = 1.0    # |cluster centre| on an informative column
_WITHIN_STD = 0.5    # within-cluster spread on an informative column
CLUSTERS = _SPLITS.shape[0]


def planted_clusters(n: int, p: int, n_informative: int, seed: int):
    """Return (X, labels, informative) for a 4-cluster n x p matrix.

    ``informative`` lists the planted column indices, grouped by split.
    Noise columns are standard normal.
    """
    rng = np.random.default_rng([seed, n, p])
    labels = rng.permutation(np.arange(n) % CLUSTERS)
    informative = rng.choice(p, size=n_informative, replace=False)
    sizes = [int(round(s * n_informative)) for s in _GROUP_SHARES[:-1]]
    groups = np.repeat(np.arange(3), sizes + [n_informative - sum(sizes)])
    X = rng.normal(size=(n, p))
    centres = _SEPARATION * _SPLITS[:, groups] * rng.choice([-1.0, 1.0], size=n_informative)
    X[:, informative] = centres[labels] + _WITHIN_STD * rng.normal(size=(n, n_informative))
    return X, labels, informative


def write_tsv(path, X) -> None:
    """Write X as a TSV with an ``id`` header, g0.. names and s0.. row ids.

    Values use ``repr`` so the file round-trips to the same float64 bits.
    """
    n, p = X.shape
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("id\t" + "\t".join(f"g{j}" for j in range(p)) + "\n")
        for i, row in enumerate(X.tolist()):
            fh.write(f"s{i}\t" + "\t".join(map(repr, row)) + "\n")
