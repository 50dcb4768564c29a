"""Seeded toy data for tests: two separated blobs, a noisy closed curve,
repeated rows, two matrices whose finite polynomial Grams overflow once
permuted or centred, and two symmetric point sets whose centred rbf Grams
have tied eigenvalues."""

import numpy as np

from kpcaig import Dataset


def two_blobs(n: int, dim: int = 2, *, separation: float = 10.0,
              spread: float = 1.0, seed: int = 0) -> Dataset:
    """Two isotropic Gaussian blobs along the first axis, labels attached."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % 2)
    X = spread * rng.normal(size=(n, dim))
    X[:, 0] += separation * labels
    return Dataset.from_matrix(X, labels=labels)


def smooth_manifold(n: int, p: int, *, noise: float = 0.02, seed: int = 0) -> Dataset:
    """Points on a smooth closed curve embedded linearly in p dimensions."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 2.0 * np.pi, size=n)
    Z = np.column_stack([np.cos(t), np.sin(t), 0.5 * np.cos(2.0 * t)])
    A = rng.normal(size=(p, Z.shape[1]))
    X = Z @ A.T + noise * rng.normal(size=(n, p))
    return Dataset.from_matrix(X)


def repeated_rows() -> Dataset:
    """12 x 6: 3 distinct rows repeated 4 times, so the centred Gram has rank 2."""
    return Dataset.from_matrix(np.tile(np.random.default_rng(0).normal(size=(3, 6)), (4, 1)))


# 5 x 3: at polynomial degree 150 and coef0 0 its Gram is finite (largest value
# 3.6e302, 10^300 times 1.01^150), but permuting any column makes some values overflow
OVERFLOWS_WHEN_PERMUTED = np.array([[10, 0, 1], [0, 10, 2], [3, 1, 0], [1, 3, 5], [2, 2, 2]],
                                   dtype=np.float64)

# 6 x 3: at polynomial degree 152 and coef0 0 its Gram is finite (largest value
# 2.07e307), but its row sums, and so its double centring, overflow
OVERFLOWS_WHEN_CENTRED = np.array([[10.25, 0, 0], [10.25, .3, 0], [10.25, 0, .3],
                                   [10.25, -.3, 0], [10.25, 0, -.3], [10.25, .2, .2]])


# the vertices of a square and of an octahedron, +-e_i: at the median sigma the
# centred rbf Gram's top 2 (square) or top 3 (octahedron) eigenvalues tie, and
# so do the octahedron's 4th and 5th
SQUARE = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=np.float64)
OCTAHEDRON = np.vstack([np.eye(3), -np.eye(3)])
