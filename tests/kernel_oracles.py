"""Scalar and per-feature kernel references the vectorized code is tested against.

Each family is written out on its own here, independent of the family rules
in ``kpcaig.kernels``: a scalar kernel value, its closed-form partial
derivative, the dense n x n derivative matrix of one feature, and the Gram
matrix formulas the package must reproduce bit for bit.
"""

import numpy as np
from scipy.spatial.distance import pdist, squareform

from kpcaig import InputError, KernelSpec


def _check_pair(x, y):
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape or x.size < 1:
        raise InputError(f"point dimensions differ: {x.shape} vs {y.shape}")
    return x, y


def eval_kernel(spec: KernelSpec, x, y) -> float:
    """Scalar kernel value k(x, y); symmetric in its arguments."""
    x, y = _check_pair(x, y)
    if spec.family == "rbf":
        d = x - y
        return float(np.exp(-spec.sigma * np.dot(d, d)))
    if spec.family == "linear":
        return float(np.dot(x, y))
    return float((np.dot(x, y) + spec.coef0) ** spec.degree)


def kernel_partial(spec: KernelSpec, x, x_i, j: int) -> float:
    """Partial derivative of k(x, x_i) with respect to coordinate j of x.

    For the rbf family this is -2*sigma*k(x, x_i)*(x[j] - x_i[j]); linear
    and polynomial use their own closed forms. Index j is zero-based.
    """
    x, x_i = _check_pair(x, x_i)
    if not 0 <= j < x.size:
        raise InputError(f"feature index {j} out of range for p={x.size}")
    if spec.family == "rbf":
        d = x - x_i
        return float(-2.0 * spec.sigma * np.exp(-spec.sigma * np.dot(d, d)) * (x[j] - x_i[j]))
    if spec.family == "linear":
        return float(x_i[j])
    return float(spec.degree * (np.dot(x, x_i) + spec.coef0) ** (spec.degree - 1) * x_i[j])


def partial_matrix(spec: KernelSpec, X, j: int) -> np.ndarray:
    """Matrix D with D[m, i] = d k(x_m, x_i) / d x_m[j] over training pairs."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    xj = X[:, j]
    if spec.family == "linear":
        return np.broadcast_to(xj, (n, n))
    if spec.family == "rbf":
        K = np.exp(-spec.sigma * squareform(pdist(X, "sqeuclidean")))
        return -2.0 * spec.sigma * K * (xj[:, None] - xj[None, :])
    G = X @ X.T
    return float(spec.degree) * (G + spec.coef0) ** (spec.degree - 1) * xj[None, :]


def _mirror_upper(M):
    return np.triu(M) + np.triu(M, 1).T


def gram_formula(spec: KernelSpec, X) -> np.ndarray:
    """Uncentered Gram matrix, one formula per family."""
    X = np.asarray(X, dtype=np.float64)
    if spec.family == "rbf":
        K = squareform(np.exp(-spec.sigma * pdist(X, "sqeuclidean")))
        np.fill_diagonal(K, 1.0)
        return K
    G = X @ X.T
    if spec.family == "linear":
        return _mirror_upper(G)
    return _mirror_upper((G + spec.coef0) ** spec.degree)
