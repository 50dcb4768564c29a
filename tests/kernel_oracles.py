"""Scalar and per-feature kernel references the vectorized code is tested against.

Each family is written out on its own here, independent of the family rules
in ``kpcaig.kernels``: a scalar kernel value, the coordinates of a new point
that it gives, its closed-form partial derivative, the dense n x n
derivative matrix of one feature, and the Gram matrix formulas the package
must reproduce: bit for bit for the inner-product families, and to 1e-12
relative for rbf, whose squared distances come here from explicit row
differences. The permutation baseline has two references: one rebuilds and
eigendecomposes the whole Gram of every permuted matrix, and one keeps the
baseline's earlier form, scipy's top-q ``eigh`` of each permuted Gram.
"""

import numpy as np
import scipy.linalg
from scipy.spatial.distance import pdist, squareform

from kpcaig import Dataset, InputError, KernelSpec
from kpcaig.kernels import center_gram, gram_matrix, kernel_rule, pairwise_base


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


def project_point(model, x) -> np.ndarray:
    """Coordinates of a point x on a fitted model's axes.

    Its kernel row against the training points, from ``eval_kernel``, is
    centred as the rows of the centred training Gram are (minus the column
    means of the model's uncentred Gram, then minus its own mean) and
    multiplied by the model's alphas. On a training point it gives that
    point's row of ``project_training``.
    """
    row = np.array([eval_kernel(model.kernel, x, x_i) for x_i in model.training_data.matrix])
    v = row - model.K.mean(axis=0)
    return (v - v.mean()) @ model.alphas


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


def sq_distances(X) -> np.ndarray:
    """Squared distances between all pairs of rows, from explicit row differences."""
    X = np.asarray(X, dtype=np.float64)
    diff = X[:, None, :] - X[None, :, :]
    return (diff * diff).sum(axis=2)


def gram_formula(spec: KernelSpec, X) -> np.ndarray:
    """Uncentered Gram matrix, one formula per family."""
    X = np.asarray(X, dtype=np.float64)
    if spec.family == "rbf":
        return np.exp(-spec.sigma * sq_distances(X))
    G = X @ X.T
    if spec.family == "linear":
        return _mirror_upper(G)
    return _mirror_upper((G + spec.coef0) ** spec.degree)


def permutation_scores_rebuild(X, spec: KernelSpec, q: int, n_perm: int = 1, seed: int = 0,
                               metric: str = "subspace") -> tuple[np.ndarray, float]:
    """Permutation scores from a full Gram rebuild and eigh per (feature, draw).

    Also returns the smallest q-th eigengap mu_q - mu_{q+1} met over the
    original and every permuted centred Gram: the leading subspace, and so
    the subspace score, is only defined where it is open.
    """
    X = np.array(X, dtype=np.float64)
    n, p = X.shape

    def leading(K):
        mu, V = scipy.linalg.eigh(center_gram(K))
        return V[:, -q:], mu[-q] - mu[-q - 1]

    K = gram_matrix(spec, Dataset.from_matrix(X))
    U, min_gap = leading(K)
    P = U @ U.T
    scores = np.empty(p)
    Xp = X.copy()
    for j in range(p):
        col = X[:, j]
        dists = np.empty(n_perm)
        for r in range(n_perm):
            rng = np.random.default_rng([seed, j, r])
            Xp[:, j] = col[rng.permutation(n)]
            Kp = gram_matrix(spec, Dataset.from_matrix(Xp))
            if metric == "subspace":
                Up, gap = leading(Kp)
                min_gap = min(min_gap, gap)
                dists[r] = float(np.linalg.norm(P - Up @ Up.T, "fro") / np.sqrt(2.0))
            else:
                dists[r] = float(np.linalg.norm(K - Kp, "fro"))
        Xp[:, j] = col
        scores[j] = dists.mean()
    return scores, min_gap


def permutation_scores_subset(data: Dataset, spec: KernelSpec, q: int, n_perm: int = 1,
                              seed: int = 0, metric: str = "subspace") -> np.ndarray:
    """Permutation scores in the baseline's earlier form: each permuted Gram is
    the kernel value of the pairwise base with one column's term swapped, its
    top q eigenvectors come from ``scipy.linalg.eigh(..., subset_by_index=...)``
    of the centred Gram, and both projectors are built on every draw."""
    X = data.matrix
    n, p = X.shape
    rule = kernel_rule(spec)
    base = pairwise_base(data, rule.distance)
    K = gram_matrix(spec, data)

    def leading(Kp):
        return scipy.linalg.eigh(center_gram(Kp), subset_by_index=[n - q, n - 1])[1]

    U = leading(K)
    scores = np.empty(p)
    for j in range(p):
        col = X[:, j]
        t = rule.term(col)
        dists = np.empty(n_perm)
        for r in range(n_perm):
            perm = np.random.default_rng([seed, j, r]).permutation(n)
            Kp = rule.value(base + (rule.term(col[perm]) - t))
            if metric == "subspace":
                V = leading(Kp)
                dists[r] = np.linalg.norm(U @ U.T - V @ V.T, "fro") / np.sqrt(2.0)
            else:
                dists[r] = np.linalg.norm(K - Kp, "fro")
        scores[j] = dists.mean()
    return scores
