"""Independent numpy references for the outputs the benchmark checks.

Nothing here imports kpcaig. The formulas are written from the method's
definitions and evaluated in a different order from the package (explicit
centring matrix, numpy's eigh, one batched product per component for the
gradient fields), so a shared mistake is unlikely and agreement to 1e-12
relative is meaningful.
"""

from __future__ import annotations

import numpy as np

RANK_RTOL = 1e-12     # ranking scores (the project's acceptance criterion)
VALUE_RTOL = 1e-9     # derived quantities: permutation distances, Laplacian, shares


def standardize(X):
    """Zero-mean, unit population-variance columns; constant columns become 0."""
    C = X - X.mean(axis=0)
    sd = np.sqrt((C * C).mean(axis=0))
    const = sd == 0
    C[:, ~const] /= sd[~const]
    C[:, const] = 0.0
    return C


def sq_dists(X):
    """Pairwise squared Euclidean distances from explicit differences."""
    n = X.shape[0]
    D = np.zeros((n, n))
    for i in range(n - 1):
        diff = X[i + 1:] - X[i]
        D[i, i + 1:] = np.einsum("ij,ij->i", diff, diff)
    return D + D.T


def median_sigma(D):
    """Inverse median squared distance over distinct pairs."""
    return 1.0 / np.median(D[np.triu_indices_from(D, 1)])


def gram(X, kernel, D=None):
    """Uncentred Gram matrix; ``kernel`` is ("rbf", sigma), ("linear",) or
    ("polynomial", degree, coef0).

    For rbf this returns K - 11^T via expm1. Centring and products with
    centred vectors are unchanged by the constant, and the small entries
    keep full precision when sigma * d^2 is tiny (a grid pick of 1e-7).
    """
    if kernel[0] == "rbf":
        return np.expm1(-kernel[1] * (sq_dists(X) if D is None else D))
    if kernel[0] == "linear":
        return X @ X.T
    _, degree, coef0 = kernel
    return (X @ X.T + coef0) ** degree


def center(K):
    n = K.shape[0]
    H = np.eye(n) - np.full((n, n), 1.0 / n)
    return H @ K @ H


def kpca(K, q):
    """(alphas, Kc): top-q eigenvectors of the centred Gram matrix, each with
    its largest absolute entry positive and scaled by 1/sqrt(eigenvalue)."""
    Kc = center(K)
    w, V = np.linalg.eigh(Kc)
    w, U = w[::-1][:q], V[:, ::-1][:, :q].copy()
    for k in range(q):
        if U[np.argmax(np.abs(U[:, k])), k] < 0:
            U[:, k] = -U[:, k]
    return U / np.sqrt(w), Kc


def retained_share(K, q):
    w = np.linalg.eigvalsh(center(K))[::-1]
    return w[:q].sum() / w[w > 0].sum()


def gradient_fields(X, kernel, K, alphas, columns=None):
    """F[k] (n x p) holds component k of every variable's projected field.

    Row m of variable j's field is sum_i dk(x_m, x_i)/dx_m[j] * B[i, :],
    B the column-centred alphas. For rbf, dk/dx_m[j] = -2 sigma K[m, i]
    (x_mj - x_ij), which expands into two products per component; ``K``
    is the offset matrix from ``gram`` and the 11^T term is added back as
    column sums.
    """
    Xc = X if columns is None else X[:, columns]
    B = alphas - alphas.mean(axis=0)
    if kernel[0] == "polynomial":
        _, degree, coef0 = kernel
        P = degree * (X @ X.T + coef0) ** (degree - 1)
    out = []
    for b in B.T:
        if kernel[0] == "rbf":
            Xb = Xc * b[:, None]
            Kb = K @ b + b.sum()
            KXb = K @ Xb + Xb.sum(axis=0)
            out.append(-2.0 * kernel[1] * (Xc * Kb[:, None] - KXb))
        elif kernel[0] == "linear":
            out.append(np.broadcast_to(Xc.T @ b, Xc.shape))
        else:
            out.append(P @ (Xc * b[:, None]))
    return np.stack(out)


def rank(X, kernel, q, D=None):
    """Reference gradient ranking: (scores, stds, order), ties to the lower index."""
    K = gram(X, kernel, D)
    alphas, _ = kpca(K, q)
    F = gradient_fields(X, kernel, K, alphas)
    norms = np.sqrt((F * F).sum(axis=0))
    scores, stds = norms.mean(axis=0), norms.std(axis=0)
    return scores, stds, np.lexsort((np.arange(X.shape[1]), -scores))


def arrows(X, kernel, q, j, D=None):
    """(coords, vectors) of variable j on the first two kernel axes."""
    K = gram(X, kernel, D)
    alphas, Kc = kpca(K, q)
    coords = Kc @ alphas[:, :2]
    F = gradient_fields(X, kernel, K, alphas, columns=[j])
    return coords, F[:2, :, 0].T


def grid_pick(X, grid, q, D):
    """First sigma in the grid with the largest retained-q variance share."""
    shares = [retained_share(gram(X, ("rbf", s), D), q) for s in grid]
    return grid[int(np.argmax(shares))]


def laplacian(X, k_nn=5):
    """Laplacian scores on the symmetrised k-NN heat-kernel graph."""
    n = X.shape[0]
    D = sq_dists(X)
    t = D[np.triu_indices(n, 1)].mean()
    W = np.zeros((n, n))
    for i in range(n):
        others = np.delete(np.arange(n), i)
        near = others[np.argsort(D[i, others], kind="stable")[:k_nn]]
        W[i, near] = np.exp(-D[i, near] / t)
    W = np.maximum(W, W.T)
    d = W.sum(axis=1)
    F = X - (d @ X) / d.sum()
    L = np.diag(d) - W
    scores = np.einsum("ij,ij->j", F, L @ F) / np.einsum("ij,i,ij->j", F, d, F)
    scores[np.ptp(X, axis=0) == 0] = np.inf
    return scores


def permutation_score(X, sigma, q, seed, j, n_perm=1):
    """Mean projection distance between the top-q eigenspaces before and after
    shuffling column j with the ``default_rng([seed, j, r])`` stream."""
    def subspace(M):
        _, V = np.linalg.eigh(center(gram(M, ("rbf", sigma))))
        U = V[:, ::-1][:, :q]
        return U @ U.T
    P = subspace(X)
    out = []
    for r in range(n_perm):
        Xp = X.copy()
        Xp[:, j] = X[np.random.default_rng([seed, j, r]).permutation(X.shape[0]), j]
        out.append(np.linalg.norm(P - subspace(Xp)) / np.sqrt(2.0))
    return float(np.mean(out))


def close(actual, expected, rtol, atol=0.0) -> bool:
    """Elementwise |a - e| <= rtol * |e| + atol with matching shapes."""
    a = np.asarray(actual, dtype=np.float64)
    e = np.asarray(expected, dtype=np.float64)
    return a.shape == e.shape and bool(np.all(np.abs(a - e) <= rtol * np.abs(e) + atol))


def ranking_errors(order, scores, ref_order, ref_scores, rtol=RANK_RTOL):
    """Messages for a ranking that differs from the reference, else []."""
    errors = []
    if not np.array_equal(np.asarray(order), ref_order):
        first = int(np.flatnonzero(np.asarray(order) != ref_order)[0])
        errors.append(f"order differs from the reference at rank {first + 1}")
    if not close(scores, ref_scores, rtol):
        rel = np.max(np.abs(np.asarray(scores) - ref_scores) / np.abs(ref_scores))
        errors.append(f"scores differ from the reference by {rel:.3g} relative")
    return errors
