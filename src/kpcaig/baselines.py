"""Comparison selectors: Laplacian score and permutation-based kernel importance.

The Laplacian score favours features that respect local neighbourhood
structure (lower is better). The permutation selector scores a feature by
how strongly shuffling its values across samples perturbs the kernel PCA
eigenspace (higher is better); the subspace perturbation is measured with
the projection-matrix Frobenius metric d = ||U U^T - U' U'^T||_F / sqrt(2),
with a plain Frobenius distance between raw Gram matrices available as an
alternative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .data import Dataset
from .exceptions import DegenerateDataError, InputError
from .kernels import KernelSpec, center_gram, gram_matrix, pairwise_base


@dataclass(frozen=True)
class BaselineRanking:
    method: str                  # laplacian | kpca_permute
    scores: np.ndarray
    order: np.ndarray            # best feature first
    direction: str               # lower_is_better | higher_is_better


def laplacian_score(data: Dataset, k_nn: int = 5, t: float | None = None) -> BaselineRanking:
    """Laplacian score over a symmetric k-NN heat-kernel graph.

    Weights are exp(-||x_i - x_j||^2 / t); t defaults to the mean squared
    pairwise distance. Constant features receive a +inf sentinel and always
    rank last.
    """
    X = data.matrix
    n, p = X.shape
    if not 0 < k_nn < n:
        raise InputError(f"k_nn must be in [1, n-1], got {k_nn} for n={n}")
    d2 = pairwise_base(data, True)
    if t is None:
        t = float(d2[np.triu_indices(n, 1)].mean())
    if not t > 0:
        raise DegenerateDataError("heat-kernel width t is not positive "
                                  "(all samples identical?)")
    W = np.zeros((n, n))
    for i in range(n):
        order = np.argsort(d2[i], kind="stable")
        neigh = [m for m in order if m != i][:k_nn]
        W[i, neigh] = np.exp(-d2[i, neigh] / t)
    W = np.maximum(W, W.T)
    deg = W.sum(axis=1)
    if np.any(deg == 0):
        raise DegenerateDataError("neighbourhood graph has an isolated sample")
    deg_total = deg.sum()
    scores = np.empty(p)
    for j in range(p):
        f = X[:, j]
        if np.ptp(f) == 0:
            scores[j] = np.inf
            continue
        fc = f - (f @ deg) / deg_total      # D-weighted mean removal
        den = fc @ (deg * fc)
        num = den - fc @ (W @ fc)           # f^T L f with L = D - W
        scores[j] = num / den
    order = np.lexsort((np.arange(p), scores))
    return BaselineRanking("laplacian", scores, order, "lower_is_better")


def subspace_distance(U: np.ndarray, V: np.ndarray) -> float:
    """Projection-metric distance between the column spans of U and V.

    For orthonormal q-column bases the value lies in [0, sqrt(q)] and is 0
    exactly when the subspaces coincide.
    """
    P = U @ U.T
    Q = V @ V.T
    return float(np.linalg.norm(P - Q, "fro") / np.sqrt(2.0))


def _leading_subspace(K_centered: np.ndarray, q: int) -> np.ndarray:
    evals, evecs = scipy.linalg.eigh(K_centered)
    return evecs[:, ::-1][:, :q]


def permutation_importance(data: Dataset, spec: KernelSpec, q: int,
                           n_perm: int = 1, seed: int = 0,
                           metric: str = "subspace") -> BaselineRanking:
    """Score features by the kernel perturbation their permutation causes.

    For each feature and each draw the column is shuffled across samples,
    the Gram matrix is rebuilt from scratch and the distance to the
    original kernel structure is recorded; the score is the mean over
    draws. Every (feature, draw) pair uses its own seeded substream, so
    parallel and sequential evaluation orders agree exactly.
    """
    if n_perm < 1:
        raise InputError(f"n_perm must be >= 1, got {n_perm}")
    if metric not in ("subspace", "gram"):
        raise InputError(f"metric must be 'subspace' or 'gram', got {metric!r}")
    X = data.matrix
    n, p = X.shape
    if not 1 <= q <= n - 1:
        raise InputError(f"q must be in [1, n-1], got {q}")
    K = gram_matrix(spec, X)
    if metric == "subspace":
        U = _leading_subspace(center_gram(K).values, q)
    scores = np.empty(p)
    Xp = X.copy()
    for j in range(p):
        col = X[:, j]
        dists = np.empty(n_perm)
        for r in range(n_perm):
            rng = np.random.default_rng([seed, j, r])
            Xp[:, j] = col[rng.permutation(n)]
            Kp = gram_matrix(spec, Xp)
            if metric == "subspace":
                Up = _leading_subspace(center_gram(Kp).values, q)
                dists[r] = subspace_distance(U, Up)
            else:
                dists[r] = float(np.linalg.norm(K.values - Kp.values, "fro"))
        Xp[:, j] = col
        scores[j] = dists.mean()
    order = np.lexsort((np.arange(p), -scores))
    return BaselineRanking("kpca_permute", scores, order, "higher_is_better")
