"""Comparison selectors: Laplacian score and permutation-based kernel importance.

The Laplacian score favours features that respect local neighbourhood
structure (lower is better); one pair of dense products with the k-NN
graph gives f^T L f / f^T D f for every feature of a block at once. The
permutation selector scores a feature by how strongly shuffling its values
across samples perturbs the leading q kernel PCA eigenvectors (higher is better);
the subspace perturbation is measured with the projection-matrix Frobenius
metric d = ||U U^T - U' U'^T||_F / sqrt(2), with a plain Frobenius distance
between raw Gram matrices available as an alternative. The permuted Gram
comes from the Dataset's pairwise base with one column's term swapped, so
each (feature, draw) costs O(n^2) elementwise work and one top-q eigensolve.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .exceptions import DegenerateDataError, InputError
from .importance import FeatureRanking
from .kernels import KernelSpec, center_gram, column_blocks, kernel_rule, pairwise_base
from .kpca import EIG_DROP_REL, check_determined, check_top_eigenvalue


def laplacian_score(data: Dataset, k_nn: int = 5, t: float | None = None) -> FeatureRanking:
    """Laplacian score over a symmetric k-NN heat-kernel graph.

    Weights are exp(-||x_i - x_j||^2 / t); t defaults to the mean squared
    pairwise distance. Constant features receive a +inf sentinel and always
    rank last. A sample whose graph degree is below n eps times the largest
    (t far below its neighbour distances) raises DegenerateDataError.
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
    elif not 0 < t < np.inf:
        raise InputError(f"heat-kernel width t must be finite and > 0, got {t}")
    # the self-distance sorts last, so each row's first k_nn are its neighbours
    neigh = np.argsort(d2 + np.diag(np.full(n, np.inf)), axis=1, kind="stable")[:, :k_nn]
    rows = np.arange(n)[:, None]
    W = np.zeros((n, n))
    W[rows, neigh] = np.exp(-d2[rows, neigh] / t)
    W = np.maximum(W, W.T)
    deg = W.sum(axis=1)
    if np.any(deg == 0):
        raise DegenerateDataError("neighbourhood graph has an isolated sample")
    # below n eps max(degree) a sample's weights sink under the rounding of the
    # D-weighted mean removal, and the scores are set by that rounding
    floor = n * np.finfo(np.float64).eps * deg.max()
    if deg.min() < floor:
        i = int(deg.argmin())
        raise DegenerateDataError(
            f"heat-kernel width t={t!r} is too small for sample {data.sample_ids[i]!r}: "
            f"its graph degree {deg[i]:.3g} is below the rounding level {floor:.3g} "
            "(n eps max degree); use a larger t")
    mean = (deg @ X) / deg.sum()
    scores = np.full(p, np.inf)
    varying = np.ptp(X, axis=0) > 0
    for cols in column_blocks(p, 8 * n):             # two n x c temporaries a block
        F = X[:, cols] - mean[cols]                   # D-weighted mean removal
        den = np.einsum("ij,i,ij->j", F, deg, F)
        num = den - np.einsum("ij,ij->j", F, W @ F)  # f^T L f with L = D - W
        np.divide(num, den, out=scores[cols], where=varying[cols])
    order = np.lexsort((np.arange(p), scores))
    return FeatureRanking(scores, order)


def _frobenius(D: np.ndarray) -> float:
    # not np.linalg.norm: its BLAS ddot over n^2 entries took ~9 ms right after a LAPACK
    # call with 2 OpenBLAS threads (2-vCPU VM, n = 120); this sum uses no BLAS
    return float(np.sqrt((D * D).sum()))


def subspace_distance(U: np.ndarray, V: np.ndarray) -> float:
    """Projection-metric distance between the column spans of U and V.

    For orthonormal q-column bases the value lies in [0, sqrt(q)] and is 0
    exactly when the subspaces coincide.
    """
    return _frobenius(U @ U.T - V @ V.T) / np.sqrt(2.0)


def _leading_subspace(K_centered: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-q eigenvalues (ascending) and eigenvectors of a centred Gram."""
    import scipy.linalg     # numpy's eigh has no subset; only this baseline loads scipy

    n = len(K_centered)
    mu, U = scipy.linalg.eigh(K_centered, subset_by_index=[n - q, n - 1])
    if len(mu) < q:     # LAPACK can return fewer pairs on a tied spectrum
        raise DegenerateDataError(f"the top q={q} eigenvalues of the centred Gram matrix are "
                                  f"tied, so its top q={q} eigenvectors are not determined")
    return mu, U


def permutation_importance(data: Dataset, spec: KernelSpec, q: int,
                           n_perm: int = 1, seed: int = 0,
                           metric: str = "subspace") -> FeatureRanking:
    """Score features by the kernel perturbation their permutation causes.

    For each feature and each draw the column is shuffled across samples
    and the distance to the original kernel structure is recorded; the
    score is the mean over draws. Shuffling column j changes one term of
    the pairwise base, t_j = (x_ij - x_kj)^2 for squared distances or
    x_ij x_kj for inner products, so the permuted Gram is the kernel value
    of base + (t_j(perm) - t_j): no Gram is rebuilt, and a constant
    column reproduces the base bitwise and scores exactly 0. Every
    (feature, draw) pair uses its own seeded substream, so parallel and
    sequential evaluation orders agree exactly.
    """
    if n_perm < 1:
        raise InputError(f"n_perm must be >= 1, got {n_perm}")
    if metric not in ("subspace", "gram"):
        raise InputError(f"metric must be 'subspace' or 'gram', got {metric!r}")
    X = data.matrix
    n, p = X.shape
    if not 1 <= q <= n - 1:
        raise InputError(f"q must be in [1, n-1], got {q}")
    rule = kernel_rule(spec)
    base = pairwise_base(data, rule.distance)
    K = rule.value(base)
    check_determined(spec, K, q)
    if metric == "subspace":
        mu, U = _leading_subspace(center_gram(K), q)
        check_top_eigenvalue(data, spec, K, mu[-1])
        rank = int(np.count_nonzero(mu > EIG_DROP_REL * mu[-1]))
        if rank < q:
            raise DegenerateDataError(
                f"q={q} exceeds the numerical rank of the centred Gram matrix: only {rank} "
                f"of its eigenvalues exceed {EIG_DROP_REL:g} times the largest, so its top "
                f"q={q} eigenvectors are not determined; use q <= {rank}")
    scores = np.empty(p)
    for j in range(p):
        col = X[:, j]
        t = rule.term(col)
        dists = np.empty(n_perm)
        for r in range(n_perm):
            perm = np.random.default_rng([seed, j, r]).permutation(n)
            Kp = rule.value(base + (rule.term(col[perm]) - t))
            if metric == "subspace":
                dists[r] = subspace_distance(U, _leading_subspace(center_gram(Kp), q)[1])
            else:
                dists[r] = _frobenius(K - Kp)
        scores[j] = dists.mean()
    order = np.lexsort((np.arange(p), -scores))
    return FeatureRanking(scores, order)
