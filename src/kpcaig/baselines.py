"""Comparison selectors: Laplacian score and permutation-based kernel importance.

The Laplacian score favours features that respect local neighbourhood
structure (lower is better); one pair of dense products with the k-NN
graph gives f^T L f / f^T D f for every feature of a block at once. The
permutation selector scores a feature by how strongly shuffling its values
across samples perturbs the leading q kernel PCA eigenvectors (higher is better);
the subspace perturbation is measured with the projection-matrix Frobenius
metric d = ||U U^T - U' U'^T||_F / sqrt(2), with a plain Frobenius distance
between raw Gram matrices available as an alternative. The permuted Gram
comes from the Dataset's pairwise base with one column's term swapped, built
in place in one scratch array, so each (feature, draw) costs O(n^2)
elementwise work and one direct LAPACK ``dsyevr`` call for the top q
eigenpairs: one finiteness check, no workspace query and no input copy.
The reference projector U U^T is formed once per process, not per draw.
Each Gram, the reference and every permuted one, goes to the eigensolver
as ``kernels._double_centred`` transposed (see ``kernels``), unmirrored.
The features are scored in blocks, one per CPU, by this process and forked
children, each running OpenBLAS on one thread; ``parallel.run_in_blocks``
returns all their scores as one array.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .exceptions import DegenerateDataError, InputError
from .importance import FeatureRanking
from .kernels import (KernelSpec, _double_centred, column_blocks, gram_matrix, kernel_rule,
                      overflow_error, pairwise_base)
from .kpca import EIG_DROP_REL, check_determined, check_top_eigenvalue, eigengap_bound, tie_error
from .parallel import run_in_blocks

# fewest cells of permuted Gram worth one more process, a draw counting as
# max(n, 64)^2 cells (below 64 samples its call overhead outweighs its n^2 work):
# on 2 CPUs, timing one call in a process whose BLAS threads were idle, two
# processes broke even with one at about 30 draws for n = 120-165 and 80-150
# for n = 12-60 (subspace metric; gram metric draws are cheaper and gain less)
_DRAW_CELLS_PER_PROCESS = 300_000


def laplacian_score(data: Dataset, k_nn: int = 5, t: float | None = None) -> FeatureRanking:
    """Laplacian score over a symmetric k-NN heat-kernel graph.

    Weights are exp(-||x_i - x_j||^2 / t); t defaults to the mean squared
    pairwise distance. Constant features receive a +inf sentinel and always
    rank last. A sample whose graph degree is 0 or below n eps times the
    largest (t far below its neighbour distances) raises DegenerateDataError
    naming t and the sample.
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
    # below n eps max(degree) a sample's weights sink under the rounding of the
    # D-weighted mean removal, and the scores are set by that rounding; a degree
    # of 0 (every weight underflowed) fails too, even where all degrees and so
    # the floor are 0
    floor = n * np.finfo(np.float64).eps * deg.max()
    i = int(deg.argmin())
    if deg[i] < floor or deg[i] == 0:
        why = ("all its graph weights underflow to 0" if deg[i] == 0 else
               f"its graph degree {deg[i]:.3g} is below the rounding level {floor:.3g} "
               "(n eps max degree)")
        raise DegenerateDataError(
            f"heat-kernel width t={t!r} is too small for sample {data.sample_ids[i]!r}: "
            f"{why}; use a larger t")
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
    # call with 2 OpenBLAS threads (2-vCPU VM, n = 120); einsum uses no BLAS and
    # sums the squares with no temporary
    return float(np.sqrt(np.einsum("ij,ij->", D, D)))


def subspace_distance(U: np.ndarray, V: np.ndarray) -> float:
    """Projection-metric distance between the column spans of U and V.

    For orthonormal q-column bases the value lies in [0, sqrt(q)] and is 0
    exactly when the subspaces coincide.
    """
    return _projection_distance(U @ U.T, V)


def _projection_distance(P: np.ndarray, V: np.ndarray) -> float:
    # subspace_distance with the first span's projector P = U U^T formed by the caller
    D = V @ V.T
    D -= P
    return _frobenius(D) / np.sqrt(2.0)


def _leading_subspace(Kc: np.ndarray, q: int,
                      gap: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Top-q eigenvalues (ascending) and eigenvectors of a finite centred Gram,
    read from its lower triangle, which the call may overwrite; with gap, the
    (q+1)-th pair comes first as well, for the gap mu_q - mu_{q+1} at the cut.

    One direct ``dsyevr`` call for the index range [n-q+1, n] (from n-q with
    gap), at f2py's default workspace of 26 n: no query for the optimal one,
    which was no faster at n = 120 and differs only in rounding. A
    Fortran-ordered Kc, as ``_double_centred(K).T`` is, is used in place, not
    copied. A result with fewer pairs than asked raises: the top q axes, or
    the gap at the cut, are not determined.
    """
    # numpy has no subset eigensolver; only this baseline loads scipy
    from scipy.linalg.lapack import dsyevr

    n, k = len(Kc), q + 1 if gap else q
    mu, U, m, _, info = dsyevr(Kc, range="I", il=n - k + 1, iu=n, lower=1, overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError(f"LAPACK dsyevr failed (info={info})")
    if m < k:     # LAPACK can return fewer pairs on a tied spectrum
        raise DegenerateDataError(f"the top q={q} eigenvalues of the centred Gram matrix are "
                                  f"tied, so its top q={q} eigenvectors are not determined")
    return mu[:k], U


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
    (feature, draw) pair uses its own seeded substream, so the scores do
    not depend on which process draws them.

    The features are split into contiguous blocks, one per CPU
    (``parallel.run_in_blocks``): this process scores the first block and a
    forked child each later one, and every OpenBLAS runs one thread while
    they draw. One process scores them all when the draws are too few for
    ``_DRAW_CELLS_PER_PROCESS``, while another Python thread runs (then
    at the caller's thread counts), where os.fork is missing, or where no
    OpenBLAS is found. A block that no child scored is scored again here,
    at the caller's thread counts, so an error is raised as one process
    would raise it. The subspace metric needs q <= n-2: at q = n-1 the top
    axes span the whole centred space and every distance is rounding noise.
    It also refuses a gap mu_q - mu_{q+1} of the centred Gram below its
    rounding bound (``kpca.eigengap_bound``) with ``kpca.tie_error``; the
    ranking carries that gap and bound, for both metrics. A permuted Gram
    that overflows float64 raises the DegenerateDataError that
    ``gram_matrix`` raises for the unpermuted one.
    """
    if n_perm < 1:
        raise InputError(f"n_perm must be >= 1, got {n_perm}")
    if metric not in ("subspace", "gram"):
        raise InputError(f"metric must be 'subspace' or 'gram', got {metric!r}")
    X = data.matrix
    n, p = X.shape
    if not 1 <= q <= n - 1:
        raise InputError(f"q must be in [1, n-1], got {q}")
    if metric == "subspace" and q > n - 2:
        raise DegenerateDataError(
            f"q={q} is too large for the subspace metric with n={n} samples: a centred Gram "
            f"matrix has rank at most n-1={n - 1}, so its top q={q} eigenvectors span the "
            "whole centred space under every permutation and each distance is rounding "
            "noise; use q <= n-2")
    rule = kernel_rule(spec)
    base = pairwise_base(data, rule.distance)
    K = gram_matrix(spec, data)
    check_determined(spec, K, q)

    def centred(Kp):
        # the eigensolver's input, which LAPACK needs finite
        Kc = _double_centred(Kp).T
        if not np.isfinite(Kc).all():
            raise overflow_error(spec)
        return Kc

    # both metrics refuse a kernel whose spectrum is rounding noise and report
    # the gap at the cut; only the subspace metric reads the top-q axes, so only
    # it needs q within the rank and the gap above its rounding bound
    mu = _leading_subspace(centred(K), q, gap=True)[0]
    check_top_eigenvalue(data, spec, K, mu[-1])
    gap, bound = float(mu[1] - mu[0]), eigengap_bound(K)
    if metric == "subspace":
        rank = int(np.count_nonzero(mu[1:] > EIG_DROP_REL * mu[-1]))
        if rank < q:
            raise DegenerateDataError(
                f"q={q} exceeds the numerical rank of the centred Gram matrix: only {rank} "
                f"of its eigenvalues exceed {EIG_DROP_REL:g} times the largest, so its top "
                f"q={q} eigenvectors are not determined; use q <= {rank}")
        if gap < bound:
            raise tie_error(_leading_subspace(centred(K), n)[0][::-1], q, gap, bound)

    def score(lo, hi):
        if metric == "subspace":
            # the reference projector from the draws' own call at their BLAS thread
            # count, so an unchanged Gram (a constant column) scores 0 exactly
            U = _leading_subspace(centred(K), q)[1]
            P = U @ U.T
        out = np.empty(hi - lo)
        base_p = np.empty((n, n))     # the permuted base, rebuilt in place each draw
        for j in range(lo, hi):
            col = X[:, j]
            t = rule.term(col)
            dists = np.empty(n_perm)
            for r in range(n_perm):
                perm = np.random.default_rng([seed, j, r]).permutation(n)
                rule.term(col[perm], out=base_p)
                base_p -= t
                base_p += base
                Kp = rule.value(base_p)
                if metric == "subspace":
                    dists[r] = _projection_distance(P, _leading_subspace(centred(Kp), q)[1])
                else:
                    dists[r] = _frobenius(K - Kp)
            out[j - lo] = dists.mean()
        return out

    cells = p * n_perm * max(n, 64) ** 2
    with np.errstate(over="ignore", invalid="ignore"):   # the checks say it
        scores = run_in_blocks(p, cells // _DRAW_CELLS_PER_PROCESS, (), score, blas=True)
    # a gram metric distance is infinite or NaN only where a permuted Gram, or
    # its difference from K, overflowed, and then so is the mean
    if not np.isfinite(scores).all():
        raise overflow_error(spec)
    order = np.lexsort((np.arange(p), -scores))
    return FeatureRanking(scores, order, eigengap=(gap, bound))
