"""Comparison selectors: Laplacian score and permutation-based kernel importance.

The Laplacian score favours features that respect local neighbourhood structure
(lower is better); one pair of dense products with the k-NN graph gives
f^T L f / f^T D f for every feature of a block at once. The permutation
selector scores a feature by how strongly shuffling its values across samples
perturbs the leading q kernel PCA eigenvectors (higher is better); the subspace
perturbation is measured with the projection-matrix Frobenius metric
d = ||U U^T - U' U'^T||_F / sqrt(2), with a plain Frobenius distance between
raw Gram matrices available as an alternative. The permuted Gram comes from
the Dataset's pairwise base with one column's term swapped, built in place in
one scratch array, so each (feature, draw) costs O(n^2) elementwise work and
one direct LAPACK ``dsyevr`` call for the top q eigenpairs: one finiteness
check, no workspace query and no input copy, from numpy's own OpenBLAS
wherever it exports the routine, so the baseline then imports no scipy
(``_dsyevr``). The unpermuted Gram, its spectrum, q and their checks are a
fitted model's (``kpca.fit_kpca``); the reference projector U U^T is formed
once per process, not per draw. Each Gram, the reference and every permuted
one, goes to the eigensolver as ``kernels._double_centred`` transposed (see
``kernels``), unmirrored.
"""

from __future__ import annotations

import functools

import numpy as np

from .data import Dataset
from .exceptions import DegenerateDataError, InputError
from .importance import FeatureRanking
from .kernels import (KernelSpec, _double_centred, column_blocks, kernel_rule, overflow_error,
                      pairwise_base)
from .kpca import FittedKpca, check_determined, check_gap, fit_kpca
from .parallel import _openblas_libraries, run_in_blocks

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


def _projection_distance(P: np.ndarray, V: np.ndarray) -> float:
    # the projection metric, 0 to sqrt(q), between span(U), given as P = U U^T, and span(V)
    D = V @ V.T
    D -= P
    return _frobenius(D) / np.sqrt(2.0)


# numpy's own OpenBLAS (the scipy-openblas64 build its wheels bundle) exports
# LAPACKE's C entry points with 64-bit integers under this name; through the C
# ABI a call passes no hidden Fortran string lengths
_LAPACKE_DSYEVR = "scipy_LAPACKE_dsyevr_work64_"
_COL_MAJOR = 102   # LAPACK_COL_MAJOR: the routine reads the matrix as Fortran does


@functools.cache
def _numpy_dsyevr():
    """numpy's own LAPACKE ``dsyevr_work`` with 64-bit integers, as a ctypes
    function, or None where no loaded OpenBLAS exports it (MKL, Accelerate, a
    distro OpenBLAS, no /proc). Looked up once per process."""
    import ctypes

    for lib in _openblas_libraries():
        if hasattr(lib, _LAPACKE_DSYEVR):
            fn = getattr(lib, _LAPACKE_DSYEVR)
            i, x, c, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_char, ctypes.c_void_p
            # layout, jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m, w, z,
            # ldz, isuppz, work, lwork, iwork, liwork
            fn.argtypes = [ctypes.c_int, c, c, c, i, ptr, i, x, x, i, i, x, ptr, ptr, ptr,
                           i, ptr, ptr, i, ptr, i]
            fn.restype = i
            return fn
    return None


def _dsyevr(a: np.ndarray, il: int, iu: int) -> tuple[np.ndarray, np.ndarray, int, int]:
    """LAPACK ``dsyevr``'s eigenpairs il..iu (1-based, ascending) of the symmetric
    a, read from its lower triangle with abstol 0, as ``(w, z, m, info)``: the m
    eigenvalues found lead w, z holds their vectors in its first m columns.

    The routine is numpy's own (``_numpy_dsyevr``), at f2py's default workspaces
    of 26 n doubles and 10 n integers, so its results equal
    ``scipy.linalg.lapack.dsyevr``'s of the same OpenBLAS release bit for bit and
    no scipy, with its second OpenBLAS, is loaded. Only where numpy's LAPACK
    exports no such routine does the call go through scipy's wrapper. Either way
    a Fortran-ordered float64 a is overwritten in place and any other is copied.
    """
    n = len(a)
    dsyevr = _numpy_dsyevr()
    if dsyevr is None:
        from scipy.linalg.lapack import dsyevr as scipy_dsyevr

        w, z, m, _, info = scipy_dsyevr(a, range="I", il=il, iu=iu, lower=1, overwrite_a=1)
        return w, z, m, info
    a = np.require(a, np.float64, "FAW")
    if a.shape != (n, n):      # LAPACK would read past the buffer
        raise ValueError(f"dsyevr needs a square matrix, got shape {a.shape}")
    w, z, work = np.empty(n), np.empty((iu - il + 1, n)).T, np.empty(26 * n)
    m, isuppz, iwork = (np.empty(size, np.int64) for size in (1, 2 * n, 10 * n))
    info = dsyevr(_COL_MAJOR, b"V", b"I", b"L", n, a.ctypes.data, n, 0.0, 1.0, il, iu, 0.0,
                  m.ctypes.data, w.ctypes.data, z.ctypes.data, n, isuppz.ctypes.data,
                  work.ctypes.data, 26 * n, iwork.ctypes.data, 10 * n)
    return w, z, int(m[0]), info


def _leading_subspace(Kc: np.ndarray, q: int) -> np.ndarray:
    """The top-q eigenvectors, by ascending eigenvalue, of a finite centred Gram,
    read from its lower triangle, which the call may overwrite: the reference
    projector of each block of features and every permuted Gram's axes.

    One direct ``dsyevr`` call for the index range [n-q+1, n]: no query for
    the optimal workspace, which was no faster at n = 120 and differs only in
    rounding. The routine comes from the LAPACK numpy loaded, through ctypes,
    and from scipy's wrapper only where numpy's LAPACK exports no ILP64
    ``dsyevr`` (see ``_dsyevr``). A Fortran-ordered Kc, as
    ``_double_centred(K).T`` is, is used in place, not copied. A result with
    fewer pairs than asked raises: the top q axes are not determined.
    """
    n = len(Kc)
    _, U, m, info = _dsyevr(Kc, n - q + 1, n)
    if info:
        raise np.linalg.LinAlgError(f"LAPACK dsyevr failed (info={info})")
    if m < q:     # LAPACK can return fewer pairs on a tied spectrum
        raise DegenerateDataError(f"the top q={q} eigenvalues of the centred Gram matrix are "
                                  f"tied, so its top q={q} eigenvectors are not determined")
    return U


def permutation_importance(data: Dataset, spec: KernelSpec, q: int,
                           n_perm: int = 1, seed: int = 0,
                           metric: str = "subspace") -> FeatureRanking:
    """``permutation_ranking`` of the kernel PCA fit of spec with q components."""
    return permutation_ranking(fit_kpca(data, spec, q), n_perm, seed, metric)


def permutation_ranking(model: FittedKpca, n_perm: int = 1, seed: int = 0,
                        metric: str = "subspace") -> FeatureRanking:
    """Score the features of a fit by the kernel perturbation their permutation causes.

    For each feature and each draw the column is shuffled across samples
    and the distance to the fit's kernel structure is recorded; the score
    is the mean over draws. Shuffling column j changes one term of the
    pairwise base, t_j = (x_ij - x_kj)^2 for squared distances or x_ij x_kj
    for inner products, so the permuted Gram is the kernel value of base +
    (t_j(perm) - t_j): no Gram is rebuilt, and a constant column reproduces
    the base bitwise and scores exactly 0. Every (feature, draw) pair uses
    its own seeded substream, so the scores do not depend on which process
    draws them.

    The features are scored in contiguous blocks, one process per CPU with
    every OpenBLAS on one thread (``parallel.run_in_blocks``), and in one
    process when the draws are too few for ``_DRAW_CELLS_PER_PROCESS``.
    K, its spectrum and q are the fit's, q as the fit lowered it. The gram
    metric refuses an rbf K ~ I (``kpca.check_determined``). The subspace
    metric reads the top-q axes, so it needs q <= n-2 (at q = n-1 they span
    the whole centred space and every distance is rounding noise) and a fit
    that ``kpca.check_gap`` passes: no K ~ I and no tie at the cut. A
    permuted Gram that overflows float64 raises the DegenerateDataError that
    ``gram_matrix`` raises for the unpermuted one.
    """
    if n_perm < 1:
        raise InputError(f"n_perm must be >= 1, got {n_perm}")
    if metric not in ("subspace", "gram"):
        raise InputError(f"metric must be 'subspace' or 'gram', got {metric!r}")
    data, spec, K, q = model.training_data, model.kernel, model.K, model.q
    X = data.matrix
    n, p = X.shape
    if metric == "subspace" and q > n - 2:
        raise DegenerateDataError(
            f"q={q} is too large for the subspace metric with n={n} samples: a centred Gram "
            f"matrix has rank at most n-1={n - 1}, so its top q={q} eigenvectors span the "
            "whole centred space under every permutation and each distance is rounding "
            "noise; use q <= n-2")
    (check_gap if metric == "subspace" else check_determined)(model)
    rule = kernel_rule(spec)
    base = pairwise_base(data, rule.distance)

    def centred(Kp):
        # the eigensolver's input, which LAPACK needs finite
        Kc = _double_centred(Kp).T
        if not np.isfinite(Kc).all():
            raise overflow_error(spec)
        return Kc

    def score(lo, hi):
        if metric == "subspace":
            # the reference projector from the draws' own call at their BLAS thread
            # count, so an unchanged Gram (a constant column) scores 0 exactly
            U = _leading_subspace(centred(K), q)
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
                    dists[r] = _projection_distance(P, _leading_subspace(centred(Kp), q))
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
    return FeatureRanking(scores, order)
