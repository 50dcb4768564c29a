"""Gradient-based variable importance on a kernel PCA embedding.

For each original variable j, the direction of maximum variation of the
embedding is evaluated at every training point: row m of the n x q field
is d_m^T (I - (1/n) 11^T) alpha, where d_m collects the analytic kernel
derivatives d k(x_m, x_i) / d x_m[j] against all training points. The mean
Euclidean norm of these rows is the variable's score; sorting the scores
descending yields the ranking.

With the kernel slope matrix P and the centred alphas B, column k of the
field is P (x_j * B_k) for inner-product kernels, and x_j * (P B_k) minus
that for distance kernels (rbf). Block k of the qn x n slope S is
P diag(B_k), or diag(P B_k) - P diag(B_k) for rbf, so for every family the
fields of a block of variables X_b are the single product S @ X_b, read as
q x n x c. Blocks fit in kernels.BLOCK_BYTES, so the q x n x p tensor is
never materialized even for very wide matrices.

Fields are plain n x q arrays; FeatureRanking is the one ranking type, which
the baselines return too. A ranking raises instead when its top-q axes are
arbitrary: for an rbf Gram that is exactly I (``kpca.check_determined``), and
when the gap at the cut q is below its rounding bound (``kpca.check_gap``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InputError
from .kpca import FittedKpca, check_determined, check_gap, project_training
from .kernels import column_blocks, kernel_rule, pairwise_base


@dataclass(frozen=True)
class FeatureRanking:
    scores: np.ndarray              # p scores
    order: np.ndarray               # feature indices, best first (Laplacian: lowest score)
    stds: np.ndarray | None = None  # kpcaig: population std of the n per-sample norms
    eigengap: tuple[float, float] | None = None  # permute: mu_q - mu_{q+1} and its bound


def _fields(model: FittedKpca, blocks):
    """Yield the q x n x c fields of each column slice in ``blocks``."""
    rule = kernel_rule(model.kernel)
    data = model.training_data
    X = data.matrix
    n, q = model.n, model.q
    P = rule.slope(pairwise_base(data, rule.distance), model.K)
    B = model.alphas - model.alphas.mean(axis=0)  # (I - (1/n) 11^T) alpha
    # block k of S is P diag(B_k): S @ x_j stacks P (x_j * B_k)
    S = B.T[:, None, :] * P[None, :, :]
    if rule.distance:
        # x_j * (P B_k) - P (x_j * B_k): the rbf slope's diagonal is zero
        S = -S
        diag = np.arange(n)
        S[:, diag, diag] += (P @ B).T
    S = S.reshape(q * n, n)
    for cols in blocks:
        Xb = X[:, cols]
        if rule.distance:
            # x_m[j] - x_i[j] ignores a shift: constant columns give exact zeros
            Xb = Xb - Xb[0]
        yield (S @ Xb).reshape(q, n, -1)


def gradient_field(model: FittedKpca, j: int) -> np.ndarray:
    """n x q matrix of projected gradient directions for variable j."""
    if not 0 <= j < model.p:
        raise InputError(f"feature index {j} out of range for p={model.p}")
    check_determined(model.kernel, model.K, model.q)
    return next(_fields(model, [slice(j, j + 1)]))[:, :, 0].T


def rank_features(model: FittedKpca) -> FeatureRanking:
    """Score every variable and sort descending (ties: lower index first).

    Raises DegenerateDataError when the top-q axes are not determined: an rbf
    Gram that is exactly I (``kpca.check_determined``), or a gap at the cut q
    below its rounding bound (``kpca.check_gap``).
    """
    check_determined(model.kernel, model.K, model.q)
    check_gap(model)
    n, p = model.training_data.matrix.shape
    blocks = column_blocks(p, 8 * n * model.q)     # q x n x c fields a block
    scores = np.empty(p)
    stds = np.empty(p)
    for cols, W in zip(blocks, _fields(model, blocks)):
        norms = np.sqrt(np.einsum("kic,kic->ic", W, W))
        scores[cols] = norms.mean(axis=0)
        stds[cols] = norms.std(axis=0)
    order = np.lexsort((np.arange(p), -scores))
    return FeatureRanking(scores, order, stds)


def arrow_field(model: FittedKpca, j: int, scale: float = 1.0):
    """Per-sample 2-D arrows of variable j on the first two kernel axes.

    Returns a list of ((x, y), (dx, dy)) pairs suitable for quiver plots;
    the arrow components are the first two entries of the variable's
    gradient field rows multiplied by ``scale``.
    """
    if model.q < 2:
        raise InputError(f"arrow field needs q >= 2 retained components, got q={model.q}")
    if not 0 <= scale < np.inf:
        raise InputError(f"scale must be finite and >= 0, got {scale}")
    coords = project_training(model)[:, :2]
    vects = gradient_field(model, j)[:, :2] * scale
    return [((float(px), float(py)), (float(vx), float(vy)))
            for (px, py), (vx, vy) in zip(coords, vects)]
