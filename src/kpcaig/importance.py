"""Gradient-based variable importance on a kernel PCA embedding.

For each original variable j, the direction of maximum variation of the
embedding is evaluated at every training point: row m of the n x q field
is d_m^T (I - (1/n) 11^T) alpha, where d_m collects the analytic kernel
derivatives d k(x_m, x_i) / d x_m[j] against all training points. The mean
Euclidean norm of these rows is the variable's score; sorting the scores
descending yields the ranking.

With the kernel slope matrix P and the centred alphas B, the fields of a
block of variables are one product P @ [x_j * B]_j, subtracted from
x_j * (P B) for distance kernels (rbf). Blocks fit in FIELD_BLOCK_BYTES, so
the p x n x q tensor is never materialized even for very wide matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InputError
from .kpca import FittedKpca, project_training
from .kernels import kernel_rule

# memory for the n x c x q fields of one block of c variables
FIELD_BLOCK_BYTES = 1 << 21


@dataclass(frozen=True)
class GradientField:
    """Projected maximum-variation directions of one variable, per sample."""

    variable_index: int
    W: np.ndarray  # n x q


@dataclass(frozen=True)
class FeatureRanking:
    scores: np.ndarray           # p mean gradient norms
    stds: np.ndarray             # population std of the n per-sample norms
    order: np.ndarray            # feature indices sorted by score descending
    feature_names: tuple[str, ...]


def _fields(model: FittedKpca, blocks):
    """Yield the n x c x q fields of each column slice in ``blocks``."""
    rule = kernel_rule(model.kernel)
    X = model.training_data.matrix
    P = rule.slope(X, model.K.values)
    B = model.alphas - model.alphas.mean(axis=0)  # (I - (1/n) 11^T) alpha
    PB = P @ B
    for cols in blocks:
        Xb = X[:, cols]
        if rule.distance:
            # x_m[j] - x_i[j] ignores a shift: constant columns give exact zeros
            Xb = Xb - Xb[0]
        XB = Xb[:, :, None] * B[:, None, :]
        W = (P @ XB.reshape(len(X), -1)).reshape(XB.shape)
        if rule.distance:
            W = Xb[:, :, None] * PB[:, None, :] - W
        yield W


def gradient_field(model: FittedKpca, j: int) -> GradientField:
    """n x q matrix of projected gradient directions for variable j."""
    if not 0 <= j < model.p:
        raise InputError(f"feature index {j} out of range for p={model.p}")
    W = next(_fields(model, [slice(j, j + 1)]))
    return GradientField(variable_index=j, W=W[:, 0, :])


def feature_score(model: FittedKpca, j: int) -> tuple[float, float]:
    """Mean and population standard deviation of the per-sample field norms."""
    W = gradient_field(model, j).W
    norms = np.sqrt(np.einsum("ik,ik->i", W, W))
    return float(norms.mean()), float(norms.std())


def rank_features(model: FittedKpca) -> FeatureRanking:
    """Score every variable and sort descending (ties: lower index first)."""
    n, p = model.training_data.matrix.shape
    width = max(1, FIELD_BLOCK_BYTES // (8 * n * model.q))
    blocks = [slice(s, s + width) for s in range(0, p, width)]
    scores = np.empty(p)
    stds = np.empty(p)
    for cols, W in zip(blocks, _fields(model, blocks)):
        norms = np.sqrt(np.einsum("ick,ick->ic", W, W))
        scores[cols] = norms.mean(axis=0)
        stds[cols] = norms.std(axis=0)
    order = np.lexsort((np.arange(p), -scores))
    return FeatureRanking(scores=scores, stds=stds, order=order,
                          feature_names=model.training_data.feature_names)


def arrow_field(model: FittedKpca, j: int, scale: float = 1.0):
    """Per-sample 2-D arrows of variable j on the first two kernel axes.

    Returns a list of ((x, y), (dx, dy)) pairs suitable for quiver plots;
    the arrow components are the first two entries of the variable's
    gradient field rows multiplied by ``scale``.
    """
    if model.q < 2:
        raise InputError(f"arrow field needs q >= 2 retained components, got q={model.q}")
    if scale < 0:
        raise InputError(f"scale must be >= 0, got {scale}")
    coords = project_training(model).coords[:, :2]
    vects = gradient_field(model, j).W[:, :2] * scale
    return [((float(px), float(py)), (float(vx), float(vy)))
            for (px, py), (vx, vy) in zip(coords, vects)]
