"""Kernel PCA: eigendecomposition of the centered Gram matrix and projections.

The centered Gram matrix K~ is diagonalized directly; its eigenvalues mu_k
are kept in descending order and the eigenvectors are rescaled by
1/sqrt(mu_k) so that each principal axis has unit norm in feature space
(alpha_k^T K~ alpha_k = 1). Projections of training or new points then only
require kernel evaluations against the training set.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .data import Dataset
from .exceptions import DegenerateDataError, InputError
from .kernels import (GramMatrix, KernelSpec, center_cross, center_gram,
                      gram_matrix, kernel_row, sigma_heuristic)

# relative cutoff below which an eigenvalue is treated as numerically zero
EIG_DROP_REL = 1e-10


@dataclass(frozen=True)
class FittedKpca:
    """Frozen result of a kernel PCA fit; safe to share across threads."""

    training_data: Dataset
    kernel: KernelSpec
    K: GramMatrix            # uncentered training Gram matrix
    K_centered: GramMatrix
    eigvals: np.ndarray      # q retained eigenvalues of K~, descending
    alphas: np.ndarray       # n x q, scaled so alpha^T K~ alpha = 1 per column
    q: int
    eigval_total: float      # sum of ALL positive eigenvalues of K~

    @property
    def n(self) -> int:
        return self.training_data.n

    @property
    def p(self) -> int:
        return self.training_data.p


@dataclass(frozen=True)
class Embedding:
    coords: np.ndarray             # m x q projected coordinates
    component_variance: np.ndarray  # per-axis share of total variance


def fit_kpca(data: Dataset, spec: KernelSpec, q: int, *,
             allow_unstandardized: bool = False) -> FittedKpca:
    """Fit kernel PCA with q retained components.

    Components whose eigenvalue falls below EIG_DROP_REL * mu_1 are dropped
    (with a warning); the sign of each eigenvector is fixed so its largest
    absolute entry is positive, making refits bit-reproducible.
    """
    if q < 1:
        raise InputError(f"q must be >= 1, got {q}")
    if not data.standardized and not allow_unstandardized:
        warnings.warn("fitting on unstandardized data; feature scales will skew "
                      "rbf distances (pass allow_unstandardized=True to silence)",
                      UserWarning, stacklevel=2)
    n = data.n
    K = gram_matrix(spec, data)
    Kc = center_gram(K)
    evals, evecs = scipy.linalg.eigh(Kc.values)
    evals = evals[::-1]
    evecs = evecs[:, ::-1]
    if evals[0] <= 0:
        raise DegenerateDataError("centered Gram matrix has no positive eigenvalue "
                                  "(all samples identical?)")
    eigval_total = float(evals[evals > 0].sum())
    rank = int(np.count_nonzero(evals > EIG_DROP_REL * evals[0]))
    q_eff = min(q, rank, n - 1)
    if q_eff < q:
        warnings.warn(f"requested q={q} exceeds the numerically valid rank; "
                      f"reduced to q={q_eff}", UserWarning, stacklevel=2)
    mu = np.ascontiguousarray(evals[:q_eff])
    A = np.ascontiguousarray(evecs[:, :q_eff])
    for k in range(q_eff):
        if A[np.argmax(np.abs(A[:, k])), k] < 0:
            A[:, k] = -A[:, k]
    alphas = A / np.sqrt(mu)
    return FittedKpca(training_data=data, kernel=spec, K=K, K_centered=Kc,
                      eigvals=mu, alphas=alphas, q=q_eff, eigval_total=eigval_total)


def project(model: FittedKpca, x) -> np.ndarray:
    """Coordinates of an arbitrary point on the retained kernel axes."""
    Z = kernel_row(model.kernel, model.training_data.matrix, x)
    return center_cross(model.K, Z) @ model.alphas


def project_training(model: FittedKpca) -> Embedding:
    """Training-set coordinates K~ @ alpha together with variance shares."""
    coords = model.K_centered.values @ model.alphas
    return Embedding(coords=coords, component_variance=explained_variance(model))


def explained_variance(model: FittedKpca) -> np.ndarray:
    """Share of total feature-space variance captured by each retained axis.

    The denominator sums all positive eigenvalues of the centered Gram
    matrix, not just the retained ones.
    """
    return model.eigvals / model.eigval_total


@dataclass(frozen=True)
class SigmaRule:
    """How the rbf bandwidth is chosen: fixed value, median heuristic, or a
    grid search maximizing the retained-q explained variance."""

    mode: str                      # fixed | median | grid
    value: float | None = None
    grid: tuple[float, ...] = ()

    def __post_init__(self):
        if self.mode not in ("fixed", "median", "grid"):
            raise InputError(f"unknown sigma mode {self.mode!r}")
        if self.mode == "fixed" and (self.value is None or not 0 < self.value < np.inf):
            raise InputError(f"fixed sigma must be finite and > 0, got {self.value}")
        if self.mode == "grid" and not self.grid:
            raise InputError("grid sigma mode needs a non-empty grid")

    @classmethod
    def parse(cls, text: str) -> "SigmaRule":
        """Parse a CLI-style value: a number, 'median', or 'grid:v1,v2,...'."""
        if text == "median":
            return cls("median")
        grid = text.startswith("grid:")
        try:
            values = tuple(float(v) for v in text[5:].split(",") if v) if grid else float(text)
        except ValueError:
            raise InputError(f"sigma {text!r} is not a number, 'median' or 'grid:v1,...'") from None
        return cls("grid", grid=values) if grid else cls("fixed", value=values)

    def resolve(self, data: Dataset, q: int) -> float:
        if self.mode == "fixed":
            return self.value
        if self.mode == "median":
            return sigma_heuristic(data)
        return grid_search_sigma(data, self.grid, q)


def grid_search_sigma(data: Dataset, grid, q: int) -> float:
    """Pick sigma from a grid, maximizing the summed retained-q variance share."""
    grid = tuple(grid)
    if not grid:
        raise InputError("sigma grid is empty")
    best_sigma, best_score = None, -np.inf
    for sigma in grid:
        model = fit_kpca(data, KernelSpec("rbf", sigma=sigma), q,
                         allow_unstandardized=True)
        score = float(explained_variance(model).sum())
        if score > best_score:
            best_sigma, best_score = sigma, score
    return best_sigma


def resolve_spec(spec: KernelSpec, rule: SigmaRule | None, data: Dataset,
                 q: int) -> KernelSpec:
    """Apply a sigma rule to an rbf spec; other families pass through."""
    if spec.family != "rbf" or rule is None:
        return spec
    return KernelSpec("rbf", sigma=rule.resolve(data, q))
