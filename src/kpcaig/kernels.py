"""Kernel families, Gram matrices, kernel slopes and centering.

Each family is one rule k(x, y) = value(b) over a pairwise base b:

    rbf        : b = ||x - y||^2,  k = exp(-sigma * b)
    linear     : b = <x, y>,       k = b
    polynomial : b = <x, y>,       k = (b + coef0)^degree

The rule's slope matrix P over training pairs gives every first derivative
with respect to one coordinate j of the first argument:
d k(x_m, x_i) / d x_m[j] is P[m, i] * (x_m[j] - x_i[j]) for the distance
base and P[m, i] * x_i[j] for the inner-product base. The distance slope has
a zero diagonal: P[m, m] multiplies x_m[j] - x_m[j] = 0, and a nonzero value
would only cancel between the field products when K is near the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from .exceptions import DegenerateDataError, InputError

FAMILIES = ("rbf", "linear", "polynomial")


@dataclass(frozen=True)
class KernelSpec:
    family: str = "rbf"
    sigma: float | None = None    # rbf bandwidth, k = exp(-sigma * d^2)
    degree: int = 2               # polynomial only
    coef0: float = 1.0            # polynomial only

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InputError(f"unknown kernel family {self.family!r}")
        if self.family == "rbf":
            if self.sigma is None or not 0 < self.sigma < np.inf:
                raise InputError(f"rbf kernel needs a finite sigma > 0, got {self.sigma}")
        if self.family == "polynomial":
            if int(self.degree) != self.degree or self.degree < 1:
                raise InputError(f"polynomial degree must be an integer >= 1, got {self.degree}")


@dataclass(frozen=True)
class GramMatrix:
    """Pairwise kernel similarities; ``centered`` marks double-centering."""

    values: np.ndarray
    centered: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise InputError(f"Gram matrix must be square, got shape {v.shape}")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def _as_matrix(data) -> np.ndarray:
    X = getattr(data, "matrix", data)
    return np.asarray(X, dtype=np.float64)


def _mirror_upper(M: np.ndarray) -> np.ndarray:
    # bitwise symmetry: each off-diagonal pair stored once, then mirrored
    U = np.triu(M)
    return U + np.triu(M, 1).T


@dataclass(frozen=True)
class KernelRule:
    """One kernel family with its parameters bound (see the module docstring)."""

    distance: bool                                          # b = ||x - y||^2, else <x, y>
    value: Callable[[np.ndarray], np.ndarray]               # k from b
    slope: Callable[[np.ndarray, np.ndarray], np.ndarray]   # P from training X and its K

    def base(self, X: np.ndarray, x: np.ndarray | None = None) -> np.ndarray:
        """Base b over all pairs of rows of X, or between x and each row."""
        if x is None:
            return squareform(pdist(X, "sqeuclidean")) if self.distance else _mirror_upper(X @ X.T)
        return cdist(x[None, :], X, "sqeuclidean")[0] if self.distance else X @ x


def kernel_rule(spec: KernelSpec) -> KernelRule:
    """The rule of spec's kernel family."""
    if spec.family == "rbf":
        s = spec.sigma
        # dk/db = -sigma * k and db/dx_m[j] = 2 * (x_m[j] - x_i[j])
        return KernelRule(True, lambda d2: np.exp(-s * d2),
                          lambda X, K: -2.0 * s * (K - np.eye(len(K))))
    if spec.family == "linear":
        return KernelRule(False, lambda g: g, lambda X, K: np.ones_like(K))
    c, d = spec.coef0, spec.degree
    return KernelRule(False, lambda g: (g + c) ** d,
                      lambda X, K: float(d) * (X @ X.T + c) ** (d - 1))


def kernel_row(spec: KernelSpec, X, x) -> np.ndarray:
    """Vector (k(x, x_i))_i over the rows of X."""
    X = _as_matrix(X)
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size != X.shape[1]:
        raise InputError(f"point has {x.size} coords, training data has p={X.shape[1]}")
    rule = kernel_rule(spec)
    return rule.value(rule.base(X, x))


def gram_matrix(spec: KernelSpec, data) -> GramMatrix:
    """Uncentered n x n Gram matrix of all pairwise similarities."""
    X = _as_matrix(data)
    n = X.shape[0]
    if n < 2:
        raise InputError(f"need at least 2 samples, got n={n}")
    rule = kernel_rule(spec)
    return GramMatrix(rule.value(rule.base(X)), centered=False)


def center_gram(K: GramMatrix) -> GramMatrix:
    """Double-center a Gram matrix so feature-space coordinates have zero mean.

    Idempotent: centering an already centered matrix is a no-op up to
    rounding.
    """
    V = K.values
    row = V.mean(axis=1)
    col = V.mean(axis=0)
    grand = V.mean()
    out = V - row[:, None] - col[None, :] + grand
    return GramMatrix(_mirror_upper(out), centered=True)


def center_cross(K: GramMatrix, Z) -> np.ndarray:
    """Centered cross-kernel row (Z^T - (1/n) 1^T K)(I - (1/n) 11^T).

    K is the raw (uncentered) training Gram matrix and Z the kernel values
    of a query point against the training points. When the query equals
    training point m the result is row m of the centered Gram matrix.
    """
    if K.centered:
        raise InputError("center_cross expects the uncentered training Gram matrix")
    Z = np.asarray(Z, dtype=np.float64).ravel()
    if Z.size != K.n:
        raise InputError(f"cross-kernel vector has length {Z.size}, expected n={K.n}")
    v = Z - K.values.mean(axis=0)
    return v - v.mean()


def sigma_heuristic(data) -> float:
    """Default rbf bandwidth: inverse median squared pairwise distance."""
    X = _as_matrix(data)
    if X.shape[0] < 2:
        raise InputError(f"need at least 2 samples, got n={X.shape[0]}")
    med = float(np.median(pdist(X, "sqeuclidean")))
    if med <= 0:
        raise DegenerateDataError("all pairwise distances vanish; cannot pick a bandwidth")
    return 1.0 / med
