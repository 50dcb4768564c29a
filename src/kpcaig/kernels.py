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

``pairwise_base`` computes the base over all pairs of rows once per Dataset;
the median heuristic, every Gram matrix (one per grid sigma), the slope and
the permutation baseline reuse it. The base is a sum over columns, and
``KernelRule.term`` gives one column's summand, (x_ij - x_kj)^2 or x_ij x_kj.
Gram matrices are plain arrays.

Double centring, K - 1K - K1 + 1K1, is written once, in ``_double_centred``.
``center_gram`` mirrors its upper triangle. The eigensolvers read the lower
triangle of its transpose (``_eigh_input``), which is center_gram's bits.

Squared distances come from the inner products of the column-centred rows,
G = Xc Xc^T: d_ij = g_i + g_j - 2 G_ij with g_i = G_ii. G is one GEMM per
2 MB block of centred columns, so no centred copy of the whole matrix is
made. Centring changes no distance and keeps g small next to d. The
formula loses digits to cancellation only where d_ij is small against
g_i + g_j, so every pair with d_ij <= (g_i + g_j) / 64 is computed again
from its explicit row difference: duplicate rows give exactly 0 and no
distance is negative. A pair kept from the GEMM has a relative error of at
most about 64 times the rounding of g_i + g_j. Against the explicit
difference sum, distances stayed within 1e-15 relative on 60 x 500 normal
data, with column offsets of 1e3 and 1e6, near-duplicate rows or tight
clusters (scipy's pdist: 9e-15), and within 1.1e-13 over 3000 random mixes
of these cases up to 40 x 300.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Dataset
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
                raise InputError(f"sigma must be finite and > 0, got {self.sigma}")
        if self.family == "polynomial":
            if int(self.degree) != self.degree or self.degree < 1:
                raise InputError(f"polynomial degree must be an integer >= 1, got {self.degree}")
            if not np.isfinite(self.coef0):
                raise InputError(f"polynomial coef0 must be finite, got {self.coef0}")


def _mirror_upper(M: np.ndarray) -> np.ndarray:
    # bitwise symmetry: each off-diagonal pair stored once, then mirrored
    U = np.triu(M)
    return U + np.triu(M, 1).T


# a pair with d_ij <= (g_i + g_j) / NEAR_PAIR is computed from explicit differences
NEAR_PAIR = 64
# memory for one block of columns: the centred columns of the distance GEMM, a
# block of importance fields or a Laplacian score temporary
BLOCK_BYTES = 1 << 21


def column_blocks(p: int, column_bytes: int) -> list[slice]:
    """Slices over p columns, as many per block as fit in BLOCK_BYTES (at least one)."""
    width = max(1, BLOCK_BYTES // column_bytes)
    return [slice(s, s + width) for s in range(0, p, width)]


def _sq_distances(X: np.ndarray) -> np.ndarray:
    """Squared distances between all pairs of rows (see the module docstring)."""
    n, p = X.shape
    mean = X.mean(axis=0)
    G = np.zeros((n, n))
    for cols in column_blocks(p, 8 * n):
        B = X[:, cols] - mean[cols]
        G += B @ B.T
    g = np.diag(G)                          # so d_ii = 2 G_ii - 2 G_ii = 0 exactly
    scale = g[:, None] + g[None, :]
    D = scale - 2.0 * G
    near = np.triu(D <= scale / NEAR_PAIR, 1)
    for i in np.flatnonzero(near.any(axis=1)):
        js = np.flatnonzero(near[i])
        diff = X[js] - X[i]                 # at most one n x p block at a time
        D[i, js] = np.einsum("ij,ij->i", diff, diff)
    return _mirror_upper(D)


def _pairs(X: np.ndarray, distance: bool) -> np.ndarray:
    return _sq_distances(X) if distance else _mirror_upper(X @ X.T)


def pairwise_base(data: Dataset, distance: bool) -> np.ndarray:
    """Squared distances (distance=True) or inner products over all pairs of rows.

    Each base is computed once per Dataset and kept, read-only, for every
    later bandwidth, Gram matrix and slope. Every kernel path starts here,
    so this is where fewer than 2 samples raise InputError.
    """
    if data.n < 2:
        raise InputError(f"need at least 2 samples, got n={data.n}")
    if distance not in data._bases:
        b = _pairs(data.matrix, distance)
        b.flags.writeable = False
        data._bases[distance] = b
    return data._bases[distance]


@dataclass(frozen=True)
class KernelRule:
    """One kernel family with its parameters bound (see the module docstring)."""

    distance: bool                                          # b = ||x - y||^2, else <x, y>
    value: Callable[[np.ndarray], np.ndarray]               # k from b
    slope: Callable[[np.ndarray, np.ndarray], np.ndarray]   # P from the training b and K

    def term(self, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """One column c's summand of the base over all pairs of rows, written
        to out when it is given."""
        if not self.distance:
            return np.multiply.outer(c, c, out=out)
        d = np.subtract.outer(c, c, out=out)
        return np.square(d, out=d)


def kernel_rule(spec: KernelSpec) -> KernelRule:
    """The rule of spec's kernel family."""
    if spec.family == "rbf":
        s = spec.sigma
        # dk/db = -sigma * k and db/dx_m[j] = 2 * (x_m[j] - x_i[j])
        return KernelRule(True, lambda d2: np.exp(-s * d2),
                          lambda b, K: -2.0 * s * (K - np.eye(len(K))))
    if spec.family == "linear":
        # a copy: the Gram must not share the read-only base
        return KernelRule(False, np.copy, lambda b, K: np.ones_like(K))
    c, d = spec.coef0, spec.degree
    return KernelRule(False, lambda g: (g + c) ** d,
                      lambda b, K: float(d) * (b + c) ** (d - 1))


def gram_matrix(spec: KernelSpec, data: Dataset) -> np.ndarray:
    """Uncentered n x n Gram matrix of all pairwise similarities.

    A kernel value that overflows float64 (a polynomial of high degree, say)
    raises DegenerateDataError: no centring or eigensolve can use it.
    """
    rule = kernel_rule(spec)
    with np.errstate(over="ignore"):   # the error below says it
        K = rule.value(pairwise_base(data, rule.distance))
    if not np.isfinite(K).all():
        raise overflow_error(spec)
    return K


def overflow_error(spec: KernelSpec) -> DegenerateDataError:
    """The error for kernel values of spec that overflow float64."""
    at = (f" at degree={spec.degree}, coef0={spec.coef0!r}; use a lower degree"
          if spec.family == "polynomial" else " on these samples")
    return DegenerateDataError(f"{spec.family} kernel values overflow float64{at}")


def _double_centred(V: np.ndarray) -> np.ndarray:
    """The square float64 array V double-centred, before any mirroring."""
    return V - V.mean(axis=1)[:, None] - V.mean(axis=0)[None, :] + V.mean()


def _eigh_input(K: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """``_double_centred(K).T`` for LAPACK, refused unless finite (callers silence overflow)."""
    Kc = _double_centred(K).T
    if not np.isfinite(Kc).all():
        raise overflow_error(spec)
    return Kc


def center_gram(K) -> np.ndarray:
    """Double-center a Gram matrix so feature-space coordinates have zero mean.

    ``_double_centred(K)`` with its upper triangle mirrored, so bitwise
    symmetric. Idempotent: centering an already centered matrix is a no-op
    up to rounding.
    """
    V = np.asarray(K, dtype=np.float64)
    if V.ndim != 2 or V.shape[0] != V.shape[1]:
        raise InputError(f"Gram matrix must be square, got shape {V.shape}")
    return _mirror_upper(_double_centred(V))


def median_sq_distance(data: Dataset) -> float:
    """Median squared distance over all pairs of distinct rows.

    np.median's value from one partition: np.median itself imports numpy.ma
    on its first call, which would cost every process that ranks 6-9 ms.
    """
    D2 = pairwise_base(data, True)
    d = D2[np.triu_indices(len(D2), 1)]
    m = d.size // 2
    part = np.partition(d, (m - 1, m))
    return float(part[m] if d.size % 2 else (part[m - 1] + part[m]) / 2)


def sigma_heuristic(data: Dataset) -> float:
    """Default rbf bandwidth: inverse median squared pairwise distance."""
    med = median_sq_distance(data)
    if med <= 0:
        raise DegenerateDataError("all pairwise distances vanish; cannot pick a bandwidth")
    return 1.0 / med
