"""Kernel PCA: eigendecomposition of the centered Gram matrix and projections.

The centered Gram matrix K~ is diagonalized directly; its eigenvalues mu_k
are kept in descending order and the eigenvectors are rescaled by
1/sqrt(mu_k) so that each principal axis has unit norm in feature space
(alpha_k^T K~ alpha_k = 1). eigh reads K~ from the lower triangle of
``kernels._double_centred(K)`` transposed, and a fit keeps K, not K~, with
all n eigenvalues of K~.
Projections of training points then only require kernel evaluations against
the training set and come back as plain arrays. A fit takes any Dataset;
standardizing it first is the caller's choice.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .exceptions import DegenerateDataError, InputError
from .kernels import (KernelSpec, _double_centred, center_gram, gram_matrix, median_sq_distance,
                      pairwise_base, sigma_heuristic)

# relative cutoff below which an eigenvalue is treated as numerically zero
EIG_DROP_REL = 1e-10
# entries this close to an eigenvector's largest |entry|, relatively, tie with it:
# repeated samples make exact ties, and rounding would pick among them per LAPACK
SIGN_TIE_REL = 1e-10


@dataclass(frozen=True)
class FittedKpca:
    """Frozen result of a kernel PCA fit; safe to share across threads."""

    training_data: Dataset
    kernel: KernelSpec
    K: np.ndarray            # uncentered n x n training Gram, the only n x n array kept
    eigvals: np.ndarray      # q retained eigenvalues of K~, descending
    alphas: np.ndarray       # n x q, scaled so alpha^T K~ alpha = 1 per column
    q: int
    spectrum: np.ndarray     # all n eigenvalues of K~, descending

    @property
    def n(self) -> int:
        return self.training_data.n

    @property
    def p(self) -> int:
        return self.training_data.p

    @property
    def eigval_total(self) -> float:
        """Sum of ALL positive eigenvalues of K~."""
        return float(self.spectrum[self.spectrum > 0].sum())


def fit_kpca(data: Dataset, spec: KernelSpec, q: int) -> FittedKpca:
    """Fit kernel PCA with q retained components.

    Components whose eigenvalue falls below EIG_DROP_REL * mu_1 are dropped
    (with a warning); the sign of each eigenvector is fixed so its largest
    absolute entry is positive, making refits bit-reproducible. Entries
    within SIGN_TIE_REL of the largest count as tied with it, and the first
    of them sets the sign.
    """
    if q < 1:
        raise InputError(f"q must be >= 1, got {q}")
    n = data.n
    K = gram_matrix(spec, data)
    # numpy's LAPACK, not scipy's: scipy ships a second OpenBLAS, and right after
    # a call into it the two thread pools contend and numpy's products slow down
    evals, evecs = np.linalg.eigh(_double_centred(K).T)
    evals = evals[::-1]
    evecs = evecs[:, ::-1]
    check_top_eigenvalue(data, spec, K, evals[0])
    rank = int(np.count_nonzero(evals > EIG_DROP_REL * evals[0]))
    q_eff = min(q, rank, n - 1)
    if q_eff < q:
        warnings.warn(f"requested q={q} exceeds the numerically valid rank; "
                      f"reduced to q={q_eff}", UserWarning, stacklevel=2)
    mu = np.ascontiguousarray(evals[:q_eff])
    A = np.ascontiguousarray(evecs[:, :q_eff])
    mag = np.abs(A)
    lead = np.argmax(mag >= (1 - SIGN_TIE_REL) * mag.max(axis=0), axis=0)
    A *= np.sign(A[lead, np.arange(q_eff)])
    alphas = A / np.sqrt(mu)
    return FittedKpca(training_data=data, kernel=spec, K=K,
                      eigvals=mu, alphas=alphas, q=q_eff, spectrum=evals)


def check_top_eigenvalue(data, spec: KernelSpec, K: np.ndarray, top: float) -> None:
    """Raise DegenerateDataError unless top, the largest eigenvalue of K centred,
    stands above the rounding level of K, 4 n eps max|K|."""
    if top > 4 * len(K) * np.finfo(np.float64).eps * np.abs(K).max():
        return
    if spec.family == "rbf" and pairwise_base(data, True).any():
        raise DegenerateDataError(
            f"rbf bandwidth sigma={spec.sigma!r} is too small for these samples: "
            f"sigma * median d^2 = {spec.sigma * median_sq_distance(data):.3g}, "
            "so every kernel value rounds to 1 (K ~ 11^T); use a larger sigma")
    raise DegenerateDataError("centered Gram matrix has no eigenvalue above its "
                              "rounding level (all samples identical?)")


def check_determined(spec: KernelSpec, K: np.ndarray, q: int) -> None:
    """Raise DegenerateDataError when K is an rbf Gram that is exactly I, whose
    top-q eigenvectors are arbitrary. Rankings call this, fits do not: grid
    search scores a K = I fit like any other."""
    if spec.family == "rbf" and np.array_equal(K, np.eye(len(K))):
        raise DegenerateDataError(
            f"rbf bandwidth sigma={spec.sigma!r} is too large for these samples: every "
            "off-diagonal kernel value underflows to 0 (K = I), so the top "
            f"q={q} eigenvectors are not determined; use a smaller sigma")


def eigengap_bound(K: np.ndarray) -> float:
    """The rounding bound 2 n eps (n max|K|) on the gap at the cut of K centred.

    By Davis-Kahan, rounding error E moves the top-q subspace by sin(theta)
    <= 2 ||E|| / gap, and ||E|| is about n eps ||K||, with ||K||_2 <= n max|K|.
    A gap below the bound leaves that subspace, and so every score, undetermined.
    """
    n = len(K)
    return float(2 * n * np.finfo(np.float64).eps * n * np.abs(K).max())


def eigengap(model: FittedKpca) -> tuple[float, float]:
    """The gap mu_q - mu_{q+1} of K~'s spectrum at the cut q, and its rounding
    bound (``eigengap_bound``)."""
    q = model.q
    return float(model.spectrum[q - 1] - model.spectrum[q]), eigengap_bound(model.K)


def check_gap(model: FittedKpca) -> None:
    """Raise ``tie_error`` when the gap at the cut q is below its rounding
    bound (``eigengap``). A tie inside the top q is harmless: another
    eigenbasis rotates the alphas and leaves every field row's norm as is."""
    gap, bound = eigengap(model)
    if gap < bound:
        raise tie_error(model.spectrum, model.q, gap, bound)


def tie_error(mu: np.ndarray, q: int, gap: float, bound: float) -> DegenerateDataError:
    """The error for a gap at the cut q below its rounding bound, naming the
    tied eigenvalues among mu (all of K~'s, descending) and the nearest q
    whose gap clears the bound."""
    clear = np.flatnonzero(mu[:-1] - mu[1:] >= bound) + 1    # each q whose gap clears
    lo, hi = clear[clear < q].max(initial=0), clear[clear > q].min(initial=len(mu))
    nearest = min((c for c in (lo, hi) if 0 < c < len(mu)), key=lambda c: abs(c - q),
                  default=None)
    advice = ("no q clears it" if nearest is None
              else f"the nearest q whose gap clears it is q={nearest}")
    return DegenerateDataError(
        f"eigenvalues mu_{lo + 1}..mu_{hi} of the centred Gram are tied "
        f"({', '.join(f'{v:.15g}' for v in mu[lo:hi])}): the gap at q={q}, {gap:.3g}, "
        f"is below its rounding bound {bound:.3g}, so the top q={q} axes are not "
        f"determined; {advice}")


def project_training(model: FittedKpca) -> np.ndarray:
    """n x q training-set coordinates K~ @ alpha."""
    return center_gram(model.K) @ model.alphas


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
        if not all(0 < v < np.inf for v in self.grid):
            raise InputError(f"grid sigma values must be finite and > 0, got {self.grid}")

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
        model = fit_kpca(data, KernelSpec("rbf", sigma=sigma), q)
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
