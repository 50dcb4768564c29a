"""Kernel PCA: eigendecomposition of the centered Gram matrix and projections.

The centered Gram matrix K~ is diagonalized directly; its eigenvalues mu_k
are kept in descending order and the eigenvectors are rescaled by
1/sqrt(mu_k) so that each principal axis has unit norm in feature space
(alpha_k^T K~ alpha_k = 1). eigh reads K~ from the lower triangle of
``kernels._double_centred(K)`` transposed, and a fit keeps K, not K~, with
all n eigenvalues of K~.
Since K~ alpha_k = mu_k alpha_k, the training points' coordinates are mu_k
alpha_k, plain arrays with no product over K~. A fit takes any Dataset;
standardizing it first is the caller's choice.

One level, ``rounding_level(K)``, decides every numerical zero: the fit's
rank counts the eigenvalues above it and refuses a spectrum with none (K ~
11^T); an rbf K with no off-diagonal value above it is K ~ I, and a gap at
the cut below it a tie. Fields check K ~ I (``check_determined``), rankings
K ~ I then the tie (``check_gap``), and ``warn_ties`` warns of them in that
order; a fit refuses neither, so grid search scores such a sigma. Grid search
skips, with a warning, a sigma whose fit is refused (K ~ 11^T).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .exceptions import DegenerateDataError, InputError
from .kernels import (KernelSpec, _double_centred, gram_matrix, median_sq_distance,
                      overflow_error, pairwise_base, sigma_heuristic)

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


def fit_kpca(data: Dataset, spec: KernelSpec, q: int) -> FittedKpca:
    """Fit kernel PCA with q retained components.

    Components whose eigenvalue is at or below ``rounding_level(K)`` are dropped
    (with a warning). Each eigenvector's sign makes its largest absolute entry
    positive (the first of the entries within SIGN_TIE_REL of it), so refits are
    bit-reproducible. Raises DegenerateDataError when K or its centring
    overflows float64, or when no eigenvalue is above the level.
    """
    if q < 1:
        raise InputError(f"q must be >= 1, got {q}")
    K = gram_matrix(spec, data)
    with np.errstate(over="ignore", invalid="ignore"):   # the error below says it
        Kc = _double_centred(K).T
    if not np.isfinite(Kc).all():
        raise overflow_error(spec)
    # numpy's LAPACK, not scipy's: scipy ships a second OpenBLAS, and right after
    # a call into it the two thread pools contend and numpy's products slow down
    evals, evecs = np.linalg.eigh(Kc)
    evals, evecs = evals[::-1], evecs[:, ::-1]
    rank = int(np.count_nonzero(evals > rounding_level(K)))
    if rank == 0 and spec.family == "rbf" and pairwise_base(data, True).any():
        raise DegenerateDataError(
            f"rbf bandwidth sigma={spec.sigma!r} is too small for these samples: "
            f"sigma * median d^2 = {spec.sigma * median_sq_distance(data):.3g}, "
            "so every kernel value rounds to 1 (K ~ 11^T); use a larger sigma")
    if rank == 0:
        raise DegenerateDataError("centered Gram matrix has no eigenvalue above its "
                                  "rounding level (all samples identical?)")
    q_eff = min(q, rank, data.n - 1)
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


def rounding_level(K: np.ndarray) -> float:
    """2 n eps (n max|K|): a value of K, or of K~'s spectrum, at or below it is
    numerically zero. By Davis-Kahan, rounding error E moves the top-q subspace
    by sin(theta) <= 2 ||E|| / gap, and ||E|| is about n eps ||K||, with ||K||_2
    <= n max|K|: a gap below the level leaves that subspace, and so every score,
    undetermined."""
    return float(2 * len(K) ** 2 * np.finfo(np.float64).eps * np.abs(K).max())


def _near_identity(model: FittedKpca) -> str | None:
    """The words naming K ~ I when the fit's K is an rbf Gram whose
    off-diagonal values are all at or below ``rounding_level(K)``, else None."""
    spec, K = model.kernel, model.K
    if spec.family != "rbf" or K[~np.eye(len(K), dtype=bool)].max() > rounding_level(K):
        return None
    return (f"rbf bandwidth sigma={spec.sigma!r} is too large for these samples: "
            f"sigma * median d^2 = {spec.sigma * median_sq_distance(model.training_data):.3g}, "
            "so every off-diagonal kernel value is at most the rounding level of K (K ~ I), "
            f"so the top q={model.q} eigenvectors are not determined; use a smaller sigma")


def check_determined(model: FittedKpca) -> None:
    """Raise DegenerateDataError at K ~ I (``_near_identity``): the fit's top-q
    eigenvectors, and so every field, are arbitrary."""
    if message := _near_identity(model):
        raise DegenerateDataError(message)


def eigengap(model: FittedKpca) -> tuple[float, float]:
    """The gap mu_q - mu_{q+1} of K~'s spectrum at the cut q, and ``rounding_level(K)``."""
    q = model.q
    return float(model.spectrum[q - 1] - model.spectrum[q]), rounding_level(model.K)


def check_gap(model: FittedKpca) -> None:
    """Raise DegenerateDataError when the top-q subspace is not determined: at
    K ~ I (``check_determined``), else at a gap at the cut q below its rounding
    bound (``eigengap``). A tie inside the top q rotates the alphas among
    themselves and leaves every field row's norm as is."""
    check_determined(model)
    gap, bound = eigengap(model)
    if gap < bound:
        raise _tie_error(model)


def _tied(mu: np.ndarray, lo: int, hi: int) -> str:
    """The words naming the tied block mu[lo:hi] of K~'s eigenvalues in a message,
    with each value up to four, else the first, the last and their count."""
    block = mu[lo:hi]
    values = (", ".join(f"{v:.15g}" for v in block) if len(block) <= 4
              else f"{block[0]:.15g}, ..., {block[-1]:.15g}: {len(block)} values")
    return f"eigenvalues mu_{lo + 1}..mu_{hi} of the centred Gram are tied ({values})"


def _tie_error(model: FittedKpca) -> DegenerateDataError:
    """The error for a gap at the cut q below its rounding bound, naming the
    tied eigenvalues of K~ and the nearest q whose gap clears the bound."""
    mu, q = model.spectrum, model.q
    gap, bound = eigengap(model)
    clear = np.flatnonzero(mu[:-1] - mu[1:] >= bound) + 1    # each q whose gap clears
    lo, hi = clear[clear < q].max(initial=0), clear[clear > q].min(initial=len(mu))
    nearest = min((c for c in (lo, hi) if 0 < c < len(mu)), key=lambda c: abs(c - q),
                  default=None)
    advice = ("no q clears it" if nearest is None
              else f"the nearest q whose gap clears it is q={nearest}")
    return DegenerateDataError(
        f"{_tied(mu, lo, hi)}: the gap at q={q}, {gap:.3g}, is below its rounding "
        f"bound {bound:.3g}, so the top q={q} axes are not determined; {advice}")


def warn_ties(model: FittedKpca, axes: int) -> None:
    """Warn of what leaves one of the first ``axes`` axes of the fit
    undetermined, for the commands that print axes (``project`` prints all q,
    ``arrows`` the first 2): K ~ I alone, with ``check_determined``'s text;
    else a gap at the cut q below its rounding bound, with ``check_gap``'s
    text, and each block of tied eigenvalues inside the top q, whose axes are
    fixed only up to a rotation among themselves. A tied block that starts
    past the printed axes leaves them as they are."""
    if message := _near_identity(model):
        warnings.warn(message, UserWarning, stacklevel=2)
        return
    mu, q = model.spectrum, model.q
    gap, bound = eigengap(model)
    # 0 and each c <= q whose gap mu_c - mu_{c+1} clears the bound: two neighbours more
    # than one apart enclose a tied block (one reaching past q is the cut's)
    cuts = [0, *(np.flatnonzero(mu[:q] - mu[1:q + 1] >= bound) + 1)]
    if gap < bound and cuts[-1] < axes:
        warnings.warn(str(_tie_error(model)), UserWarning, stacklevel=2)
    for lo, hi in zip(cuts, cuts[1:]):
        if hi - lo > 1 and lo < axes:
            warnings.warn(f"{_tied(mu, lo, hi)}, so axes {lo + 1}..{hi} of the top q={q} "
                          "are fixed only up to a rotation among themselves",
                          UserWarning, stacklevel=2)


def project_training(model: FittedKpca) -> np.ndarray:
    """n x q training-set coordinates K~ alpha_k, which are mu_k alpha_k: alpha_k
    is an eigenvector of K~ with eigenvalue mu_k."""
    return model.alphas * model.eigvals


def explained_variance(model: FittedKpca) -> np.ndarray:
    """Share of total feature-space variance captured by each retained axis.

    The denominator sums all positive eigenvalues of the centered Gram
    matrix, not just the retained ones.
    """
    return model.eigvals / model.spectrum[model.spectrum > 0].sum()


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


def grid_search_sigma(data: Dataset, grid, q: int) -> float:
    """Pick sigma from a grid, maximizing the summed retained-q variance share.

    A value whose fit is refused (DegenerateDataError, as at K ~ 11^T) is
    skipped with one warning each; the first refusal is raised when no value fits.
    """
    grid = tuple(grid)
    if not grid:
        raise InputError("sigma grid is empty")
    best_sigma, best_score, refused = None, -np.inf, []
    for sigma in grid:
        try:
            model = fit_kpca(data, KernelSpec("rbf", sigma=sigma), q)
        except DegenerateDataError as err:
            refused.append(err)
            continue
        score = float(explained_variance(model).sum())
        if score > best_score:
            best_sigma, best_score = sigma, score
    if best_sigma is None:
        raise refused[0]
    for err in refused:
        warnings.warn(f"grid search skips a sigma its fit refuses: {err}",
                      UserWarning, stacklevel=2)
    return best_sigma


def resolve_spec(spec: KernelSpec, rule: SigmaRule | None, data: Dataset,
                 q: int) -> KernelSpec:
    """Apply a sigma rule to an rbf spec: its fixed value, the median heuristic
    or the grid's pick for q components. Other families pass through."""
    if spec.family != "rbf" or rule is None:
        return spec
    if rule.mode == "grid":
        return KernelSpec("rbf", sigma=grid_search_sigma(data, rule.grid, q))
    return KernelSpec("rbf", sigma=rule.value if rule.mode == "fixed" else sigma_heuristic(data))
