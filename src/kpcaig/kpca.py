"""Kernel PCA: eigendecomposition of the centered Gram matrix and projections.

The centered Gram matrix K~ is diagonalized directly; its eigenvalues mu_k
are kept in descending order and the eigenvectors are rescaled by
1/sqrt(mu_k) so that each principal axis has unit norm in feature space
(alpha_k^T K~ alpha_k = 1). eigh reads K~ from ``kernels._eigh_input(K)``,
and a fit keeps K, not K~, with all n eigenvalues of K~; the first q are ``eigvals``.
Since K~ alpha_k = mu_k alpha_k, the training points' coordinates are mu_k
alpha_k, plain arrays with no product over K~. A fit takes any Dataset;
standardizing it first is the caller's choice.

One level, ``rounding_level(K)``, decides every numerical zero: the fit's
rank counts the eigenvalues above it and refuses a spectrum with none (K ~
11^T); an rbf K with no off-diagonal value above it is K ~ I, and a gap at
the cut below it a tie. Fields check K ~ I (``check_determined``), rankings
K ~ I then the tie (``check_gap``), and ``warn_ties`` warns of them in that
order; the two tie checks read one list of the cuts whose gap clears it. A fit
refuses neither, so grid search scores such a sigma; it skips, with a warning, a
sigma whose fit is refused (K ~ 11^T), and ``fit_with_rule`` keeps its winning fit.
A fixed sigma is an rbf KernelSpec; a SigmaRule picks one from the data (median or grid).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .exceptions import DegenerateDataError, InputError
from .kernels import (KernelSpec, _eigh_input, gram_matrix, median_sq_distance,
                      pairwise_base, sigma_heuristic)

# entries this close to an eigenvector's largest |entry|, relatively, tie with it:
# repeated samples make exact ties, and rounding would pick among them per LAPACK
SIGN_TIE_REL = 1e-10


@dataclass(frozen=True)
class FittedKpca:
    """Frozen result of a kernel PCA fit; safe to share across threads."""

    training_data: Dataset
    kernel: KernelSpec
    K: np.ndarray            # uncentered n x n training Gram, the only n x n array kept
    alphas: np.ndarray       # n x q, scaled so alpha^T K~ alpha = 1 per column
    q: int
    spectrum: np.ndarray     # all n eigenvalues of K~, descending
    eigvals = property(lambda self: self.spectrum[:self.q])   # the q retained ones


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
    # numpy's LAPACK, not scipy's: scipy ships a second OpenBLAS, and right after
    # a call into it the two thread pools contend and numpy's products slow down
    with np.errstate(over="ignore", invalid="ignore"):   # _eigh_input's error says it
        evals, evecs = np.linalg.eigh(_eigh_input(K, spec))
    evals, evecs = evals[::-1], evecs[:, ::-1]
    rank = int(np.count_nonzero(evals > rounding_level(K)))
    if rank == 0 and spec.family == "rbf" and pairwise_base(data, True).any():
        raise DegenerateDataError(f"{_bandwidth(spec, data, 'small')}, so every kernel "
                                  "value rounds to 1 (K ~ 11^T); use a larger sigma")
    if rank == 0:
        raise DegenerateDataError("centered Gram matrix has no eigenvalue above its "
                                  "rounding level (all samples identical?)")
    q_eff = min(q, rank, data.n - 1)
    if q_eff < q:
        warnings.warn(f"requested q={q} exceeds the numerically valid rank; "
                      f"reduced to q={q_eff}", UserWarning, stacklevel=2)
    A = np.ascontiguousarray(evecs[:, :q_eff])
    mag = np.abs(A)
    lead = np.argmax(mag >= (1 - SIGN_TIE_REL) * mag.max(axis=0), axis=0)
    A *= np.sign(A[lead, np.arange(q_eff)])
    return FittedKpca(training_data=data, kernel=spec, K=K, alphas=A / np.sqrt(evals[:q_eff]),
                      q=q_eff, spectrum=evals)


def _bandwidth(spec: KernelSpec, data: Dataset, regime: str) -> str:
    """The words naming an rbf sigma too small or too large (regime) for data."""
    return (f"rbf bandwidth sigma={spec.sigma!r} is too {regime} for these samples: "
            f"sigma * median d^2 = {spec.sigma * median_sq_distance(data):.3g}")


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
    return (f"{_bandwidth(spec, model.training_data, 'large')}, so every off-diagonal "
            "kernel value is at most the rounding level of K (K ~ I), so the top "
            f"q={model.q} eigenvectors are not determined; use a smaller sigma")


def check_determined(model: FittedKpca) -> None:
    """Raise DegenerateDataError at K ~ I (``_near_identity``): the fit's top-q
    eigenvectors, and so every field, are arbitrary."""
    if message := _near_identity(model):
        raise DegenerateDataError(message)


def eigengap(model: FittedKpca) -> tuple[float, float]:
    """The gap mu_q - mu_{q+1} of K~'s spectrum at the cut q, and ``rounding_level(K)``."""
    q = model.q
    return float(model.spectrum[q - 1] - model.spectrum[q]), rounding_level(model.K)


def _clearing_cuts(model: FittedKpca) -> np.ndarray:
    """Each cut c, ascending, whose gap mu_c - mu_{c+1} clears ``rounding_level(K)``."""
    return np.flatnonzero(-np.diff(model.spectrum) >= rounding_level(model.K)) + 1


def check_gap(model: FittedKpca) -> None:
    """Raise DegenerateDataError when the top-q subspace is not determined: at
    K ~ I (``check_determined``), else at a gap at the cut q below its rounding
    bound (``eigengap``). A tie inside the top q rotates the alphas among
    themselves and leaves every field row's norm as is."""
    check_determined(model)
    clear = _clearing_cuts(model)
    if model.q not in clear:
        raise _tie_error(model, clear)


def _tied(mu: np.ndarray, lo: int, hi: int) -> str:
    """The words naming the tied block mu[lo:hi] of K~'s eigenvalues in a message,
    with each value up to four, else the first, the last and their count."""
    block = mu[lo:hi]
    values = (", ".join(f"{v:.15g}" for v in block) if len(block) <= 4
              else f"{block[0]:.15g}, ..., {block[-1]:.15g}: {len(block)} values")
    return f"eigenvalues mu_{lo + 1}..mu_{hi} of the centred Gram are tied ({values})"


def _tie_error(model: FittedKpca, clear: np.ndarray) -> DegenerateDataError:
    """The error for a gap at the cut q below its rounding bound, naming the
    tied eigenvalues of K~ and the nearest q among the clearing cuts."""
    mu, q = model.spectrum, model.q
    gap, bound = eigengap(model)
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
    clear = _clearing_cuts(model)
    # 0 and each clearing cut c <= q: two neighbours more than one apart enclose
    # a tied block (one reaching past q is the cut's)
    cuts = [0, *clear[clear <= q]]
    if q not in clear and cuts[-1] < axes:
        warnings.warn(str(_tie_error(model, clear)), UserWarning, stacklevel=2)
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
    """How sigma is picked from the data: the median heuristic, or a grid search."""

    mode: str                      # median | grid
    grid: tuple[float, ...] = ()

    def __post_init__(self):
        if self.mode not in ("median", "grid"):
            raise InputError(f"unknown sigma mode {self.mode!r}")
        if self.mode == "median" and self.grid:
            raise InputError(f"median sigma mode reads no grid, got {self.grid}")
        if self.mode == "grid" and not self.grid:
            raise InputError("sigma grid is empty")
        for sigma in self.grid:
            KernelSpec("rbf", sigma=sigma)    # its check is the one for every sigma

    @classmethod
    def parse(cls, text: str) -> "SigmaRule | KernelSpec":
        """Parse a CLI-style value: 'median', 'grid:v1,v2,...', or a number (a KernelSpec)."""
        if text == "median":
            return cls("median")
        grid = text.startswith("grid:")
        try:
            values = tuple(float(v) for v in text[5:].split(",") if v) if grid else float(text)
        except ValueError:
            raise InputError(f"sigma {text!r} is not a number, 'median' or 'grid:v1,...'") from None
        return cls("grid", grid=values) if grid else KernelSpec("rbf", sigma=values)


def _grid_fit(data: Dataset, grid, q: int) -> FittedKpca:
    """The fit of the grid's sigma with the largest summed retained-q variance share
    (the first of equal ones). A sigma whose fit is refused is skipped with a
    warning; with none left, the first refusal is raised."""
    best, best_score, refused = None, -np.inf, []
    for sigma in SigmaRule("grid", tuple(grid)).grid:
        try:
            model = fit_kpca(data, KernelSpec("rbf", sigma=sigma), q)
        except DegenerateDataError as err:
            refused.append(err)
            continue
        score = float(explained_variance(model).sum())
        if score > best_score:
            best, best_score = model, score
    if best is None:
        raise refused[0]
    for err in refused:
        warnings.warn(f"grid search skips a sigma its fit refuses: {err}",
                      UserWarning, stacklevel=3)
    return best


def grid_search_sigma(data: Dataset, grid, q: int) -> float:
    """Pick sigma from a grid, maximizing the summed retained-q variance share (``_grid_fit``)."""
    return _grid_fit(data, grid, q).kernel.sigma


def fit_with_rule(data: Dataset, spec: KernelSpec, rule: SigmaRule | None, q: int) -> FittedKpca:
    """Fit spec with q components; given a rule, an rbf fit at the sigma it picks
    from the data (the median heuristic or, for a grid, the winning fit itself)."""
    if rule is None:
        return fit_kpca(data, spec, q)
    if spec.family != "rbf":
        raise InputError(f"a sigma rule picks an rbf bandwidth, but the kernel is {spec.family}")
    if rule.mode == "grid":
        return _grid_fit(data, rule.grid, q)
    return fit_kpca(data, KernelSpec("rbf", sigma=sigma_heuristic(data)), q)
