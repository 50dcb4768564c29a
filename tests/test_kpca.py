import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kpcaig import (Dataset, DegenerateDataError, InputError, KernelSpec, SigmaRule,
                    center_gram, explained_variance, fit_kpca, gram_matrix, grid_search_sigma,
                    project_training, rank_features, save_matrix, selection_curve,
                    sigma_heuristic, silhouette_curve, standardize, variance_generalization)
from kpcaig.cli import main
from kpcaig.synthetic import planted_clusters

from kernel_oracles import project_point

RBF = KernelSpec("rbf", sigma=0.8)


def random_standardized(n, p, seed):
    rng = np.random.default_rng(seed)
    return standardize(Dataset.from_matrix(rng.normal(size=(n, p))))


def classical_pca(X):
    """Covariance-PCA oracle: centered scores, right axes, variance ratios."""
    Xc = X - X.mean(axis=0)
    U, S, Vt = np.linalg.svd(Xc, full_matrices=False)
    return Xc @ Vt.T, Vt, S**2 / (S**2).sum(), X.mean(axis=0)


def test_two_points_single_component():
    data = Dataset.from_matrix([[0.0, 0.0], [1.0, 1.0]])
    with pytest.warns(UserWarning):
        model = fit_kpca(data, RBF, 2)  # only one valid component exists
    assert model.q == 1
    coords = project_training(model)[:, 0]
    assert coords[0] == pytest.approx(-coords[1], rel=1e-12)
    assert abs(coords[0]) > 0


def test_invalid_q():
    with pytest.raises(InputError):
        fit_kpca(random_standardized(5, 2, 0), RBF, 0)


def test_degenerate_data():
    data = Dataset.from_matrix(np.ones((6, 3)))
    with pytest.raises(DegenerateDataError, match="all samples identical"):
        fit_kpca(data, RBF, 1)


def test_tiny_sigma_names_the_bandwidth():
    # the samples differ, but exp(-sigma d^2) rounds to 1 for every pair
    data = random_standardized(8, 4, 3)
    med = 1.0 / sigma_heuristic(data)
    with pytest.raises(DegenerateDataError) as info:
        fit_kpca(data, KernelSpec("rbf", sigma=1e-20), 2)
    assert str(info.value) == (
        f"rbf bandwidth sigma=1e-20 is too small for these samples: "
        f"sigma * median d^2 = {1e-20 * med:.3g}, so every kernel value rounds "
        "to 1 (K ~ 11^T); use a larger sigma")


def test_noise_level_eigenvalues_name_the_bandwidth():
    # sigma * median d^2 ~ 1e-16: the centred eigenvalues (~7e-15) are rounding
    # noise below 4 n eps max|K|, although not all of them are 0
    data = standardize(planted_clusters(100, 60, 4, 8, within_std=0.1, seed=0)[0])
    mu = np.linalg.eigvalsh(center_gram(gram_matrix(KernelSpec("rbf", sigma=1e-18), data)))
    assert mu[-1] > 0
    with pytest.raises(DegenerateDataError, match="rbf bandwidth sigma=1e-18 is too small"):
        fit_kpca(data, KernelSpec("rbf", sigma=1e-18), 2)


def test_duplicated_rows_reduce_rank():
    base = np.array([[0.0, 1.0], [2.0, -1.0], [1.0, 1.0]])
    data = Dataset.from_matrix(np.vstack([base, base]))
    with pytest.warns(UserWarning, match="reduced"):
        model = fit_kpca(data, KernelSpec("linear"), 5)
    assert model.q <= 2


def test_alpha_normalization_and_orthogonality():
    data = random_standardized(15, 4, 1)
    model = fit_kpca(data, RBF, 4)
    Kc = center_gram(model.K)
    for k in range(model.q):
        a = model.alphas[:, k]
        assert a @ Kc @ a == pytest.approx(1.0, abs=1e-8)
    coords = project_training(model)
    # columns mutually orthogonal after normalization, each sums to ~0
    for a in range(model.q):
        for b in range(a + 1, model.q):
            ca = coords[:, a] / np.linalg.norm(coords[:, a])
            cb = coords[:, b] / np.linalg.norm(coords[:, b])
            assert abs(np.dot(ca, cb)) < 1e-6
    assert np.abs(coords.sum(axis=0)).max() < 1e-8


def test_training_column_norms_match_eigvals():
    data = random_standardized(12, 3, 2)
    model = fit_kpca(data, RBF, 3)
    coords = project_training(model)
    sq = (coords**2).sum(axis=0)
    assert np.abs(sq - model.eigvals).max() < 1e-6 * model.eigvals.max()


def test_project_consistent_with_training():
    # the new-point oracle of the gradient and PCA tests gives each training
    # point its row of project_training
    data = random_standardized(10, 4, 3)
    for spec in (RBF, KernelSpec("linear"), KernelSpec("polynomial", degree=3)):
        model = fit_kpca(data, spec, 3)
        coords = project_training(model)
        for m in range(data.n):
            assert np.abs(project_point(model, data.matrix[m]) - coords[m]).max() < 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_linear_kernel_equals_classical_pca(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 8))
    n = int(rng.integers(p + 3, 25))
    data = standardize(Dataset.from_matrix(rng.normal(size=(n, p))))
    model = fit_kpca(data, KernelSpec("linear"), p)
    scores, Vt, ratios, mean = classical_pca(data.matrix)
    emb = project_training(model)
    for k in range(model.q):
        s = np.sign(np.dot(emb[:, k], scores[:, k]))
        assert np.abs(emb[:, k] - s * scores[:, k]).max() < 1e-8
        x = rng.normal(size=p)
        rho = project_point(model, x)
        assert abs(rho[k] - s * ((x - mean) @ Vt[k])) < 1e-8
    assert np.abs(explained_variance(model) - ratios[: model.q]).max() < 1e-8


def test_monotone_embedding_on_line():
    # small sigma keeps the first component monotone along a 1-D arrangement
    xs = np.linspace(-2.0, 2.0, 9).reshape(-1, 1)
    data = Dataset.from_matrix(xs)
    model = fit_kpca(data, KernelSpec("rbf", sigma=0.01), 1)
    c = project_training(model)[:, 0]
    diffs = np.diff(c)
    assert np.all(diffs > 0) or np.all(diffs < 0)


def test_explained_variance_two_points():
    data = Dataset.from_matrix([[0.0], [1.0]])
    model = fit_kpca(data, RBF, 1)
    assert np.array_equal(explained_variance(model), np.array([1.0]))


def test_explained_variance_descending_and_bounded():
    model = fit_kpca(random_standardized(14, 5, 6), RBF, 5)
    ev = explained_variance(model)
    assert np.all(np.diff(ev) <= 0)
    assert np.all(ev > 0) and np.all(ev <= 1)
    assert ev.sum() <= 1 + 1e-12


def test_refit_bit_identical():
    data = random_standardized(11, 4, 7)
    a = fit_kpca(data, RBF, 3)
    b = fit_kpca(data, RBF, 3)
    assert np.array_equal(a.alphas, b.alphas)
    assert np.array_equal(a.eigvals, b.eigvals)


def test_sign_convention():
    model = fit_kpca(random_standardized(13, 4, 8), RBF, 4)
    for k in range(model.q):
        col = model.alphas[:, k]
        assert col[np.argmax(np.abs(col))] > 0


def test_sample_permutation_equivariance():
    data = random_standardized(12, 4, 9)
    rng = np.random.default_rng(10)
    perm = rng.permutation(12)
    permuted = Dataset.from_matrix(data.matrix[perm])
    a = fit_kpca(data, RBF, 3)
    b = fit_kpca(permuted, RBF, 3)
    assert np.abs(a.eigvals - b.eigvals).max() < 1e-10
    ca = project_training(a)
    cb = project_training(b)
    assert np.abs(ca[perm] - cb).max() < 1e-10


def test_grid_search_sigma_maximizes_retained_variance():
    data = random_standardized(20, 6, 11)
    grid = (0.01, 0.1, 1.0, 10.0)
    best = grid_search_sigma(data, grid, 2)
    scores = {}
    for s in grid:
        m = fit_kpca(data, KernelSpec("rbf", sigma=s), 2)
        scores[s] = explained_variance(m).sum()
    assert scores[best] == max(scores.values())


def test_sigma_rule_parse_and_resolve():
    data = Dataset.from_matrix([[0.0], [2.0], [4.0]])
    assert SigmaRule.parse("0.5") == SigmaRule("fixed", value=0.5)
    assert SigmaRule.parse("median").resolve(data, 1) == sigma_heuristic(data)
    rule = SigmaRule.parse("grid:0.1,1.0")
    assert rule.grid == (0.1, 1.0)
    for bad in (-1.0, float("inf"), float("nan")):
        with pytest.raises(InputError):
            SigmaRule("fixed", value=bad)
    for text in ("abc", "grid:1e-3,x", "inf", "grid:1e-3,inf", "grid:0,1", "grid:1,nan"):
        with pytest.raises(InputError):
            SigmaRule.parse(text)
    with pytest.raises(InputError):
        SigmaRule("grid")
    with pytest.raises(InputError):
        SigmaRule("best")


def test_fit_path_never_calls_scipy_eigh(monkeypatch, tmp_path):
    # every fit runs on numpy's LAPACK: a call into scipy's would start its
    # second OpenBLAS thread pool, which slows the numpy products after it
    def scipy_eigh(*args, **kwargs):
        raise AssertionError("scipy.linalg.eigh called on the fit path")

    monkeypatch.setattr(scipy.linalg, "eigh", scipy_eigh)
    data, _ = planted_clusters(40, 30, 4, 6, within_std=0.1, seed=2)
    path = tmp_path / "planted.tsv"
    save_matrix(data, path)
    assert main(["rank", str(path), "--q", "2", "-o", str(tmp_path / "rank.tsv")]) == 0
    data = standardize(data)
    grid_search_sigma(data, (0.01, 0.1), 2)
    order = np.arange(data.p)
    selection_curve(data, order, data.labels, 4, [5, 30], runs=3)
    silhouette_curve(data, order, KernelSpec("rbf", sigma=1.0), 4, [5, 30],
                     sigma_rule=SigmaRule("median"))
    variance_generalization(data, KernelSpec("polynomial", degree=2), 2, [5, 30], n_splits=2)


def refit(model, eigh):
    """``model`` with its eigenpairs taken from eigh(center_gram(model.K)),
    sign-fixed and scaled as fit_kpca does; also returns the full spectrum."""
    evals, evecs = eigh(center_gram(model.K))
    mu, A = evals[::-1], evecs[:, ::-1][:, :model.q].copy()
    for k in range(model.q):
        col = np.abs(A[:, k])
        if A[np.flatnonzero(col >= (1 - 1e-10) * col.max())[0], k] < 0:
            A[:, k] = -A[:, k]
    return dataclasses.replace(model, eigvals=mu[:model.q], alphas=A / np.sqrt(mu[:model.q])), mu


@pytest.mark.parametrize("seed", range(4))
def test_sign_fix_ignores_rounding_among_tied_entries(monkeypatch, seed):
    # two samples, each twice: the top eigenvector is +-(0.5, 0.5, -0.5, -0.5), and
    # for seeds 0 and 2 numpy's and scipy's eigh round its entries differently
    x0, x1 = np.random.default_rng(seed).normal(size=(2, 3))
    data = Dataset.from_matrix(np.array([x0, x0, x1, x1]))
    model = fit_kpca(data, KernelSpec("linear"), 1)
    monkeypatch.setattr(np.linalg, "eigh", scipy.linalg.eigh)
    other = fit_kpca(data, KernelSpec("linear"), 1)
    assert np.allclose(model.alphas, other.alphas, rtol=0, atol=1e-12)
    assert model.alphas[0, 0] > 0


@settings(max_examples=150)
@given(st.integers(4, 12), st.integers(1, 6), st.integers(1, 3),
       st.sampled_from(["rbf", "linear", "polynomial"]), st.data())
def test_fit_matches_scipy_eigh_reference(n, p, q, family, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, p)) * 10.0 ** rng.uniform(-1, 1, size=p)
    X = X[data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))]
    d = Dataset.from_matrix(X)
    if family == "rbf":
        scale = data.draw(st.floats(0.25, 4.0))
        try:
            spec = KernelSpec("rbf", sigma=scale * sigma_heuristic(d))
        except DegenerateDataError:     # the median distance is 0
            assume(False)
    elif family == "linear":
        spec = KernelSpec("linear")
    else:
        spec = KernelSpec("polynomial", degree=data.draw(st.integers(2, 3)), coef0=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        try:
            model = fit_kpca(d, spec, min(q, n - 1))
        except DegenerateDataError:     # no eigenvalue above the rounding level
            assume(False)
    ref, mu = refit(model, scipy.linalg.eigh)
    assert np.abs(model.eigvals - ref.eigvals).max() <= 1e-12 * mu[0]
    gaps = -np.diff(mu[:model.q + 1])
    assume(gaps.min() >= 1e-6 * mu[0])
    # two eigensolvers agree on eigenvector k only to about n eps mu_1 / g_k, g_k
    # the gap to its nearest neighbour (Davis-Kahan); over 4000 random draws
    # the error reached 1.9 and the score error 2.9 of that unit, and 27 draws
    # missed a plain 1e-12
    g = np.minimum(gaps, np.concatenate(([np.inf], gaps[:-1])))
    tol = 1e-12 + 10 * n * np.finfo(np.float64).eps * mu[0] / g
    assert np.all(np.abs(model.alphas - ref.alphas) <= tol * np.abs(ref.alphas).max(axis=0))
    got, want = rank_features(model), rank_features(ref)
    top = want.scores.max() * tol.max()
    assert np.abs(got.scores - want.scores).max() <= top
    # the order is the reference order, except among scores tied at that level
    assert np.all(np.diff(want.scores[got.order]) <= top)


@settings(max_examples=150)
@given(st.integers(2, 40), st.integers(1, 8), st.integers(1, 4),
       st.sampled_from(["rbf", "linear", "polynomial"]), st.integers(0, 2**32 - 1))
def test_fit_eigenpairs_are_numpys_eigh_of_center_gram(n, p, q, family, seed):
    # fit_kpca hands eigh the unmirrored centring transposed; eigh reads only its
    # lower triangle, which is center_gram's, so every bit of the fit is the same
    d = random_standardized(n, p, seed)
    spec = {"rbf": KernelSpec("rbf", sigma=sigma_heuristic(d)), "linear": KernelSpec("linear"),
            "polynomial": KernelSpec("polynomial", degree=1 + seed % 3, coef0=1.0)}[family]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        try:
            model = fit_kpca(d, spec, min(q, n - 1))
        except DegenerateDataError:     # no spread left after standardizing
            assume(False)
    ref, _ = refit(model, np.linalg.eigh)
    assert np.array_equal(model.eigvals, ref.eigvals)
    assert np.array_equal(model.alphas, ref.alphas)
