import numpy as np
import pytest

from kpcaig import (Dataset, DegenerateDataError, InputError, KernelSpec, SigmaRule,
                    explained_variance, fit_kpca, grid_search_sigma, project,
                    project_training, sigma_heuristic, standardize)

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
    data = Dataset.from_matrix([[0.0, 0.0], [1.0, 1.0]], standardized=True)
    with pytest.warns(UserWarning):
        model = fit_kpca(data, RBF, 2)  # only one valid component exists
    assert model.q == 1
    coords = project_training(model).coords[:, 0]
    assert coords[0] == pytest.approx(-coords[1], rel=1e-12)
    assert abs(coords[0]) > 0


def test_invalid_q():
    with pytest.raises(InputError):
        fit_kpca(random_standardized(5, 2, 0), RBF, 0)


def test_degenerate_data():
    data = Dataset.from_matrix(np.ones((6, 3)), standardized=True)
    with pytest.raises(DegenerateDataError):
        fit_kpca(data, RBF, 1)


def test_duplicated_rows_reduce_rank():
    base = np.array([[0.0, 1.0], [2.0, -1.0], [1.0, 1.0]])
    data = Dataset.from_matrix(np.vstack([base, base]), standardized=True)
    with pytest.warns(UserWarning, match="reduced"):
        model = fit_kpca(data, KernelSpec("linear"), 5)
    assert model.q <= 2


def test_unstandardized_warning_and_optout():
    raw = Dataset.from_matrix(np.random.default_rng(0).normal(size=(8, 3)))
    with pytest.warns(UserWarning, match="unstandardized"):
        fit_kpca(raw, RBF, 2)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit_kpca(raw, RBF, 2, allow_unstandardized=True)


def test_alpha_normalization_and_orthogonality():
    data = random_standardized(15, 4, 1)
    model = fit_kpca(data, RBF, 4)
    Kc = model.K_centered.values
    for k in range(model.q):
        a = model.alphas[:, k]
        assert a @ Kc @ a == pytest.approx(1.0, abs=1e-8)
    coords = project_training(model).coords
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
    coords = project_training(model).coords
    sq = (coords**2).sum(axis=0)
    assert np.abs(sq - model.eigvals).max() < 1e-6 * model.eigvals.max()


def test_project_consistent_with_training():
    data = random_standardized(10, 4, 3)
    model = fit_kpca(data, RBF, 3)
    coords = project_training(model).coords
    for m in (0, 4, 9):
        assert np.abs(project(model, data.matrix[m]) - coords[m]).max() < 1e-10


def test_project_dimension_mismatch():
    model = fit_kpca(random_standardized(6, 3, 4), RBF, 2)
    with pytest.raises(InputError):
        project(model, np.zeros(4))


def test_project_far_point_limit():
    # rbf values underflow to exactly 0 far away; limit from centering algebra
    data = random_standardized(9, 3, 5)
    model = fit_kpca(data, RBF, 2)
    n = data.n
    H = np.eye(n) - np.ones((n, n)) / n
    limit = (-np.ones(n) / n) @ model.K.values @ H @ model.alphas
    far = project(model, np.full(3, 1e6))
    assert np.abs(far - limit).max() < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_linear_kernel_equals_classical_pca(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 8))
    n = int(rng.integers(p + 3, 25))
    data = standardize(Dataset.from_matrix(rng.normal(size=(n, p))))
    model = fit_kpca(data, KernelSpec("linear"), p)
    scores, Vt, ratios, mean = classical_pca(data.matrix)
    emb = project_training(model).coords
    for k in range(model.q):
        s = np.sign(np.dot(emb[:, k], scores[:, k]))
        assert np.abs(emb[:, k] - s * scores[:, k]).max() < 1e-8
        x = rng.normal(size=p)
        rho = project(model, x)
        assert abs(rho[k] - s * ((x - mean) @ Vt[k])) < 1e-8
    assert np.abs(explained_variance(model) - ratios[: model.q]).max() < 1e-8


def test_monotone_embedding_on_line():
    # small sigma keeps the first component monotone along a 1-D arrangement
    xs = np.linspace(-2.0, 2.0, 9).reshape(-1, 1)
    data = Dataset.from_matrix(xs, standardized=True)
    model = fit_kpca(data, KernelSpec("rbf", sigma=0.01), 1)
    c = project_training(model).coords[:, 0]
    diffs = np.diff(c)
    assert np.all(diffs > 0) or np.all(diffs < 0)


def test_explained_variance_two_points():
    data = Dataset.from_matrix([[0.0], [1.0]], standardized=True)
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
    permuted = Dataset.from_matrix(data.matrix[perm], standardized=True)
    a = fit_kpca(data, RBF, 3)
    b = fit_kpca(permuted, RBF, 3)
    assert np.abs(a.eigvals - b.eigvals).max() < 1e-10
    ca = project_training(a).coords
    cb = project_training(b).coords
    assert np.abs(ca[perm] - cb).max() < 1e-10


def test_grid_search_sigma_maximizes_retained_variance():
    data = random_standardized(20, 6, 11)
    grid = (0.01, 0.1, 1.0, 10.0)
    best = grid_search_sigma(data, grid, 2)
    scores = {}
    for s in grid:
        m = fit_kpca(data, KernelSpec("rbf", sigma=s), 2, allow_unstandardized=True)
        scores[s] = explained_variance(m).sum()
    assert scores[best] == max(scores.values())


def test_sigma_rule_parse_and_resolve():
    data = Dataset.from_matrix([[0.0], [2.0], [4.0]], standardized=True)
    assert SigmaRule.parse("0.5") == SigmaRule("fixed", value=0.5)
    assert SigmaRule.parse("median").resolve(data, 1) == sigma_heuristic(data)
    rule = SigmaRule.parse("grid:0.1,1.0")
    assert rule.grid == (0.1, 1.0)
    for bad in (-1.0, float("inf"), float("nan")):
        with pytest.raises(InputError):
            SigmaRule("fixed", value=bad)
    for text in ("abc", "grid:1e-3,x", "inf"):
        with pytest.raises(InputError):
            SigmaRule.parse(text)
    with pytest.raises(InputError):
        SigmaRule("grid")
    with pytest.raises(InputError):
        SigmaRule("best")
