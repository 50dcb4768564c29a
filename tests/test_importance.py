import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpcaig import (Dataset, DegenerateDataError, InputError, KernelSpec, arrow_field, fit_kpca,
                    gradient_field, laplacian_score, project_training, rank_features,
                    sigma_heuristic, standardize)
from kpcaig import importance, kernels
from kpcaig.kpca import eigengap
from kpcaig.synthetic import planted_clusters

from generators import OCTAHEDRON, SQUARE

from kernel_oracles import kernel_partial, partial_matrix, project_point, sq_distances


def feature_score(model, j: int) -> tuple[float, float]:
    """Mean and population standard deviation of one variable's per-sample field norms."""
    W = gradient_field(model, j)
    norms = np.sqrt(np.einsum("ik,ik->i", W, W))
    return float(norms.mean()), float(norms.std())

RBF = KernelSpec("rbf", sigma=0.6)
FAMILIES = [
    KernelSpec("rbf", sigma=0.6),
    KernelSpec("linear"),
    KernelSpec("polynomial", degree=2, coef0=1.0),
]


def fit(matrix, spec=RBF, q=2):
    return fit_kpca(Dataset.from_matrix(matrix), spec, q)


def test_constant_feature_zero_field():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(8, 3))
    X[:, 1] = 2.5
    model = fit(X)
    assert np.array_equal(gradient_field(model, 1), np.zeros((8, model.q)))
    assert feature_score(model, 1) == (0.0, 0.0)
    ranking = rank_features(model)
    assert ranking.order[-1] == 1
    assert ranking.scores[1] == 0.0 and ranking.stds[1] == 0.0


def test_field_index_out_of_range():
    model = fit(np.random.default_rng(1).normal(size=(6, 3)))
    with pytest.raises(InputError):
        gradient_field(model, 3)


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.family)
def test_field_matches_finite_difference_of_projection(spec):
    h = 1e-5
    for seed in range(7):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(6, 3))
        model = fit(X, spec, q=3)
        for j in range(3):
            W = gradient_field(model, j)
            for m in range(6):
                e = np.zeros(3)
                e[j] = h
                fd = (project_point(model, X[m] + e) - project_point(model, X[m] - e)) / (2 * h)
                denom = max(np.linalg.norm(W[m]), 1e-8)
                assert np.linalg.norm(fd - W[m]) / denom < 1e-4


def test_duplicated_columns_identical_fields():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(7, 4))
    X[:, 3] = X[:, 0]
    model = fit(X)
    Wa = gradient_field(model, 0)
    Wb = gradient_field(model, 3)
    assert np.array_equal(Wa, Wb)
    assert feature_score(model, 0) == feature_score(model, 3)


def test_score_matches_dense_algebra_oracle():
    # explicit per-point loops over scalar kernel derivatives and H products
    rng = np.random.default_rng(3)
    X = rng.normal(size=(8, 4))
    model = fit(X, q=3)
    n = 8
    H = np.eye(n) - np.ones((n, n)) / n
    for j in range(4):
        norms = []
        for m in range(n):
            d = np.array([kernel_partial(model.kernel, X[m], X[i], j) for i in range(n)])
            w = d @ H @ model.alphas
            norms.append(np.sqrt((w**2).sum()))
        norms = np.asarray(norms)
        score, std = feature_score(model, j)
        assert abs(score - norms.mean()) < 1e-12
        assert abs(std - norms.std()) < 1e-12


@pytest.mark.filterwarnings("ignore::UserWarning")  # tiny instances may drop rank
@settings(max_examples=60)
@given(st.integers(0, 10_000), st.sampled_from(FAMILIES + [KernelSpec("polynomial", degree=3)]),
       st.integers(3, 9), st.integers(1, 6), st.integers(1, 4))
def test_blocked_fields_match_per_feature_reference(seed, spec, n, p_free, width):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, p_free + 2))
    X[:, p_free] = rng.uniform(-2, 2)   # constant column
    X[:, p_free + 1] = X[:, 0]          # duplicate of column 0
    p = X.shape[1]
    model = fit(X, spec, q=min(3, n - 1))
    B = model.alphas - model.alphas.mean(axis=0)
    ref = np.stack([partial_matrix(spec, X, j) @ B for j in range(p)], axis=1)
    scale = 1e-9 * (1.0 + np.abs(X).max()) * max(
        (np.abs(partial_matrix(spec, X, j)) @ np.abs(B)).max() for j in range(p))

    # blocks of `width` columns, so p > width crosses block boundaries
    blocks = [slice(s, s + width) for s in range(0, p, width)]
    got = np.concatenate(list(importance._fields(model, blocks)), axis=2).transpose(1, 2, 0)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= scale
    if spec.family == "rbf":
        assert np.array_equal(got[:, p_free], np.zeros((n, model.q)))

    norms = np.sqrt((ref**2).sum(axis=2))
    # fields, distances and Laplacian scores each at `width` columns a block
    with mock.patch.object(kernels, "BLOCK_BYTES", 8 * n * model.q * width):
        ranking = rank_features(model)
    with mock.patch.object(kernels, "BLOCK_BYTES", 8 * n * width):
        distances = kernels.pairwise_base(Dataset.from_matrix(X), True)
        laplacian = laplacian_score(Dataset.from_matrix(X), k_nn=1)
    assert np.allclose(distances, sq_distances(X), rtol=1e-12, atol=0)
    # scores lie in [0, 2] or are the +inf of a constant column
    assert np.allclose(laplacian.scores, laplacian_score(Dataset.from_matrix(X), k_nn=1).scores,
                       rtol=0, atol=1e-12)
    assert np.abs(ranking.scores - norms.mean(axis=0)).max() <= scale
    assert np.abs(ranking.stds - norms.std(axis=0)).max() <= scale
    for j in (0, p_free, p - 1):
        assert np.abs(gradient_field(model, j) - ref[:, j]).max() <= scale


def test_rank_near_identity_kernel_matches_per_feature_reference():
    # at 10x the median sigma K is near I, where the two rbf products nearly
    # cancel; a slope with a nonzero diagonal drifts to ~3e-14 of the top score
    data = standardize(planted_clusters(120, 300, 2, 6, seed=1)[0])
    spec = KernelSpec("rbf", sigma=10 * sigma_heuristic(data))
    model = fit_kpca(data, spec, 3)
    B = model.alphas - model.alphas.mean(axis=0)
    ref = np.stack([partial_matrix(spec, data.matrix, j) @ B for j in range(data.p)], axis=1)
    norms = np.sqrt((ref**2).sum(axis=2))
    ranking = rank_features(model)
    tol = 4e-15 * norms.mean(axis=0).max()
    assert np.abs(ranking.scores - norms.mean(axis=0)).max() <= tol
    assert np.abs(ranking.stds - norms.std(axis=0)).max() <= tol
    assert np.array_equal(ranking.order, np.lexsort((np.arange(data.p), -norms.mean(axis=0))))


def test_single_driving_feature_ranks_first():
    X = np.zeros((10, 4))
    X[:, 0] = np.linspace(-2, 2, 10)
    X[:, 1:] = 1.0  # constant elsewhere
    model = fit(X, KernelSpec("rbf", sigma=0.5))
    ranking = rank_features(model)
    assert ranking.order[0] == 0
    assert np.all(ranking.scores[1:] == 0.0)


def test_column_permutation_equivariance():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(9, 5))
    perm = rng.permutation(5)
    a = rank_features(fit(X))
    b = rank_features(fit(X[:, perm]))
    assert np.abs(a.scores[perm] - b.scores).max() < 1e-10
    # the permuted ranking points at the same original features
    assert np.array_equal(perm[b.order], a.order)


def test_sample_order_leaves_scores_unchanged():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(12, 4))
    perm = rng.permutation(12)
    a = rank_features(fit(X))
    b = rank_features(fit(X[perm]))
    assert np.abs(a.scores - b.scores).max() < 1e-10


def test_ranking_bitwise_deterministic():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(10, 6))
    a = rank_features(fit(X))
    b = rank_features(fit(X))
    assert np.array_equal(a.scores, b.scores)
    assert np.array_equal(a.stds, b.stds)
    assert np.array_equal(a.order, b.order)


def test_zero_score_iff_constant_under_rbf():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(9, 5))
    X[:, 2] = -1.0
    ranking = rank_features(fit(X))
    assert ranking.scores[2] == 0.0
    others = np.delete(ranking.scores, 2)
    assert np.all(others > 0)


def test_planted_two_cluster_recovery():
    # 257 x 100 clone with two separated clusters driven by 10 features at
    # seeded positions, so a ranking that ties every score cannot pass
    data, informative = planted_clusters(257, 100, 2, 10, within_std=0.05, seed=0)
    data = standardize(data)
    model = fit_kpca(data, KernelSpec("rbf", sigma=sigma_heuristic(data)), 2)
    ranking = rank_features(model)
    assert set(informative.tolist()) <= set(ranking.order[:10].tolist())


def test_rescaling_changes_raw_score_but_not_standardized_pipeline():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(15, 4))
    scaled = X.copy()
    scaled[:, 2] *= 10.0
    raw_a = rank_features(fit(X))
    raw_b = rank_features(fit(scaled))
    assert abs(raw_a.scores[2] - raw_b.scores[2]) > 1e-6
    std_a = rank_features(fit_kpca(standardize(Dataset.from_matrix(X)), RBF, 2))
    std_b = rank_features(fit_kpca(standardize(Dataset.from_matrix(scaled)), RBF, 2))
    assert np.abs(std_a.scores - std_b.scores).max() < 1e-10
    assert np.array_equal(std_a.order, std_b.order)


def test_arrow_field_constant_feature():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(8, 3))
    X[:, 0] = 4.0
    model = fit(X)
    arrows = arrow_field(model, 0, scale=3.0)
    assert all(v == (0.0, 0.0) for _, v in arrows)


def test_arrow_field_zero_scale():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(8, 3))
    model = fit(X)
    arrows = arrow_field(model, 1, scale=0.0)
    coords = project_training(model)[:, :2]
    for (pt, vec), row in zip(arrows, coords):
        assert vec == (0.0, 0.0)
        assert pt == (float(row[0]), float(row[1]))


@pytest.mark.parametrize("scale", [-1.0, np.inf, np.nan])
def test_arrow_field_rejects_bad_scale(scale):
    model = fit(np.random.default_rng(10).normal(size=(8, 3)))
    with pytest.raises(InputError, match=f"scale must be finite and >= 0, got {scale}"):
        arrow_field(model, 1, scale=scale)


def test_arrow_field_needs_two_components():
    data = Dataset.from_matrix([[0.0, 0.0], [1.0, 1.0]])
    with pytest.warns(UserWarning):
        model = fit_kpca(data, RBF, 2)  # rank 1
    with pytest.raises(InputError):
        arrow_field(model, 0)


def test_identity_gram_names_the_bandwidth():
    # every off-diagonal kernel value underflows to 0, so K = I exactly: every
    # direction is a top eigenvector and each field would be all zeros
    model = fit(np.random.default_rng(3).normal(size=(10, 4)), KernelSpec("rbf", sigma=1e4))
    assert np.array_equal(model.K, np.eye(10))  # the fit itself is accepted
    for call in (rank_features, lambda m: gradient_field(m, 0), lambda m: arrow_field(m, 0)):
        with pytest.raises(DegenerateDataError, match="sigma=10000.0 is too large"):
            call(model)


def test_arrows_point_towards_high_value_cluster():
    data, informative = planted_clusters(60, 30, 2, 5, within_std=0.05, seed=1)
    data = standardize(data)
    model = fit_kpca(data, KernelSpec("rbf", sigma=sigma_heuristic(data)), 2)
    emb = project_training(model)[:, :2]
    lab = data.labels
    j = int(informative[0])
    col = data.matrix[:, j]
    hi = int(col[lab == 1].mean() > col[lab == 0].mean())
    centroid_diff = emb[lab == hi].mean(axis=0) - emb[lab == 1 - hi].mean(axis=0)
    vecs = np.array([v for _, v in arrow_field(model, j, scale=1.0)])
    assert np.mean(vecs @ centroid_diff > 0) >= 0.9


def median_fit(X, q):
    data = standardize(Dataset.from_matrix(X))
    return fit_kpca(data, KernelSpec("rbf", sigma=sigma_heuristic(data)), q)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([SQUARE, OCTAHEDRON]), st.integers(0, 2**32 - 1))
def test_rotating_the_alphas_within_a_tied_block_keeps_every_score(X, seed):
    q = X.shape[1]
    model = median_fit(X, q)
    _, bound = eigengap(model)
    assert model.eigvals[0] - model.eigvals[-1] < bound    # the top q are one tied block
    R = np.linalg.qr(np.random.default_rng(seed).normal(size=(q, q)))[0]
    want = rank_features(model).scores
    got = rank_features(dataclasses.replace(model, alphas=model.alphas @ R)).scores
    assert np.abs(got - want).max() <= 1e-12 * want.max()


@pytest.mark.parametrize("X, q, tied, nearest", [
    (SQUARE, 1, "mu_1..mu_2", 2),
    # q=3 and q=5 are as near: the smaller is named
    (OCTAHEDRON, 4, "mu_4..mu_5", 3),
], ids=["square", "octahedron"])
def test_a_tie_across_the_cut_refuses_the_ranking(X, q, tied, nearest):
    model = median_fit(X, q)
    with pytest.raises(DegenerateDataError) as info:
        rank_features(model)
    message = str(info.value)
    assert message.startswith(f"eigenvalues {tied} of the centred Gram are tied (")
    assert f"so the top q={q} axes are not determined" in message
    assert message.endswith(f"the nearest q whose gap clears it is q={nearest}")
    # the field of one feature, as arrows draws it, is still computed
    assert gradient_field(model, 0).shape == (len(X), q)
