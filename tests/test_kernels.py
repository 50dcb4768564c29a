import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpcaig import (Dataset, DegenerateDataError, InputError, KernelSpec, center_gram,
                    fit_kpca, gram_matrix, sigma_heuristic)
from kpcaig import kernels

from kernel_oracles import eval_kernel, gram_formula, kernel_partial, sq_distances

RBF1 = KernelSpec("rbf", sigma=1.0)
ALL_SPECS = [
    KernelSpec("rbf", sigma=0.7),
    KernelSpec("linear"),
    KernelSpec("polynomial", degree=3, coef0=1.0),
]


def fd_partial(spec, x, x_i, j, h=1e-5):
    """Central finite difference of eval_kernel, the gradient oracle."""
    e = np.zeros(len(x))
    e[j] = h
    return (eval_kernel(spec, x + e, x_i) - eval_kernel(spec, x - e, x_i)) / (2 * h)


def test_spec_validation():
    for sigma in (0.0, math.inf, math.nan):
        with pytest.raises(InputError):
            KernelSpec("rbf", sigma=sigma)
    with pytest.raises(InputError):
        KernelSpec("rbf")
    with pytest.raises(InputError):
        KernelSpec("polynomial", degree=0)
    for coef0 in (math.inf, math.nan):
        with pytest.raises(InputError, match=f"coef0 must be finite, got {coef0}"):
            KernelSpec("polynomial", coef0=coef0)
    with pytest.raises(InputError):
        KernelSpec("cosine")
    # a field the family does not read is refused, not kept beside the fit
    for family, fields, message in [
            ("linear", {"sigma": 0.5}, "linear kernel reads no sigma, got 0.5"),
            ("rbf", {"sigma": 0.5, "degree": 7, "coef0": 3.0}, "rbf kernel reads no degree, got 7"),
            ("rbf", {"sigma": 0.5, "coef0": 1.0}, "rbf kernel reads no coef0, got 1.0"),
            ("linear", {"degree": 2}, "linear kernel reads no degree, got 2"),
            ("polynomial", {"sigma": 1.0}, "polynomial kernel reads no sigma, got 1.0")]:
        with pytest.raises(InputError) as info:
            KernelSpec(family, **fields)
        assert str(info.value) == message
    # the fields a family reads, with the polynomial's defaults degree 2 and coef0 1.0
    assert KernelSpec("linear") == KernelSpec("linear", None, None, None)
    assert KernelSpec("rbf", sigma=0.5).sigma == 0.5
    assert KernelSpec("polynomial") == KernelSpec("polynomial", degree=2) == \
        KernelSpec("polynomial", degree=2, coef0=1.0)
    assert KernelSpec("polynomial", degree=3, coef0=0.0).coef0 == 0.0


def test_rbf_identical_points():
    assert eval_kernel(RBF1, [3.0, -2.0], [3.0, -2.0]) == 1.0


def test_rbf_closed_form():
    assert eval_kernel(RBF1, [0.0, 0.0], [1.0, 0.0]) == pytest.approx(math.exp(-1), rel=1e-15)


def test_linear_dot_product():
    assert eval_kernel(KernelSpec("linear"), [1.0, 2.0], [3.0, 4.0]) == 11.0


def test_dimension_mismatch():
    with pytest.raises(InputError):
        eval_kernel(RBF1, [1.0, 2.0], [1.0, 2.0, 3.0])


def test_symmetry_exact_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        p = int(rng.integers(1, 6))
        x, y = rng.normal(size=p), rng.normal(size=p)
        spec = ALL_SPECS[int(rng.integers(len(ALL_SPECS)))]
        assert eval_kernel(spec, x, y) == eval_kernel(spec, y, x)


@settings(max_examples=50)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=6), st.data())
def test_symmetry_property(xs, data):
    ys = data.draw(st.lists(st.floats(-5, 5), min_size=len(xs), max_size=len(xs)))
    x, y = np.array(xs), np.array(ys)
    for spec in ALL_SPECS:
        assert eval_kernel(spec, x, y) == eval_kernel(spec, y, x)


def test_partial_rbf_closed_form():
    # -2*sigma*exp(-sigma*d^2)*(x[j]-x_i[j]) at x=(0,0), x_i=(1,0), j=0
    got = kernel_partial(RBF1, [0.0, 0.0], [1.0, 0.0], 0)
    assert got == pytest.approx(2 * math.exp(-1), rel=1e-15)


def test_partial_zero_at_coincident_points():
    x = np.array([0.3, -1.2, 4.0])
    for j in range(3):
        assert kernel_partial(RBF1, x, x, j) == 0.0


def test_partial_index_out_of_range():
    with pytest.raises(InputError):
        kernel_partial(RBF1, [1.0, 2.0], [0.0, 0.0], 2)


def test_partial_vs_finite_difference_single_case():
    spec = KernelSpec("rbf", sigma=0.5)
    x, x_i = np.array([1.0, 1.0]), np.array([0.0, 0.0])
    got = kernel_partial(spec, x, x_i, 1)
    want = fd_partial(spec, x, x_i, 1)
    assert abs(got - want) / abs(want) < 1e-6


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_partial_vs_finite_difference_random(spec):
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 500:
        p = int(rng.integers(1, 9))
        x, x_i = rng.uniform(-2, 2, p), rng.uniform(-2, 2, p)
        j = int(rng.integers(p))
        got = kernel_partial(spec, x, x_i, j)
        if abs(got) < 1e-3:  # keep the relative-error criterion meaningful
            continue
        want = fd_partial(spec, x, x_i, j)
        assert abs(got - want) / abs(got) < 1e-6
        checked += 1


def test_gram_identical_points_rbf():
    data = Dataset.from_matrix([[1.0, 2.0], [1.0, 2.0]])
    K = gram_matrix(RBF1, data)
    assert np.array_equal(K, np.ones((2, 2)))


def test_gram_linear_matches_matmul_oracle():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(3, 4))
    K = gram_matrix(KernelSpec("linear"), Dataset.from_matrix(X))
    oracle = np.array([[np.dot(X[i], X[j]) for j in range(3)] for i in range(3)])
    assert np.abs(K - oracle).max() < 1e-12


def test_gram_rbf_psd():
    rng = np.random.default_rng(2)
    K = gram_matrix(KernelSpec("rbf", sigma=2.0),
                    Dataset.from_matrix(rng.normal(size=(5, 3))))
    ev = np.linalg.eigvalsh(K)
    assert ev.min() >= -1e-8 * ev.max()


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_gram_bitwise_symmetric(spec):
    rng = np.random.default_rng(3)
    K = gram_matrix(spec, Dataset.from_matrix(rng.normal(size=(7, 4))))
    assert np.array_equal(K, K.T)
    for i in range(7):
        if spec.family == "rbf":
            assert K[i, i] == 1.0


def assert_gram_equals_formula(spec, X, K):
    """Bitwise for the inner-product families; rbf to 1e-12 relative, since its
    distances come from one GEMM and the reference sums explicit differences."""
    ref = gram_formula(spec, X)
    if spec.family == "rbf":
        assert np.allclose(K, ref, rtol=1e-12, atol=0)
    else:
        assert np.array_equal(K, ref)


@settings(max_examples=40)
@given(st.integers(0, 10_000), st.integers(2, 12), st.integers(1, 9),
       st.sampled_from(ALL_SPECS + [KernelSpec("polynomial", degree=2, coef0=0.5)]))
def test_gram_bitwise_equals_family_formulas(seed, n, p, spec):
    X = np.random.default_rng(seed).normal(size=(n, p))
    assert_gram_equals_formula(spec, X, gram_matrix(spec, Dataset.from_matrix(X)))


def test_pairwise_base_once_per_dataset():
    X = np.random.default_rng(4).normal(size=(9, 4))
    data = Dataset.from_matrix(X)
    with mock.patch.object(kernels, "_sq_distances", wraps=kernels._sq_distances) as spy:
        sigma = sigma_heuristic(data)
        for s in (sigma, 0.1, 3.0):
            spec = KernelSpec("rbf", sigma=s)
            assert_gram_equals_formula(spec, X, gram_matrix(spec, data))
        assert spy.call_count == 1
    d2 = sq_distances(X)[np.triu_indices(9, 1)]
    assert sigma == pytest.approx(1.0 / np.median(d2), rel=1e-12)


@st.composite
def distance_inputs(draw):
    """Rows with duplicates, near-duplicates, tight clusters, large column
    offsets or integer values: every case where the GEMM loses digits."""
    n, p = draw(st.integers(2, 12)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    if draw(st.booleans()):     # tight clusters around a few far-apart centres
        centres = 100.0 * rng.normal(size=(draw(st.integers(1, 3)), p))
        spread = draw(st.sampled_from([1e-3, 1e-1]))
        X = centres[rng.integers(len(centres), size=n)] + spread * rng.normal(size=(n, p))
    else:
        X = rng.normal(size=(n, p))
    if draw(st.booleans()):
        X = np.round(4.0 * X)
    for _ in range(draw(st.integers(0, 3))):    # duplicate and near-duplicate rows
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        X[b] = X[a] + draw(st.sampled_from([0.0, 1e-12, 1e-8, 1e-4])) * rng.normal(size=p)
    return X + draw(st.sampled_from([0.0, 1.0, 1e3, 1e6])) * rng.normal(size=p)


@settings(max_examples=200)
@given(distance_inputs())
def test_pairwise_distances_match_explicit_differences(X):
    D = kernels.pairwise_base(Dataset.from_matrix(X), True)
    ref = sq_distances(X)
    assert np.array_equal(D, D.T)
    assert np.all(np.diag(D) == 0.0)
    assert np.array_equal(D == 0, ref == 0)     # duplicate rows give exactly 0
    assert np.allclose(D, ref, rtol=1e-12, atol=0)


def test_gram_needs_two_samples():
    one = Dataset.from_matrix([[1.0, 2.0]])
    message = r"^need at least 2 samples, got n=1$"
    with pytest.raises(InputError, match=message):
        sigma_heuristic(one)
    for spec in ALL_SPECS:
        with pytest.raises(InputError, match=message):
            gram_matrix(spec, one)
        with pytest.raises(InputError, match=message):
            fit_kpca(one, spec, 1)


def test_center_identical_points_to_zero():
    assert np.array_equal(center_gram(np.ones((2, 2))), np.zeros((2, 2)))


@settings(max_examples=100)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.floats(-3, 3), st.booleans())
def test_double_centred_transposed_has_center_grams_lower_triangle(n, seed, log_scale, symmetric):
    # the eigensolvers of fit_kpca and the permutation baseline read only this triangle
    K = np.random.default_rng(seed).normal(size=(n, n)) * 10.0 ** log_scale
    if symmetric:
        K = kernels._mirror_upper(K)
    C = kernels._double_centred(K)
    lower = np.tril_indices(n)
    assert np.array_equal(C.T[lower], center_gram(K)[lower])
    assert np.array_equal(kernels._mirror_upper(C), center_gram(K))


def test_center_rejects_non_square():
    with pytest.raises(InputError, match="square"):
        center_gram(np.ones((3, 4)))


def _random_psd_gram(n, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n + 2))
    return X @ X.T


def test_center_matches_hkh_oracle():
    for seed in range(10):
        K = _random_psd_gram(6, seed)
        n = 6
        H = np.eye(n) - np.ones((n, n)) / n
        assert np.abs(center_gram(K) - H @ K @ H).max() < 1e-12


def test_center_idempotent():
    K = _random_psd_gram(8, 11)
    once = center_gram(K)
    twice = center_gram(once)
    assert np.abs(twice - once).max() < 1e-10


def test_center_annihilates_means():
    K = _random_psd_gram(9, 12)
    C = center_gram(K)
    assert np.abs(C.sum(axis=0)).max() < 1e-8
    assert np.abs(C.sum(axis=1)).max() < 1e-8
    scale = np.abs(C).max()
    assert np.abs(C.mean(axis=0)).max() < 1e-10 * scale
    assert np.abs(C.mean(axis=1)).max() < 1e-10 * scale


def test_center_preserves_psd():
    K = _random_psd_gram(10, 13)
    ev = np.linalg.eigvalsh(center_gram(K))
    assert ev.min() >= -1e-8 * ev.max()


@settings(max_examples=30)
@given(st.integers(0, 10_000))
def test_center_idempotence_property(seed):
    K = _random_psd_gram(5, seed)
    once = center_gram(K)
    assert np.abs(center_gram(once) - once).max() < 1e-10


def test_sigma_heuristic_two_points():
    assert sigma_heuristic(Dataset.from_matrix([[0.0], [1.0]])) == 1.0


def test_sigma_heuristic_three_points():
    # squared distances {4, 16, 4}, median 4
    assert sigma_heuristic(Dataset.from_matrix([[0.0], [2.0], [4.0]])) == 0.25


def test_sigma_heuristic_random_finite():
    rng = np.random.default_rng(8)
    s = sigma_heuristic(Dataset.from_matrix(rng.normal(size=(50, 4))))
    assert np.isfinite(s) and s > 0


def test_sigma_heuristic_degenerate():
    with pytest.raises(DegenerateDataError):
        sigma_heuristic(Dataset.from_matrix(np.ones((5, 2))))


@settings(max_examples=200)
@given(st.integers(2, 40), st.integers(1, 4), st.integers(0, 2**32 - 1), st.booleans())
def test_median_sq_distance_is_np_median_to_the_bit(n, p, seed, ties):
    # odd and even pair counts, and (rounded data) repeated distances
    X = np.random.default_rng(seed).normal(size=(n, p))
    d = Dataset.from_matrix(np.round(X) if ties else X)
    D2 = kernels.pairwise_base(d, True)
    expected = float(np.median(D2[np.triu_indices(n, 1)]))
    assert kernels.median_sq_distance(d) == expected
