import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpcaig import (Dataset, DegenerateDataError, GramMatrix, InputError, KernelSpec,
                    center_cross, center_gram, gram_matrix, kernel_row, sigma_heuristic)

from kernel_oracles import eval_kernel, gram_formula, kernel_partial

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
    with pytest.raises(InputError):
        KernelSpec("cosine")


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


@settings(max_examples=50, deadline=None)
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
    assert np.array_equal(K.values, np.ones((2, 2)))
    assert not K.centered


def test_gram_linear_matches_matmul_oracle():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(3, 4))
    K = gram_matrix(KernelSpec("linear"), Dataset.from_matrix(X)).values
    oracle = np.array([[np.dot(X[i], X[j]) for j in range(3)] for i in range(3)])
    assert np.abs(K - oracle).max() < 1e-12


def test_gram_rbf_psd():
    rng = np.random.default_rng(2)
    K = gram_matrix(KernelSpec("rbf", sigma=2.0),
                    Dataset.from_matrix(rng.normal(size=(5, 3)))).values
    ev = np.linalg.eigvalsh(K)
    assert ev.min() >= -1e-8 * ev.max()


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_gram_bitwise_symmetric(spec):
    rng = np.random.default_rng(3)
    K = gram_matrix(spec, Dataset.from_matrix(rng.normal(size=(7, 4)))).values
    assert np.array_equal(K, K.T)
    for i in range(7):
        if spec.family == "rbf":
            assert K[i, i] == 1.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 12), st.integers(1, 9),
       st.sampled_from(ALL_SPECS + [KernelSpec("polynomial", degree=2, coef0=0.5)]))
def test_gram_bitwise_equals_family_formulas(seed, n, p, spec):
    X = np.random.default_rng(seed).normal(size=(n, p))
    assert np.array_equal(gram_matrix(spec, Dataset.from_matrix(X)).values,
                          gram_formula(spec, X))


def test_gram_needs_two_samples():
    with pytest.raises(InputError):
        gram_matrix(RBF1, Dataset.from_matrix([[1.0, 2.0]]))


def test_center_identical_points_to_zero():
    K = GramMatrix(np.ones((2, 2)))
    assert np.array_equal(center_gram(K).values, np.zeros((2, 2)))


def _random_psd_gram(n, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n + 2))
    return GramMatrix(X @ X.T)


def test_center_matches_hkh_oracle():
    for seed in range(10):
        K = _random_psd_gram(6, seed)
        n = 6
        H = np.eye(n) - np.ones((n, n)) / n
        assert np.abs(center_gram(K).values - H @ K.values @ H).max() < 1e-12


def test_center_idempotent():
    K = _random_psd_gram(8, 11)
    once = center_gram(K)
    twice = center_gram(once)
    assert np.abs(twice.values - once.values).max() < 1e-10
    assert once.centered and twice.centered


def test_center_annihilates_means():
    K = _random_psd_gram(9, 12)
    C = center_gram(K).values
    assert np.abs(C.sum(axis=0)).max() < 1e-8
    assert np.abs(C.sum(axis=1)).max() < 1e-8
    scale = np.abs(C).max()
    assert np.abs(C.mean(axis=0)).max() < 1e-10 * scale
    assert np.abs(C.mean(axis=1)).max() < 1e-10 * scale


def test_center_preserves_psd():
    K = _random_psd_gram(10, 13)
    ev = np.linalg.eigvalsh(center_gram(K).values)
    assert ev.min() >= -1e-8 * ev.max()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_center_idempotence_property(seed):
    K = _random_psd_gram(5, seed)
    once = center_gram(K)
    assert np.abs(center_gram(once).values - once.values).max() < 1e-10


def test_center_cross_equals_training_row():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(6, 3))
    K = gram_matrix(RBF1, Dataset.from_matrix(X))
    Z = kernel_row(RBF1, X, X[1])
    got = center_cross(K, Z)
    assert np.abs(got - center_gram(K).values[1]).max() < 1e-10


def test_center_cross_identical_points_zero():
    X = np.ones((4, 2))
    K = gram_matrix(RBF1, Dataset.from_matrix(X))
    assert np.array_equal(center_cross(K, kernel_row(RBF1, X, X[0])), np.zeros(4))


def test_center_cross_matches_dense_oracle():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(5, 3))
    K = gram_matrix(KernelSpec("rbf", sigma=0.4), Dataset.from_matrix(X))
    Z = kernel_row(KernelSpec("rbf", sigma=0.4), X, rng.normal(size=3))
    n = 5
    H = np.eye(n) - np.ones((n, n)) / n
    oracle = (Z - np.ones(n) @ K.values / n) @ H
    assert np.abs(center_cross(K, Z) - oracle).max() < 1e-12


def test_center_cross_rejects_centered_input():
    K = center_gram(_random_psd_gram(4, 6))
    with pytest.raises(InputError):
        center_cross(K, np.zeros(4))


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
