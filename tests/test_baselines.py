import math
import os
import sys
import threading
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kpcaig import (Dataset, DegenerateDataError, FeatureRanking, InputError, KernelSpec,
                    laplacian_score, permutation_importance, sigma_heuristic)
from kpcaig import baselines, kernels, parallel
from kpcaig.baselines import subspace_distance
from kpcaig.kernels import center_gram, gram_matrix, pairwise_base
from kpcaig.synthetic import planted_clusters

from generators import OVERFLOWS_WHEN_PERMUTED, repeated_rows, two_blobs
from kernel_oracles import permutation_scores_rebuild, permutation_scores_subset


def rbf_for(data):
    return KernelSpec("rbf", sigma=sigma_heuristic(data))


# --- Laplacian score -------------------------------------------------------

def test_laplacian_cluster_indicator_beats_noise():
    wins = 0
    for seed in range(50):
        d = two_blobs(40, 6, separation=8.0, spread=1.0, seed=seed)
        r = laplacian_score(d, k_nn=5)
        wins += r.scores[0] < r.scores[1:].min()  # column 0 carries the blob split
    assert wins >= 48  # >= 95% of trials


def test_laplacian_constant_feature_sentinel():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(12, 4))
    X[:, 1] = 7.0
    r = laplacian_score(Dataset.from_matrix(X), k_nn=3)
    assert r.scores[1] == np.inf
    assert r.order[-1] == 1


def test_laplacian_four_point_hand_expansion():
    # two tight pairs; with k_nn=1 each point links only to its twin
    X = np.array([[0.0, 1.0], [0.1, 0.0], [5.0, 1.0], [5.1, 0.0]])
    t = 2.0
    r = laplacian_score(Dataset.from_matrix(X), k_nn=1, t=t)
    w = math.exp(-1.01 / t)       # both linked pairs sit at squared distance 1.01
    deg = [w, w, w, w]
    deg_total = 4 * w
    for j in range(2):
        f = X[:, j]
        mean = sum(fv * dv for fv, dv in zip(f, deg)) / deg_total
        fc = [fv - mean for fv in f]
        den = sum(dv * fv * fv for fv, dv in zip(fc, deg))
        # f~^T W f~ expanded over the two symmetric links (0,1) and (2,3)
        wff = 2 * w * (fc[0] * fc[1] + fc[2] * fc[3])
        expected = (den - wff) / den
        assert r.scores[j] == pytest.approx(expected, abs=1e-12)


def test_laplacian_invariant_to_adding_constant():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(15, 3))
    shifted = X.copy()
    shifted[:, 0] += 100.0
    a = laplacian_score(Dataset.from_matrix(X), k_nn=4)
    b = laplacian_score(Dataset.from_matrix(shifted), k_nn=4)
    assert np.abs(a.scores - b.scores).max() < 1e-10


def laplacian_score_loop(data: Dataset, k_nn: int = 5, t: float | None = None) -> FeatureRanking:
    """Reference: the per-sample neighbour loop and per-feature score loop."""
    X = data.matrix
    n, p = X.shape
    if not 0 < k_nn < n:
        raise InputError(f"k_nn must be in [1, n-1], got {k_nn} for n={n}")
    d2 = pairwise_base(data, True)
    if t is None:
        t = float(d2[np.triu_indices(n, 1)].mean())
    if not t > 0:
        raise DegenerateDataError("heat-kernel width t is not positive "
                                  "(all samples identical?)")
    W = np.zeros((n, n))
    for i in range(n):
        order = np.argsort(d2[i], kind="stable")
        neigh = [m for m in order if m != i][:k_nn]
        W[i, neigh] = np.exp(-d2[i, neigh] / t)
    W = np.maximum(W, W.T)
    deg = W.sum(axis=1)
    if np.any(deg == 0):
        raise DegenerateDataError("neighbourhood graph has an isolated sample")
    deg_total = deg.sum()
    scores = np.empty(p)
    for j in range(p):
        f = X[:, j]
        if np.ptp(f) == 0:
            scores[j] = np.inf
            continue
        fc = f - (f @ deg) / deg_total      # D-weighted mean removal
        den = fc @ (deg * fc)
        num = den - fc @ (W @ fc)           # f^T L f with L = D - W
        scores[j] = num / den
    order = np.lexsort((np.arange(p), scores))
    return FeatureRanking(scores, order)


@settings(max_examples=150)
@given(st.integers(3, 9), st.integers(1, 6), st.data())
def test_laplacian_matches_loop_reference(n, p, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, p))
    # duplicated rows tie distances, so the neighbour tie order is exercised
    X = X[data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))]
    for j in data.draw(st.sets(st.integers(0, p - 1))):
        X[:, j] = 1.5
    k_nn = data.draw(st.integers(1, n - 1))
    d = Dataset.from_matrix(X)
    # t on the scale of the distances: a weight near 1e-30 leaves a score that
    # the rounding of the weighted mean decides, in the loop and product forms alike
    t = data.draw(st.floats(0.25, 4.0)) * max(float(pairwise_base(d, True).mean()), 1e-3)
    ref = laplacian_score_loop(d, k_nn=k_nn, t=t)
    got = laplacian_score(d, k_nn=k_nn, t=t)
    const = np.ptp(X, axis=0) == 0
    m = p - int(const.sum())
    assert np.all(got.scores[const] == np.inf)
    assert np.array_equal(got.order[m:], np.flatnonzero(const))
    # scores lie in [0, 2], so an absolute bound is relative to their range
    assert np.abs(got.scores[~const] - ref.scores[~const]).max(initial=0.0) <= 1e-12
    # exact ties (every score is 1 when few rows are distinct) may break either
    # way in rounding; all other pairs keep the reference order
    assert np.all(np.diff(ref.scores[got.order[:m]]) >= -1e-12)


def test_laplacian_underflow_names_t_and_the_sample():
    # b's only neighbour weight is exp(-71) ~ 1.5e-31: below the rounding of
    # the weighted mean removal, which then sets every score
    a, b = np.random.default_rng(3).normal(size=(5, 4))[:2]
    d = Dataset.from_matrix(np.array([a, a, a, a, b]))
    with pytest.raises(DegenerateDataError) as info:
        laplacian_score(d, k_nn=1, t=0.25)
    assert str(info.value).startswith("heat-kernel width t=0.25 is too small for sample 's4': "
                                      "its graph degree 1.46e-31 is below the rounding level")
    # at t = 1e-3 b's weight underflows to 0: the same cause, so the same message
    with pytest.raises(DegenerateDataError) as info:
        laplacian_score(d, k_nn=1, t=1e-3)
    assert str(info.value) == ("heat-kernel width t=0.001 is too small for sample 's4': "
                               "all its graph weights underflow to 0; use a larger t")
    # every weight 0, so the rounding level n eps max degree is 0 as well
    far = Dataset.from_matrix(np.arange(4.0)[:, None] * 10)
    with pytest.raises(DegenerateDataError, match="t=0.001 is too small for sample 's0': all"):
        laplacian_score(far, k_nn=1, t=1e-3)
    # at a t on the scale of the distances the same rows score normally
    assert np.all(np.isfinite(laplacian_score(d, k_nn=1).scores))


def test_laplacian_knn_bounds():
    d = two_blobs(10, 2, seed=0)
    with pytest.raises(InputError):
        laplacian_score(d, k_nn=10)
    with pytest.raises(InputError):
        laplacian_score(d, k_nn=0)
    for t in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(InputError, match=f"t must be finite and > 0, got {t}"):
            laplacian_score(d, t=t)


# --- subspace distance ------------------------------------------------------

def orthonormal(n, q, seed):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(n, q)))
    return Q


def test_subspace_distance_identity_and_symmetry():
    U = orthonormal(8, 3, 0)
    V = orthonormal(8, 3, 1)
    assert subspace_distance(U, U) == 0.0
    assert subspace_distance(U, V) == pytest.approx(subspace_distance(V, U), abs=1e-12)


def test_subspace_distance_range():
    for q in (1, 2, 3):
        for seed in range(20):
            U = orthonormal(9, q, seed)
            V = orthonormal(9, q, seed + 100)
            d = subspace_distance(U, V)
            assert 0.0 <= d <= math.sqrt(q) + 1e-12


def test_subspace_distance_orthogonal_spans_reach_sqrt_q():
    U = np.eye(6)[:, :2]
    V = np.eye(6)[:, 2:4]
    assert subspace_distance(U, V) == pytest.approx(math.sqrt(2), abs=1e-12)


# --- permutation importance --------------------------------------------------

def test_permutation_constant_feature_exact_zero():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(10, 3))
    X[:, 2] = 1.5
    d = Dataset.from_matrix(X)
    r = permutation_importance(d, rbf_for(d), 2, n_perm=3, seed=0)
    assert r.scores[2] == 0.0
    assert r.order[-1] == 2


def test_permutation_planted_feature_wins():
    wins = 0
    for seed in range(50):
        d = two_blobs(40, 10, separation=8.0, spread=1.0, seed=seed)
        r = permutation_importance(d, rbf_for(d), 2, n_perm=1, seed=seed)
        wins += int(r.order[0]) == 0
    assert wins >= 45  # >= 90% of trials


def test_permutation_seeded_reproducibility():
    d = two_blobs(20, 5, seed=3)
    spec = rbf_for(d)
    a = permutation_importance(d, spec, 2, n_perm=2, seed=42)
    b = permutation_importance(d, spec, 2, n_perm=2, seed=42)
    assert np.array_equal(a.scores, b.scores)
    c = permutation_importance(d, spec, 2, n_perm=2, seed=43)
    assert not np.array_equal(a.scores, c.scores)


def test_permutation_variance_shrinks_with_more_draws():
    d = two_blobs(30, 8, separation=6.0, spread=1.0, seed=3)
    spec = rbf_for(d)
    variances = []
    for n_perm in (1, 4, 16):
        scores = np.array([permutation_importance(d, spec, 2, n_perm=n_perm, seed=s).scores
                           for s in range(10)])
        variances.append(scores.var(axis=0).mean())
    assert variances[0] >= variances[1] >= variances[2]


def test_permutation_gram_metric_flag():
    d = two_blobs(15, 4, seed=4)
    spec = rbf_for(d)
    sub = permutation_importance(d, spec, 2, seed=0, metric="subspace")
    gram = permutation_importance(d, spec, 2, seed=0, metric="gram")
    assert not np.array_equal(sub.scores, gram.scores)
    X = d.matrix.copy()
    X[:, 1] = 0.0
    dc = Dataset.from_matrix(X)
    assert permutation_importance(dc, rbf_for(dc), 2, seed=0, metric="gram").scores[1] == 0.0


def test_permutation_input_validation():
    d = two_blobs(10, 3, seed=5)
    with pytest.raises(InputError):
        permutation_importance(d, rbf_for(d), 2, n_perm=0)
    with pytest.raises(InputError):
        permutation_importance(d, rbf_for(d), 0)
    with pytest.raises(InputError):
        permutation_importance(d, rbf_for(d), 2, metric="spectral")


@pytest.mark.parametrize("metric", ["subspace", "gram"])
def test_permutation_tiny_sigma_names_the_bandwidth(metric):
    # every kernel value rounds to 1, so the leading subspace is rounding noise
    d = two_blobs(12, 4, seed=6)
    with pytest.raises(DegenerateDataError, match="rbf bandwidth sigma=1e-20 is too small"):
        permutation_importance(d, KernelSpec("rbf", sigma=1e-20), 2, metric=metric)


@pytest.mark.parametrize("metric", ["subspace", "gram"])
def test_permutation_identity_gram_names_the_bandwidth(metric):
    # every off-diagonal kernel value underflows to 0, so K = I exactly
    d = two_blobs(12, 4, seed=6)
    with pytest.raises(DegenerateDataError, match="rbf bandwidth sigma=1000.0 is too large"):
        permutation_importance(d, KernelSpec("rbf", sigma=1e3), 2, metric=metric)


def test_permutation_short_eigensolve_raises(monkeypatch):
    # on a tied spectrum LAPACK's subset solver can return fewer than q pairs
    def short_dsyevr(a, *, range, il, iu, **kwargs):
        n = len(a)
        return np.zeros(n), np.zeros((n, iu - il + 1)), 0, np.zeros(0, np.int32), 0

    monkeypatch.setattr(scipy.linalg.lapack, "dsyevr", short_dsyevr)
    d = two_blobs(12, 4, seed=6)
    with pytest.raises(DegenerateDataError, match="top q=2 eigenvectors are not determined"):
        permutation_importance(d, rbf_for(d), 2)
    with pytest.raises(DegenerateDataError, match="top q=2 eigenvalues .* are tied"):
        permutation_importance(d, KernelSpec("linear"), 2)


@pytest.mark.parametrize("n, q", [(12, 11), (3, 2)])
def test_permutation_subspace_q_of_n_minus_1_raises(n, q):
    # the top n-1 axes of any centred Gram span the whole centred space, so
    # every subspace distance would be rounding noise (about 1e-14)
    d = two_blobs(n, 6, seed=8)
    with pytest.raises(DegenerateDataError,
                       match=rf"q={q} is too large for the subspace metric with n={n} samples"):
        permutation_importance(d, rbf_for(d), q)
    assert np.all(np.isfinite(permutation_importance(d, rbf_for(d), q, metric="gram").scores))


def test_permutation_q_above_numerical_rank_raises():
    # a third eigenvector would span rounding noise and every score would be ~1
    d = repeated_rows()
    with pytest.raises(DegenerateDataError,
                       match=r"q=3 exceeds the numerical rank .*: only 2 of its eigenvalues"):
        permutation_importance(d, rbf_for(d), 3)
    scores = permutation_importance(d, rbf_for(d), 2).scores
    assert np.all(np.isfinite(scores)) and scores.max() > 0


def test_permutation_one_pairwise_pass():
    d = two_blobs(12, 5, seed=7)
    # patched where baselines looks it up: one Gram per call, none per draw
    with mock.patch.object(kernels, "_pairs", wraps=kernels._pairs) as pairs, \
            mock.patch.object(baselines, "gram_matrix", wraps=kernels.gram_matrix) as grams:
        spec = KernelSpec("rbf", sigma=sigma_heuristic(d))
        for metric in ("subspace", "gram"):
            permutation_importance(d, spec, 2, n_perm=2, metric=metric)
        assert pairs.call_count == 1
        assert grams.call_count == 2


def _draw_kernel(draw, d):
    family = draw(st.sampled_from(["rbf", "linear", "polynomial"]))
    if family == "rbf":
        return KernelSpec("rbf", sigma=draw(st.floats(0.25, 4.0)) * sigma_heuristic(d))
    if family == "linear":
        return KernelSpec("linear")
    return KernelSpec("polynomial", degree=draw(st.integers(2, 3)))


def _gram_rounding(spec, d):
    """Entrywise rounding level of the Gram, shared by the update and the rebuild:
    each base entry sums p terms of size up to s, and the kernel value scales an
    error in the base by up to |dk/db|."""
    if spec.family == "rbf":
        s, slope = float(pairwise_base(d, True).max()), spec.sigma
    else:
        A = np.abs(d.matrix)
        s = float((A @ A.T).max())
        slope = 1.0 if spec.family == "linear" else spec.degree * (s + spec.coef0) ** (spec.degree - 1)
    return (d.p + 2) * np.finfo(np.float64).eps * s * slope


@settings(max_examples=150)
@given(st.integers(4, 9), st.integers(1, 5), st.data())
def test_permutation_matches_rebuild_reference(n, p, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scales = 10.0 ** np.array(data.draw(st.lists(st.floats(-2, 2), min_size=p, max_size=p)))
    X = rng.normal(size=(n, p)) * scales
    for j in data.draw(st.sets(st.integers(0, p - 1), max_size=p - 1)):
        X[:, j] = scales[j]
    for a, b in data.draw(st.lists(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)),
                                   max_size=2)):
        X[:, a] = X[:, b]
    d = Dataset.from_matrix(X)
    assume(pairwise_base(d, True).any())
    spec = _draw_kernel(data.draw, d)
    # at q = n - 1 the leading subspace is the whole centred space, so every
    # score is 0 in exact arithmetic and rounding noise in both forms
    q = data.draw(st.integers(1, min(3, n - 2)))
    n_perm = data.draw(st.integers(1, 3))
    metric = data.draw(st.sampled_from(["subspace", "gram"]))
    seed = data.draw(st.integers(0, 1000))
    ref, gap = permutation_scores_rebuild(X, spec, q, n_perm=n_perm, seed=seed, metric=metric)
    # both forms round the Gram alike; a score that is a small difference of
    # large kernel values is only known to that level (over the gap, for subspaces)
    floor = n * _gram_rounding(spec, d)
    if metric == "subspace":
        K = gram_matrix(spec, d)
        mu1 = scipy.linalg.eigvalsh(center_gram(K))[-1]
        assume(mu1 > 1e-12 * np.abs(K).max())
        # a closing q-th eigengap leaves the leading subspace undefined in both forms
        assume(gap >= 1e-6 * mu1)
        floor /= gap
    got = permutation_importance(d, spec, q, n_perm=n_perm, seed=seed, metric=metric)
    const = np.ptp(X, axis=0) == 0
    assert np.all(got.scores[const] == 0.0)
    tol = 1e-10 * ref.max() + floor
    assert np.abs(got.scores - ref).max() <= tol
    # the order follows the reference except among scores tied at that level
    assert np.all(np.diff(ref[got.order]) <= tol)


# --- forked blocks -------------------------------------------------------------

def blas_threads():
    return [get() for get, _ in parallel._openblas_pools()]


needs_openblas_fork = pytest.mark.skipif(
    not hasattr(os, "fork") or not parallel._openblas_pools(),
    reason="the baseline forks only where os.fork and OpenBLAS are found")


@contextmanager
def split(forked: bool):
    """Score the features across three processes from one draw each, or in one
    process; every call must leave no child and the BLAS thread counts as found."""
    threads = blas_threads()
    with mock.patch.object(baselines, "_DRAW_CELLS_PER_PROCESS", 1 if forked else sys.maxsize), \
            mock.patch("os.sched_getaffinity", return_value={0, 1, 2}, create=True), \
            mock.patch("os.fork", wraps=os.fork) as fork:
        yield fork
    assert fork.call_count == (2 if forked else 0)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert blas_threads() == threads


@needs_openblas_fork
@pytest.mark.parametrize("metric", ["subspace", "gram"])
@pytest.mark.parametrize("n_perm", [1, 3])
def test_forked_scores_match_one_process(metric, n_perm):
    d = two_blobs(20, 9, separation=3.0, seed=9)
    spec = rbf_for(d)
    runs = []
    for forked in (False, True):
        with split(forked):
            runs.append(permutation_importance(d, spec, 3, n_perm=n_perm, seed=5,
                                               metric=metric))
    one, split_run = runs
    assert np.abs(split_run.scores - one.scores).max() <= 1e-12 * np.abs(one.scores).max()
    assert np.array_equal(split_run.order, one.order)


@needs_openblas_fork
def test_a_block_whose_fork_fails_is_scored_here():
    d = two_blobs(20, 9, separation=3.0, seed=9)
    spec = rbf_for(d)
    with split(False):
        one = permutation_importance(d, spec, 2, seed=4)
    with split(True) as fork:
        fork.side_effect = BlockingIOError(11, "Resource temporarily unavailable")
        got = permutation_importance(d, spec, 2, seed=4)
    # the later blocks are scored after the thread counts are restored
    assert np.abs(got.scores - one.scores).max() <= 1e-12 * np.abs(one.scores).max()
    assert np.array_equal(got.order, one.order)


@needs_openblas_fork
def test_an_error_in_a_childs_block_is_raised_with_its_message(monkeypatch):
    d = two_blobs(20, 9, separation=3.0, seed=9)
    spec = rbf_for(d)
    # feature 8 sits in the last of three blocks; its one permuted Gram is
    # recognised by content, which a forked child inherits with the patch
    perm = np.random.default_rng([0, 8, 0]).permutation(d.n)
    X = d.matrix.copy()
    X[:, 8] = X[perm, 8]
    target = center_gram(gram_matrix(spec, Dataset.from_matrix(X)))
    message = "planted failure on feature 8"
    seen = []

    def leading_subspace(K_centered, q, **kwargs):
        seen.append(blas_threads())
        if np.allclose(K_centered, target, rtol=0, atol=1e-10):
            raise DegenerateDataError(message)
        return real(K_centered, q, **kwargs)

    real = baselines._leading_subspace
    monkeypatch.setattr(baselines, "_leading_subspace", leading_subspace)
    before = blas_threads()
    try:
        for _, set_threads in parallel._openblas_pools():
            set_threads(3)   # a count the cap must restore, whatever the machine has
        for forked in (False, True):
            seen.clear()
            with split(forked), pytest.raises(DegenerateDataError) as info:
                permutation_importance(d, spec, 2, seed=0)
            assert str(info.value) == message
            # the check before the draws ran at the caller's count; this process's
            # reference projector and its block of three features at one thread
            assert seen[0] == [3] * len(before)
            assert seen[1:5] == [[1] * len(before)] * 4
    finally:
        for (_, set_threads), count in zip(parallel._openblas_pools(), before):
            set_threads(count)


@needs_openblas_fork
def test_the_baseline_never_forks_or_caps_blas_while_another_thread_runs(monkeypatch):
    d = two_blobs(20, 9, seed=9)
    threads = blas_threads()
    seen = []

    def leading_subspace(K_centered, q, **kwargs):
        seen.append(blas_threads())
        return real(K_centered, q, **kwargs)

    real = baselines._leading_subspace
    monkeypatch.setattr(baselines, "_leading_subspace", leading_subspace)
    monkeypatch.setattr(baselines, "_DRAW_CELLS_PER_PROCESS", 1)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        with mock.patch("os.fork", side_effect=AssertionError("forked")):
            permutation_importance(d, rbf_for(d), 2)
    finally:
        release.set()
        other.join(timeout=30)
    assert not other.is_alive()
    assert seen and all(c == threads for c in seen)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork is missing")
def test_the_baseline_stays_in_one_process_without_openblas(monkeypatch):
    # MKL or Accelerate would run each process at its full thread count
    monkeypatch.setattr(parallel, "_openblas_pools", lambda: [])
    monkeypatch.setattr(baselines, "_DRAW_CELLS_PER_PROCESS", 1)
    d = two_blobs(20, 9, seed=9)
    with mock.patch("os.fork", side_effect=AssertionError("forked")):
        scores = permutation_importance(d, rbf_for(d), 2).scores
    assert np.all(np.isfinite(scores))


@needs_openblas_fork
@pytest.mark.parametrize("forked", [False, True])
@pytest.mark.parametrize("metric", ["subspace", "gram"])
def test_a_permuted_gram_that_overflows_raises(metric, forked):
    d = Dataset.from_matrix(OVERFLOWS_WHEN_PERMUTED)
    spec = KernelSpec("polynomial", degree=150, coef0=0.0)
    assert np.isfinite(gram_matrix(spec, d)).all()
    with split(forked), pytest.raises(DegenerateDataError) as info:
        permutation_importance(d, spec, 1, metric=metric)
    assert str(info.value) == ("polynomial kernel values overflow float64 at degree=150, "
                               "coef0=0.0; use a lower degree")


# --- the direct LAPACK draw -----------------------------------------------------

@needs_openblas_fork
@pytest.mark.parametrize("forked", [False, True])
@settings(max_examples=60, deadline=None)
@given(st.integers(5, 12), st.integers(3, 6), st.data())
def test_permutation_matches_the_scipy_subset_form(forked, n, p, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, p)) * 10.0 ** rng.uniform(-1, 1, size=p)
    for j in data.draw(st.sets(st.integers(0, p - 1), max_size=p - 2)):
        X[:, j] = X[0, j]
    d = Dataset.from_matrix(X)
    spec = _draw_kernel(data.draw, d)
    metric = data.draw(st.sampled_from(["subspace", "gram"]))
    q = data.draw(st.integers(1, min(3, n - 2)))
    n_perm = data.draw(st.integers(1, 3))
    seed = data.draw(st.integers(0, 1000))
    try:
        with split(forked):
            got = permutation_importance(d, spec, q, n_perm=n_perm, seed=seed, metric=metric)
    except DegenerateDataError:
        # a rank, a gap or a spectrum the baseline refuses (tested above): no scores
        assume(False)
    ref = permutation_scores_subset(d, spec, q, n_perm=n_perm, seed=seed, metric=metric)
    assert np.abs(got.scores - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.all(got.scores[np.ptp(X, axis=0) == 0] == 0.0)


@needs_openblas_fork
@pytest.mark.parametrize("forked", [False, True])
@pytest.mark.parametrize("metric", ["subspace", "gram"])
def test_a_constant_column_scores_exactly_zero(forked, metric):
    # large enough that the caller's two OpenBLAS threads round the eigensolve
    # differently from the one thread of every draw
    d = two_blobs(160, 50, separation=3.0, seed=11)
    X = d.matrix.copy()
    X[:, 2] = 0.5
    d = Dataset.from_matrix(X)
    before = blas_threads()
    try:
        for _, set_threads in parallel._openblas_pools():
            set_threads(2)
        with split(forked):
            scores = permutation_importance(d, rbf_for(d), 3, metric=metric).scores
    finally:
        for (_, set_threads), count in zip(parallel._openblas_pools(), before):
            set_threads(count)
    assert scores[2] == 0.0
    assert np.all(np.delete(scores, 2) > 0)
