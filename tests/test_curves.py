import os
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from kpcaig import (Dataset, InputError, KernelSpec, SigmaRule, clustering_accuracy,
                    explained_variance, fit_kpca, kmeans, nmi, rank_features,
                    selection_curve, sigma_heuristic, silhouette, silhouette_curve,
                    standardize, variance_generalization)
from kpcaig.synthetic import planted_clusters, random_ranking

from kpcaig import curves, kernels
from kpcaig.kpca import project_training

from generators import smooth_manifold
from metric_oracles import kmeans_per_run

MEDIAN = SigmaRule("median")


def planted(seed, n=120, p=500):
    return standardize(planted_clusters(n, p, 4, 10, within_std=0.1, seed=seed)[0])


def noise(n, p, seed):
    return standardize(Dataset.from_matrix(np.random.default_rng(seed).normal(size=(n, p))))


def kpcaig_order(data, q=3):
    spec = KernelSpec("rbf", sigma=sigma_heuristic(data))
    return rank_features(fit_kpca(data, spec, q)).order


def test_selection_curve_full_set_matches_direct_clustering():
    data = planted(0, n=60, p=40)
    pts = selection_curve(data, np.arange(40), data.labels, 4, [40], runs=5, seed=9)
    accs, nmis = [], []
    for r in range(5):
        (res,) = kmeans(data.matrix, 4, [9 + r])
        accs.append(clustering_accuracy(res.labels, data.labels))
        nmis.append(nmi(res.labels, data.labels))
    assert pts[0].acc_mean == pytest.approx(np.mean(accs), abs=1e-15)
    assert pts[0].acc_std == pytest.approx(np.std(accs), abs=1e-15)
    assert pts[0].nmi_mean == pytest.approx(np.mean(nmis), abs=1e-15)


def test_curves_equal_per_run_loops():
    # one lockstep k-means call per d gives the values of one call per run
    data = planted(3, n=50, p=30)
    order = kpcaig_order(data)
    grid = [1, 2, 5, 12, 30]
    points = selection_curve(data, order, data.labels, 4, grid, runs=6, seed=3)
    for pt, d in zip(points, grid):
        runs = [kmeans_per_run(data.matrix[:, order[:d]], 4, 3 + r) for r in range(6)]
        accs = np.array([clustering_accuracy(res.labels, data.labels) for res in runs])
        nmis = np.array([nmi(res.labels, data.labels) for res in runs])
        assert (pt.acc_mean, pt.acc_std, pt.nmi_mean, pt.nmi_std) == \
            (accs.mean(), accs.std(), nmis.mean(), nmis.std())
    points = silhouette_curve(data, order, MEDIAN, 4, grid, seed=2)
    for pt, d in zip(points, grid):
        sub = data.select_features(order[:d])
        model = fit_kpca(sub, KernelSpec("rbf", sigma=sigma_heuristic(sub)), 2)
        coords = project_training(model)
        best = min((kmeans_per_run(coords, 4, 2 + r) for r in range(5)), key=lambda res: res.inertia)
        assert pt.silhouette == silhouette(coords, best.labels)


def test_selection_curve_validation():
    data = planted(1, n=30, p=20)
    with pytest.raises(InputError):
        selection_curve(data, np.arange(20), data.labels, 4, [], runs=2)
    with pytest.raises(InputError):
        selection_curve(data, np.arange(20), data.labels, 4, [30], runs=2)
    with pytest.raises(InputError):
        selection_curve(data, np.arange(20), data.labels, 4, [5], runs=0)


def test_curves_refuse_an_order_shorter_than_the_grid():
    # d=30 must not be clustered on the 20 columns the order lists
    data = planted(1, n=30, p=40)
    with pytest.raises(InputError, match="ranking lists 20 features, fewer than the grid's "
                                         "largest d=30"):
        selection_curve(data, np.arange(20), data.labels, 3, [10, 30], runs=2)
    with pytest.raises(InputError, match="ranking lists 20 features"):
        silhouette_curve(data, np.arange(20), KernelSpec("rbf", sigma=1.0), 3, [30])
    assert len(selection_curve(data, np.arange(20), data.labels, 3, [10, 20], runs=2)) == 2


@pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork is missing")
def test_forked_selection_curve_is_the_one_process_curve():
    data = planted(3, n=50, p=30)
    order = kpcaig_order(data)
    grid = [1, 2, 5, 9, 12, 30, 20]     # 7 points over 3 processes: 2, 2 and 3
    runs = []
    for forked in (False, True):
        with mock.patch.object(curves, "_SAMPLE_RUNS_PER_PROCESS",
                               1 if forked else sys.maxsize), \
                mock.patch("os.sched_getaffinity", return_value={0, 1, 2}, create=True), \
                mock.patch("os.fork", wraps=os.fork) as fork:
            runs.append(selection_curve(data, order, data.labels, 4, grid, runs=6, seed=3))
        assert fork.call_count == (2 if forked else 0)
        with pytest.raises(ChildProcessError):    # no child is left behind
            os.waitpid(-1, os.WNOHANG)
    one, split = runs
    assert split == one
    stats = [np.array([[pt.acc_mean, pt.acc_std, pt.nmi_mean, pt.nmi_std] for pt in points])
             for points in runs]
    assert stats[1].tobytes() == stats[0].tobytes()


def test_selection_curve_planted_signal_beats_random():
    wins = 0
    for seed in range(5):
        data = planted(seed)
        informed = selection_curve(data, kpcaig_order(data), data.labels, 4,
                                   [10], runs=10, seed=50)
        rand = selection_curve(data, random_ranking(data.p, seed + 1000),
                               data.labels, 4, [10], runs=10, seed=50)
        wins += informed[0].acc_mean > rand[0].acc_mean
    assert wins == 5


def test_silhouette_curve_reads_a_rule_beside_an_rbf_spec_as_the_kernel():
    # perfbench's EvalProtocol spells the median kernel as a placeholder rbf
    # spec with sigma_rule=; it gives the one-value curve's points, bit for bit
    data = planted(1, n=60, p=40)
    order, grid = kpcaig_order(data), [5, 20, 40]
    pair = silhouette_curve(data, order, KernelSpec("rbf", sigma=1.0), 4, grid,
                            sigma_rule=MEDIAN, seed=3)
    assert pair == silhouette_curve(data, order, MEDIAN, 4, grid, seed=3)
    with pytest.raises(InputError, match="^a sigma rule picks an rbf bandwidth, but the "
                       "kernel is linear$"):
        silhouette_curve(data, order, KernelSpec("linear"), 4, grid, sigma_rule=MEDIAN)


def test_silhouette_curve_full_set_ranking_independent():
    data = planted(2, n=50, p=30)
    a = silhouette_curve(data, np.arange(30), MEDIAN, 4, [30], seed=4)
    b = silhouette_curve(data, random_ranking(30, 77), MEDIAN, 4, [30], seed=4)
    assert a[0].silhouette == pytest.approx(b[0].silhouette, abs=1e-9)


def test_silhouette_curve_planted_dominates_mean_of_random():
    grid = [10, 50, 100, 150, 200, 250]
    for seed in range(3):
        data = planted(seed)
        informed = silhouette_curve(data, kpcaig_order(data), MEDIAN, 4, grid, seed=7)
        rand_curves = []
        for r in range(5):
            pts = silhouette_curve(data, random_ranking(data.p, seed * 100 + r),
                                   MEDIAN, 4, grid, seed=7)
            rand_curves.append([p.silhouette for p in pts])
        mean_rand = np.mean(rand_curves, axis=0)
        assert all(a.silhouette >= b for a, b in zip(informed, mean_rand))


def test_silhouette_curve_noise_band():
    data = noise(100, 200, 9)
    grid = [20, 60, 120, 200]
    curves = []
    for seed in range(5):
        pts = silhouette_curve(data, random_ranking(200, seed), MEDIAN, 3, grid, seed=3)
        curves.append([p.silhouette for p in pts])
    curves = np.asarray(curves)
    assert (curves.max(axis=0) - curves.min(axis=0)).max() <= 0.3  # +-0.15 band


def test_variance_generalization_full_set_equals_full_fit():
    data = noise(40, 12, 1)
    spec = KernelSpec("rbf", sigma=0.05)
    pts = variance_generalization(data, spec, 2, [12], n_splits=2, seed=3)
    # recompute the train-side value for split 0 directly
    perm = np.random.default_rng([3, 0]).permutation(40)
    train = data.subset_samples(perm[: int(0.75 * 40)])
    model = fit_kpca(train, spec, 2)
    want = float(explained_variance(model).sum())
    got = [pt.var_train for pt in pts if pt.split == 0][0]
    assert got == pytest.approx(want, abs=1e-12)


def test_variance_generalization_identical_halves():
    rng = np.random.default_rng(4)
    half = rng.normal(size=(20, 8))
    data = standardize(Dataset.from_matrix(np.vstack([half, half])))
    spec = KernelSpec("rbf", sigma=0.1)
    pts = variance_generalization(data, spec, 2, [4, 8], split_indices=[
        (np.arange(20), np.arange(20, 40))])
    for pt in pts:
        assert abs(pt.var_train - pt.var_test) < 1e-8


def test_variance_generalization_split_too_small():
    data = noise(8, 5, 5)
    with pytest.raises(InputError):
        variance_generalization(data, KernelSpec("rbf", sigma=0.1), 2, [5],
                                split_indices=[(np.arange(6), np.arange(6, 8))])
    with pytest.raises(InputError, match="n_splits must be >= 1, got 0"):
        variance_generalization(data, KernelSpec("rbf", sigma=0.1), 2, [5], n_splits=0)


def test_variance_generalization_holds_one_training_copy():
    X = np.random.default_rng(6).normal(size=(100, 8000))
    data = Dataset.from_matrix(X)
    spec = KernelSpec("polynomial", degree=2)
    # small ranking blocks, so the peak is the copies of the matrix
    with mock.patch.object(kernels, "BLOCK_BYTES", 1 << 14):
        variance_generalization(data, spec, 2, [5], n_splits=1)    # warm-up
        tracemalloc.start()
        try:
            pts = variance_generalization(data, spec, 2, [5, 15], n_splits=3, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert len(pts) == 6
    # one 75% training copy, the small top-d subsets and per-feature names
    # (0.91 times the matrix); a second training copy beside it or a copy of
    # the test half reads 1.67 or 1.17
    assert peak < 1.05 * X.nbytes


def test_variance_generalization_smooth_manifold_gap():
    data = standardize(smooth_manifold(200, 40, noise=0.02, seed=5))
    pts = variance_generalization(data, MEDIAN, 2, [5, 10, 20, 40], n_splits=5, seed=11)
    assert max(abs(p.var_train - p.var_test) for p in pts) < 0.1
