"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 9 needs the public benchmark datasets on disk and is
skipped otherwise (see scripts/reproduce_benchmarks.py).
"""

import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from kpcaig import (Dataset, KernelSpec, center_gram, clustering_accuracy,
                    explained_variance, fit_kpca, gradient_field, gram_matrix,
                    nmi, project_training, rank_features, resolve_spec, save_matrix,
                    selection_curve, sigma_heuristic, silhouette, silhouette_curve,
                    standardize, variance_generalization)
from kpcaig.kpca import SigmaRule
from kpcaig.synthetic import planted_clusters, random_ranking

from generators import smooth_manifold
from kernel_oracles import eval_kernel, kernel_partial, project_point
from test_metrics import brute_force_acc, brute_force_silhouette

FAMILIES = [
    KernelSpec("rbf", sigma=0.7),
    KernelSpec("linear"),
    KernelSpec("polynomial", degree=2, coef0=1.0),
]


def report(num, name):
    print(f"\n[ACCEPTANCE] criterion {num} ({name}): PASS")


@pytest.mark.filterwarnings("ignore::UserWarning")  # tiny instances may drop rank
def test_criterion_1_gradient_oracle():
    t0 = time.perf_counter()
    h = 1e-5
    rng = np.random.default_rng(101)
    cases = 0
    while cases < 500:
        spec = FAMILIES[cases % 3]
        n = int(rng.integers(5, 12))
        p = int(rng.integers(2, 6))
        X = rng.uniform(-2, 2, size=(n, p))
        model = fit_kpca(Dataset.from_matrix(X), spec, min(3, n - 1))
        for _ in range(20):
            m = int(rng.integers(n))
            i = int(rng.integers(n))
            j = int(rng.integers(p))
            got = kernel_partial(spec, X[m], X[i], j)
            e = np.zeros(p)
            e[j] = h
            fd = (eval_kernel(spec, X[m] + e, X[i]) - eval_kernel(spec, X[m] - e, X[i])) / (2 * h)
            if abs(got) > 1e-3:
                assert abs(got - fd) / abs(got) < 1e-6
            W = gradient_field(model, j)
            fd_row = (project_point(model, X[m] + e) - project_point(model, X[m] - e)) / (2 * h)
            denom = max(np.linalg.norm(W[m]), 1e-8)
            assert np.linalg.norm(fd_row - W[m]) / denom < 1e-4
            cases += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"gradient oracle took {elapsed:.1f}s"
    report(1, "gradient oracle, 500 cases, all kernel families")


def test_criterion_2_pca_equivalence():
    t0 = time.perf_counter()
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        p = int(rng.integers(2, 11))
        n = int(rng.integers(p + 3, 31))
        data = standardize(Dataset.from_matrix(rng.normal(size=(n, p))))
        model = fit_kpca(data, KernelSpec("linear"), p)
        Xc = data.matrix - data.matrix.mean(axis=0)
        U, S, Vt = np.linalg.svd(Xc, full_matrices=False)
        scores = Xc @ Vt.T
        emb = project_training(model)
        ratios = S**2 / (S**2).sum()
        assert np.abs(explained_variance(model) - ratios[: model.q]).max() < 1e-8
        xs = rng.normal(size=(4, p))
        for k in range(model.q):
            s = np.sign(np.dot(emb[:, k], scores[:, k]))
            assert np.abs(emb[:, k] - s * scores[:, k]).max() < 1e-8
            for x in xs:
                want = s * ((x - data.matrix.mean(axis=0)) @ Vt[k])
                assert abs(project_point(model, x)[k] - want) < 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"PCA equivalence took {elapsed:.1f}s"
    report(2, "linear-kernel KPCA equals classical PCA, 20 instances")


def test_criterion_3_centering_algebra():
    rng = np.random.default_rng(300)
    for _ in range(50):
        n = int(rng.integers(3, 13))
        A = rng.normal(size=(n, n + 2))
        K = A @ A.T
        H = np.eye(n) - np.ones((n, n)) / n
        C = center_gram(K)
        assert np.abs(C - H @ K @ H).max() < 1e-12
        assert np.abs(center_gram(C) - C).max() < 1e-10
        assert np.abs(C.sum(axis=0)).max() < 1e-8
        assert np.abs(C.sum(axis=1)).max() < 1e-8
    report(3, "centering equals H*K*H, idempotent, zero means, 50 matrices")


def test_criterion_4_ranking_properties():
    rng = np.random.default_rng(400)
    X = rng.normal(size=(20, 8))
    X[:, 3] = 0.25          # constant
    X[:, 6] = X[:, 1]       # duplicate
    spec = KernelSpec("rbf", sigma=0.4)
    model = fit_kpca(Dataset.from_matrix(X), spec, 3)
    ranking = rank_features(model)
    assert ranking.scores[3] == 0.0 and ranking.stds[3] == 0.0
    assert ranking.order[-1] == 3
    assert ranking.scores[1] == ranking.scores[6]
    perm = rng.permutation(8)
    permuted = fit_kpca(Dataset.from_matrix(X[:, perm]), spec, 3)
    assert np.abs(rank_features(permuted).scores - ranking.scores[perm]).max() < 1e-10
    again = rank_features(fit_kpca(Dataset.from_matrix(X), spec, 3))
    assert np.array_equal(again.scores, ranking.scores)
    assert np.array_equal(again.order, ranking.order)
    report(4, "constant/duplicate/permutation/determinism ranking properties")


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(500)
    for _ in range(200):
        n = int(rng.integers(6, 16))
        kp = int(rng.integers(2, 6))
        kt = int(rng.integers(2, 6))
        pred = rng.integers(0, kp, n)
        truth = rng.integers(0, kt, n)
        assert abs(clustering_accuracy(pred, truth) - brute_force_acc(pred, truth)) < 1e-12
    # hand-computed contingency [[3,1],[1,3]]: I = .75 ln 1.5 + .25 ln .5, H = ln 2
    pred = [0, 0, 0, 0, 1, 1, 1, 1]
    truth = [0, 0, 0, 1, 0, 1, 1, 1]
    assert abs(nmi(pred, truth) - 0.18872187554086714) < 1e-10
    for _ in range(50):
        a = rng.integers(0, 4, 24)
        b = rng.integers(0, 4, 24)
        relabeled = 7 - a
        assert abs(nmi(a, b) - nmi(relabeled, b)) < 1e-12
        assert abs(nmi(a, b) - nmi(b, a)) < 1e-12
    count = 0
    while count < 50:
        m = int(rng.integers(4, 21))
        X = rng.normal(size=(m, 3))
        labels = rng.integers(0, 3, m)
        if len(set(labels.tolist())) < 2:
            continue
        assert abs(silhouette(X, labels) - brute_force_silhouette(X, labels)) < 1e-12
        count += 1
    report(5, "ACC brute force (200), NMI hand values + invariance, silhouette oracle")


def test_criterion_6_planted_signal_recovery():
    t0 = time.perf_counter()
    acc_wins = 0
    for seed in range(20):
        data = standardize(planted_clusters(120, 500, 4, 10, within_std=0.1, seed=seed)[0])
        spec = KernelSpec("rbf", sigma=sigma_heuristic(data))
        order = rank_features(fit_kpca(data, spec, 3)).order
        informed = selection_curve(data, order, data.labels, 4, [10], runs=20, seed=900)
        rand = selection_curve(data, random_ranking(500, seed + 4000),
                               data.labels, 4, [10], runs=20, seed=900)
        acc_wins += informed[0].acc_mean > rand[0].acc_mean
    assert acc_wins >= 18, f"ACC(10) wins: {acc_wins}/20"

    # each trial compares the method's curve against the pointwise mean of
    # five random-ranking curves; single draws tie at noise level near d=p/2
    grid = [10, 50, 100, 150, 200, 250]
    dominating = 0
    for seed in range(10):
        data = standardize(planted_clusters(120, 500, 4, 10, within_std=0.1, seed=seed)[0])
        spec = KernelSpec("rbf", sigma=sigma_heuristic(data))
        order = rank_features(fit_kpca(data, spec, 3)).order
        informed = silhouette_curve(data, order, KernelSpec("rbf", sigma=1.0), 4, grid,
                                    sigma_rule=SigmaRule("median"), seed=7)
        rand_curves = []
        for r in range(5):
            pts = silhouette_curve(data, random_ranking(500, seed * 100 + r),
                                   KernelSpec("rbf", sigma=1.0), 4, grid,
                                   sigma_rule=SigmaRule("median"), seed=7)
            rand_curves.append([p.silhouette for p in pts])
        mean_rand = np.mean(rand_curves, axis=0)
        dominating += all(a.silhouette >= b for a, b in zip(informed, mean_rand))
    assert dominating >= 9, f"silhouette domination: {dominating}/10"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"planted-signal suite took {elapsed:.1f}s"
    report(6, f"planted recovery: ACC wins {acc_wins}/20, "
              f"silhouette domination {dominating}/10, {elapsed:.0f}s")


def test_criterion_7_variance_generalization():
    t0 = time.perf_counter()
    data = standardize(smooth_manifold(200, 40, noise=0.02, seed=5))
    pts = variance_generalization(data, KernelSpec("rbf", sigma=1.0), 2,
                                  [5, 10, 20, 30, 40], n_splits=5, seed=11,
                                  sigma_rule=SigmaRule("median"))
    worst = max(abs(p.var_train - p.var_test) for p in pts)
    assert worst < 0.1, f"max train/test gap {worst:.3f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"variance generalization took {elapsed:.1f}s"
    report(7, f"train/test variance gap < 0.1 (worst {worst:.3f}), 5 splits")


def test_criterion_8_throughput_bench(tmp_path):
    # throughput check: `kpcaig rank` on a written 165 x 12626 TSV, single-threaded,
    # timed over the whole run, from process start to the written table
    path = tmp_path / "wide.tsv"
    save_matrix(Dataset.from_matrix(np.random.default_rng(1).normal(size=(165, 12626))), path)
    out = tmp_path / "rank.tsv"
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "kpcaig", "rank", str(path), "--q", "3", "-o", str(out)],
        capture_output=True, text=True, env=env,
        cwd=str(Path(__file__).resolve().parent.parent))
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    assert len(out.read_text(encoding="utf-8").splitlines()) == 2 + 12626
    assert elapsed < 120.0
    report(8, f"165x12626 kpcaig rank in {elapsed:.1f}s (whole run)")


BENCH_DIR = Path(os.environ.get("KPCAIG_BENCHMARK_DIR",
                                Path(__file__).resolve().parent / "data" / "benchmarks"))


def _mat_path(name):
    return BENCH_DIR / f"{name}.mat"


@pytest.mark.skipif(not (_mat_path("Glioma").exists() and _mat_path("Carcinom").exists()),
                    reason="extended criterion: benchmark .mat files not present "
                           "(download them and set KPCAIG_BENCHMARK_DIR; "
                           "see scripts/reproduce_benchmarks.py)")
def test_criterion_9_benchmark_reproduction():
    from scipy.io import loadmat

    def run(name, q, d, target, band):
        raw = loadmat(_mat_path(name))
        X = np.asarray(raw["X"], dtype=np.float64)
        y = np.asarray(raw["Y"]).ravel().astype(int)
        data = standardize(Dataset.from_matrix(X, labels=y))
        rule = SigmaRule("grid", grid=tuple(10.0**e for e in range(-7, 1)))
        spec = resolve_spec(KernelSpec("rbf", sigma=1.0), rule, data, q)
        order = rank_features(fit_kpca(data, spec, q)).order
        pts = selection_curve(data, order, y, int(np.unique(y).size), [d],
                              runs=20, seed=0)
        acc = pts[0].acc_mean
        assert abs(acc - target) <= band, f"{name} ACC({d}) = {acc:.3f}, want {target}+-{band}"
        return acc

    g = run("Glioma", q=3, d=300, target=0.57, band=0.07)
    c = run("Carcinom", q=5, d=10, target=0.51, band=0.07)
    report(9, f"benchmark reproduction: Glioma ACC(300)={g:.2f}, Carcinom ACC(10)={c:.2f}")
