import contextlib
import importlib.machinery
import itertools
import os
import sys
from unittest import mock

import numpy as np
import pytest
import scipy.spatial.distance
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist, pdist, squareform

from kpcaig import (InputError, clustering_accuracy, kmeans, nmi, selection_curve, silhouette,
                    standardize)
from kpcaig import curves, metrics
from kpcaig.metrics import table_accuracy
from kpcaig.synthetic import planted_clusters

from generators import two_blobs
from metric_oracles import kmeans_per_run

# hand-computed for contingency [[3, 1], [1, 3]]: I = 0.75*ln(3/2) + 0.25*ln(1/2),
# H_pred = H_true = ln 2, NMI = I / ln 2
NMI_3113 = 0.18872187554086714


def counting(seam):
    """Patch the metrics function named seam with a mock that counts its calls."""
    return mock.patch.object(metrics, seam, wraps=getattr(metrics, seam))


def fixed_centres(init):
    """Patch k-means++ seeding so that every run starts from the centres init."""
    return mock.patch.object(metrics, "_kmeanspp", lambda X, k, rngs: np.repeat(
        np.asarray(init, dtype=np.float64)[None], len(rngs), axis=0))


def brute_force_acc(pred, truth):
    """Try every injective class mapping; the optimal-assignment oracle."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    pc = np.unique(pred)
    tc = np.unique(truth)
    small, large, swap = (pc, tc, False) if len(pc) <= len(tc) else (tc, pc, True)
    best = 0
    for mapping in itertools.permutations(large, len(small)):
        table = dict(zip(small, mapping))
        if swap:
            agree = sum(int(table[t] == p) for p, t in zip(pred, truth))
        else:
            agree = sum(int(table[p] == t) for p, t in zip(pred, truth))
        best = max(best, agree)
    return best / len(pred)


def brute_force_silhouette(X, labels):
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    vals = []
    for i in range(len(X)):
        own = [j for j in range(len(X)) if labels[j] == labels[i] and j != i]
        if not own:
            vals.append(0.0)
            continue
        a = np.mean([np.linalg.norm(X[i] - X[j]) for j in own])
        b = min(np.mean([np.linalg.norm(X[i] - X[j])
                         for j in range(len(X)) if labels[j] == c])
                for c in set(labels) if c != labels[i])
        vals.append(0.0 if max(a, b) == 0 else (b - a) / max(a, b))
    return float(np.mean(vals))


def silhouette_loop(coords, labels) -> float:
    """Reference: the per-point loop ``silhouette`` replaced, same arithmetic."""
    X = np.atleast_2d(np.asarray(coords, dtype=np.float64))
    classes, inv = np.unique(np.asarray(labels).ravel(), return_inverse=True)
    D = squareform(pdist(X))
    counts = np.bincount(inv)
    sums = np.zeros((X.shape[0], classes.size))
    for c in range(classes.size):
        sums[:, c] = D[:, inv == c].sum(axis=1)
    vals = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        c = inv[i]
        if counts[c] == 1:
            vals[i] = 0.0
            continue
        a = sums[i, c] / (counts[c] - 1)
        others = [sums[i, o] / counts[o] for o in range(classes.size) if o != c]
        b = min(others)
        top = max(a, b)
        vals[i] = 0.0 if top == 0 else (b - a) / top
    return float(vals.mean())


# --- k-means -------------------------------------------------------------

def test_kmeans_separated_blobs_every_seed():
    for seed in range(20):
        d = two_blobs(40, 2, separation=10.0, spread=1.0, seed=seed)
        labels, _ = kmeans(d.matrix, 2, [seed])
        assert clustering_accuracy(labels[0], d.labels) == 1.0


@pytest.mark.parametrize("runs", [1, 4, 20])
def test_kmeans_distance_calls_do_not_grow_with_restarts(runs):
    # lockstep: one distance call per k-means++ centre and one per Lloyd step,
    # shared by every restart; blobs this far apart leave no cluster empty,
    # so no repair adds a call
    data, _ = planted_clusters(60, 6, 4, 6, within_std=0.3, seed=0)
    with counting("_cdist") as distances, counting("_cluster_means") as means:
        kmeans(data.matrix, 4, range(runs))
    steps = max(kmeans_per_run(data.matrix, 4, seed).n_iter for seed in range(runs))
    assert distances.call_count == 4 + steps
    # every Lloyd step but the last, after which no run goes on, moves centres
    assert means.call_count == steps - 1


# --- the distance seam ---------------------------------------------------

needs_distance_module = pytest.mark.skipif(
    metrics._distance_kernels() is None,
    reason="scipy's compiled distance module does not load on its own, so only cdist runs")

METRICS = ["sqeuclidean", "euclidean"]


def points(rng, m, d, form):
    """An m x d array of the given form: float64 rows, a strided view, or integers."""
    if form == "int":
        return rng.integers(-4, 5, size=(m, d))
    big = rng.normal(size=(2 * m, 2 * d)) * 10.0 ** rng.integers(-3, 4)
    return big[::2, ::-2] if form == "view" else np.ascontiguousarray(big[:m, :d])


@needs_distance_module
@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 40),
       st.sampled_from(["rows", "view", "int"]), st.sampled_from(["rows", "view", "int"]),
       st.booleans(), st.sampled_from(METRICS), st.data())
def test_cdist_seam_equals_scipys_cdist_bit_for_bit(ma, mb, d, form_a, form_b, repeat, metric,
                                                    data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    XA = points(rng, ma, d, form_a)
    # repeated rows: XB drawn with replacement from XA's rows
    XB = XA[rng.integers(ma, size=mb)] if repeat else points(rng, mb, d, form_b)
    want = cdist(XA, XB, metric)
    got = metrics._cdist(XA, XB, metric)
    assert got.dtype == want.dtype and got.shape == want.shape == (len(XA), len(XB))
    assert got.tobytes() == want.tobytes()


@needs_distance_module
@pytest.mark.parametrize("metric", METRICS)
def test_cdist_seam_refuses_what_cdist_refuses(metric):
    one = np.array([[2.5]])
    assert metrics._cdist(one, one, metric).tobytes() == cdist(one, one, metric).tobytes()
    for XA, XB in [(np.zeros((3, 2)), np.zeros((2, 3))), (np.zeros(3), np.zeros((2, 3))),
                   (np.zeros((2, 3)), np.zeros((1, 2, 3)))]:
        with pytest.raises(ValueError) as want:
            cdist(XA, XB, metric)
        with pytest.raises(ValueError) as got:
            metrics._cdist(XA, XB, metric)
        assert str(got.value) == str(want.value)


def clusterings(data, order, forked: bool):
    """k-means results, a silhouette and a selection curve, its points split over
    three processes or computed in one."""
    X = data.matrix[:, order[:6]]
    labels, inertia = kmeans(X, 4, range(6))
    with mock.patch.object(curves, "_SAMPLE_RUNS_PER_PROCESS", 1 if forked else sys.maxsize), \
            mock.patch("os.sched_getaffinity", return_value={0, 1, 2}, create=True), \
            mock.patch("os.fork", wraps=os.fork) as fork:
        curve = selection_curve(data, order, data.labels, 4, [1, 2, 5, 9, 12], runs=4, seed=3)
    assert fork.call_count == (2 if forked else 0)
    return ((labels.tobytes(), inertia.tobytes()), silhouette(X[:, :2], labels[0]), curve)


@needs_distance_module
@pytest.mark.parametrize("forked", [False, pytest.param(True, marks=pytest.mark.skipif(
    not hasattr(os, "fork"), reason="os.fork is missing"))])
def test_without_the_distance_module_cdist_gives_the_same_clusterings(forked):
    data = standardize(planted_clusters(50, 30, 4, 8, within_std=0.5, seed=4)[0])
    order = np.random.default_rng(1).permutation(data.p)
    with mock.patch.object(scipy.spatial.distance, "cdist",
                           wraps=scipy.spatial.distance.cdist) as fallback:
        runs = [clusterings(data, order, forked)]
        assert fallback.call_count == 0
        with mock.patch.object(metrics, "_distance_kernels", lambda: None):
            runs.append(clusterings(data, order, forked))
        assert fallback.call_count > 0
    (fits, sil, curve), (fits_cdist, sil_cdist, curve_cdist) = runs
    assert fits == fits_cdist
    assert sil == sil_cdist
    assert curve == curve_cdist


@needs_distance_module
def test_a_missing_distance_module_file_falls_back_to_cdist(monkeypatch):
    data = standardize(planted_clusters(50, 30, 4, 8, within_std=0.5, seed=4)[0])
    order = np.arange(data.p)
    want = clusterings(data, order, False)
    metrics._distance_kernels.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.delitem(sys.modules, metrics._DISTANCE_MODULE)
            patch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
            assert metrics._distance_kernels() is None
            with mock.patch.object(scipy.spatial.distance, "cdist",
                                   wraps=scipy.spatial.distance.cdist) as fallback:
                got = clusterings(data, order, False)
            assert fallback.call_count > 0
    finally:
        metrics._distance_kernels.cache_clear()
    assert got == want
    assert metrics._distance_kernels() is sys.modules[metrics._DISTANCE_MODULE]


def test_kmeans_k_equals_m():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(6, 2))
    labels, inertia = kmeans(X, 6, [3])
    assert inertia[0] == 0.0
    assert len(set(labels[0].tolist())) == 6


def test_kmeans_deterministic():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 3))
    (labels_a, inertia_a), (labels_b, inertia_b) = kmeans(X, 4, [7]), kmeans(X, 4, [7])
    assert np.array_equal(labels_a, labels_b)
    assert np.array_equal(inertia_a, inertia_b)


def test_kmeans_k_too_large():
    with pytest.raises(InputError):
        kmeans(np.zeros((3, 2)), 4, [0])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_points_are_refused(value):
    X = np.random.default_rng(0).normal(size=(6, 2))
    X[4, 1] = value
    for call in (lambda: kmeans(X, 2, [0]), lambda: silhouette(X, [0, 0, 0, 1, 1, 1])):
        with pytest.raises(InputError, match=f"points must be finite, got {value}"):
            call()


def test_a_three_dimensional_point_array_is_refused():
    X = np.zeros((4, 2, 2))
    for call in (lambda: kmeans(X, 2, [0]), lambda: silhouette(X, [0, 0, 1, 1])):
        with pytest.raises(InputError, match=r"2-D array \(m x d\), got shape \(4, 2, 2\)"):
            call()


def test_a_one_dimensional_point_array_is_refused():
    # once read as a single 4-dimensional point
    x = np.arange(4.0)
    for call in (lambda: kmeans(x, 1, [0]), lambda: kmeans(x, 2, [0]),
                 lambda: silhouette(x, [0, 0, 1, 1])):
        with pytest.raises(InputError, match=r"2-D array \(m x d\), got shape \(4,\)"):
            call()


def test_a_non_integer_k_is_refused():
    for k in (2.5, 2.0, "2"):
        with pytest.raises(InputError, match=rf"an integer in \[1, m\], got k={k!r} for m=4"):
            kmeans(np.zeros((4, 2)), k, [0])
    labels, _ = kmeans(np.arange(8.0).reshape(4, 2), np.int64(2), [0])
    assert labels.shape == (1, 4)


@settings(max_examples=300)
@given(st.integers(2, 30), st.integers(1, 5), st.data())
def test_kmeanspp_draws_as_generator_choice(m, runs, data):
    # random weights stand in for the distances to the first centre, zeros
    # frequent and some rows all zero; each point is its own index
    weight = st.one_of(st.just(0.0), st.floats(0.0, 1e100), st.floats(0.0, 1e-300))
    w = np.array(data.draw(st.lists(st.lists(weight, min_size=m, max_size=m),
                                    min_size=runs, max_size=runs)))
    seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=runs, max_size=runs))
    rngs = [np.random.default_rng(s) for s in seeds]
    with mock.patch.object(metrics, "_cdist", side_effect=[w, w]):
        centres = metrics._kmeanspp(np.arange(m, dtype=np.float64)[:, None], 2, rngs)
    for row, seed, rng, (first, drawn) in zip(w, seeds, rngs, centres[:, :, 0].astype(int)):
        ref = np.random.default_rng(seed)
        assert first == ref.integers(m)
        if row.sum() > 0:
            assert drawn == ref.choice(m, p=row / row.sum())
        else:               # no draw: the first point that is not a centre
            assert drawn == int(first == 0)
        # each generator is left where choice leaves it, or untouched
        assert rng.random() == ref.random()


def test_kmeans_empty_cluster_repair():
    X = np.array([[0.0], [0.1], [0.2], [50.0]])
    # second initial center is far from every point, so its cluster starts empty
    with fixed_centres([[0.1], [500.0]]):
        (labels,), _ = kmeans(X, 2, [0])
    counts = np.bincount(labels, minlength=2)
    assert counts.min() >= 1
    assert labels[3] != labels[0]


def test_kmeans_nonincreasing_objective_smoke():
    # the objective monotonicity is asserted inside kmeans itself
    rng = np.random.default_rng(2)
    X = rng.normal(size=(60, 4))
    for seed in range(10):
        kmeans(X, 5, [seed])


def test_kmeans_stops_when_the_cost_stops_falling():
    # 3 distinct rows, k = 4: the empty-cluster repair used to move a duplicate
    # back and forth at the same cost until MAX_ITER
    X = np.repeat(np.random.default_rng(0).normal(size=(3, 2)), 3, axis=0)
    with counting("_cluster_means") as means:
        (labels,), _ = kmeans(X, 4, [0])
    ref = kmeans_per_run(X, 4, 0)
    # the centres move after every Lloyd step but the last
    assert means.call_count + 1 == ref.n_iter < metrics.MAX_ITER == 300
    with mock.patch.object(metrics, "MAX_ITER", 301):
        assert np.array_equal(labels, kmeans(X, 4, [0])[0][0])
    assert np.array_equal(labels, ref.labels)


def test_kmeans_single_seed_is_the_one_run_case():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(25, 3))
    one = kmeans_per_run(X, 3, 4)
    with counting("_cluster_means") as means:
        labels, inertia = kmeans(X, 3, [4])
    assert (labels.shape, labels.dtype, inertia.shape, inertia.dtype) == \
        ((1, 25), np.int64, (1,), np.float64)
    assert np.array_equal(one.labels, labels[0])
    assert (one.inertia, one.n_iter) == (inertia[0], means.call_count + 1)
    with pytest.raises(InputError):
        kmeans(X, 3, [])


@settings(max_examples=200)
@given(st.integers(1, 30), st.integers(1, 4), st.data())
def test_kmeans_lockstep_matches_per_run_reference(m, d, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if data.draw(st.booleans()):
        # few distinct points: duplicate rows, coinciding k-means++ centres
        # and the empty clusters they leave
        X = rng.integers(0, 3, size=(m, d)).astype(float)
    else:
        X = rng.normal(size=(m, d)) * 10.0 ** rng.uniform(-2, 2, size=d)
        X = X[data.draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))]
    if data.draw(st.booleans()):
        X = np.asfortranarray(X)    # as a column selection of a data matrix is
    k = data.draw(st.integers(1, m))
    seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6))
    init = None
    if data.draw(st.booleans()):
        # fixed start centres, some far from every point: forced repairs
        init = rng.normal(size=(k, d)) * 10.0 ** rng.uniform(0, 3, size=(k, 1))
    # a small cap also ends some runs at MAX_ITER
    max_iter = data.draw(st.integers(1, 40))

    def lockstep():
        with mock.patch.object(metrics, "MAX_ITER", max_iter), \
                contextlib.nullcontext() if init is None else fixed_centres(init):
            return kmeans(X, k, seeds)

    try:
        refs = [kmeans_per_run(X, k, s, max_iter=max_iter, init_centers=init) for s in seeds]
    except RuntimeError:        # if the objective rises in a run, both forms raise
        with pytest.raises(RuntimeError):
            lockstep()
        assume(False)
    # every distance, centre and so every tie is computed as in the
    # reference, so exact ties break the same way and need no assume()
    labels, inertia = lockstep()
    assert labels.shape == (len(seeds), m) and inertia.shape == (len(seeds),)
    for ref, lab, cost in zip(refs, labels, inertia):
        assert np.array_equal(lab, ref.labels)
        assert cost == ref.inertia


# --- accuracy ------------------------------------------------------------

def test_acc_identity_and_relabeling():
    truth = np.array([0, 0, 1, 1, 2, 2])
    assert clustering_accuracy(truth, truth) == 1.0
    relabeled = np.array([2, 2, 0, 0, 1, 1])
    assert clustering_accuracy(relabeled, truth) == 1.0


def test_acc_twelve_point_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(30):
        pred = rng.integers(0, 3, 12)
        truth = rng.integers(0, 3, 12)
        assert clustering_accuracy(pred, truth) == pytest.approx(
            brute_force_acc(pred, truth), abs=1e-12)


def test_acc_rectangular_classes():
    rng = np.random.default_rng(4)
    for _ in range(30):
        pred = rng.integers(0, int(rng.integers(2, 6)), 15)
        truth = rng.integers(0, int(rng.integers(2, 6)), 15)
        assert clustering_accuracy(pred, truth) == pytest.approx(
            brute_force_acc(pred, truth), abs=1e-12)


@settings(max_examples=300)
@given(st.integers(1, 7), st.integers(1, 7), st.data())
def test_accuracy_matches_scipy_assignment(a, b, data):
    # the in-package assignment against the scipy solver it replaced
    C = np.array(data.draw(st.lists(st.integers(0, 30), min_size=a * b, max_size=a * b)))
    C = C.reshape(a, b)
    assume(C.sum() > 0)
    ri, ci = linear_sum_assignment(C, maximize=True)
    assert table_accuracy(C) == float(C[ri, ci].sum()) / C.sum()


def test_acc_length_mismatch():
    with pytest.raises(InputError):
        clustering_accuracy([0, 1], [0, 1, 2])


# --- NMI -----------------------------------------------------------------

def test_nmi_identical_partitions():
    assert nmi([0, 0, 1, 1, 2], [0, 0, 1, 1, 2]) == 1.0


def test_nmi_independent_partitions():
    # exact product contingency: 2 x 3 blocks over 12 points
    pred = [i % 2 for i in range(12)]
    truth = [(i // 2) % 3 for i in range(12)]
    assert abs(nmi(pred, truth)) < 1e-10


def test_nmi_handcrafted_contingency():
    pred = [0, 0, 0, 0, 1, 1, 1, 1]
    truth = [0, 0, 0, 1, 0, 1, 1, 1]  # contingency [[3, 1], [1, 3]]
    assert nmi(pred, truth) == pytest.approx(NMI_3113, abs=1e-10)


def test_nmi_symmetric_and_relabel_invariant():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.integers(0, 3, 20)
        b = rng.integers(0, 4, 20)
        v = nmi(a, b)
        assert v == pytest.approx(nmi(b, a), abs=1e-12)
        assert 0.0 <= v <= 1.0
        relabeled = np.array([10 - x for x in a])
        assert nmi(relabeled, b) == pytest.approx(v, abs=1e-12)


def test_nmi_constant_edge_cases():
    assert nmi([1, 1, 1], [4, 4, 4]) == 1.0   # both one-block: identical partitions
    assert nmi([0, 0, 0], [0, 1, 2]) == 0.0   # one constant labeling carries no info


@settings(max_examples=40)
@given(st.lists(st.integers(0, 4), min_size=2, max_size=30), st.data())
def test_nmi_bounds_property(a, data):
    b = data.draw(st.lists(st.integers(0, 4), min_size=len(a), max_size=len(a)))
    v = nmi(a, b)
    assert 0.0 <= v <= 1.0


# --- silhouette ----------------------------------------------------------

def test_silhouette_tight_far_clusters():
    X = np.array([[0.0, 0.0], [0.0, 0.0], [9.0, 9.0], [9.0, 9.0]])
    assert silhouette(X, [0, 0, 1, 1]) == 1.0


def test_silhouette_matches_definition_oracle():
    rng = np.random.default_rng(6)
    for _ in range(25):
        m = int(rng.integers(4, 21))
        X = rng.normal(size=(m, 2))
        labels = rng.integers(0, 3, m)
        if len(set(labels.tolist())) < 2:
            continue
        assert silhouette(X, labels) == pytest.approx(
            brute_force_silhouette(X, labels), abs=1e-12)


@settings(max_examples=200)
@given(st.integers(2, 25), st.integers(2, 5), st.data())
def test_silhouette_equals_loop_reference(m, k, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # few distinct points: duplicates give a = 0 and b = 0 cases
    X = rng.integers(0, 3, size=(m, 2)).astype(float)
    labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m)))
    if np.unique(labels).size < 2:
        return
    assert silhouette(X, labels) == silhouette_loop(X, labels)


def test_silhouette_random_labels_near_zero():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 3))
    for seed in range(20):
        labels = np.random.default_rng(seed).integers(0, 2, 40)
        if len(set(labels.tolist())) < 2:
            continue
        assert -0.5 <= silhouette(X, labels) <= 0.5


def test_silhouette_single_cluster_error():
    with pytest.raises(InputError):
        silhouette(np.zeros((4, 2)), [0, 0, 0, 0])


def test_silhouette_label_count_error():
    with pytest.raises(InputError, match="3 labels for m=4 points"):
        silhouette(np.zeros((4, 2)), [0, 1, 1])


def test_silhouette_singleton_contributes_zero():
    X = np.array([[0.0], [1.0], [10.0]])
    got = silhouette(X, [0, 0, 1])
    # point0: a=1, b=10 -> 0.9; point1: a=1, b=9 -> 8/9; point2: singleton -> 0
    want = (0.9 + 8.0 / 9.0 + 0.0) / 3.0
    assert got == pytest.approx(want, abs=1e-12)
