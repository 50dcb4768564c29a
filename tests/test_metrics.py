import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import pdist, squareform

from kpcaig import InputError, clustering_accuracy, kmeans, nmi, silhouette
from kpcaig.metrics import table_accuracy
from kpcaig.synthetic import planted_clusters

from generators import two_blobs
from metric_oracles import kmeans_per_run

# hand-computed for contingency [[3, 1], [1, 3]]: I = 0.75*ln(3/2) + 0.25*ln(1/2),
# H_pred = H_true = ln 2, NMI = I / ln 2
NMI_3113 = 0.18872187554086714


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
        (res,) = kmeans(d.matrix, 2, [seed])
        assert clustering_accuracy(res.labels, d.labels) == 1.0


@pytest.mark.parametrize("runs", [1, 4, 20])
def test_kmeans_distance_calls_do_not_grow_with_restarts(monkeypatch, runs):
    # lockstep: one cdist call per k-means++ centre and one per Lloyd step,
    # shared by every restart; blobs this far apart leave no cluster empty,
    # so no repair adds a call
    import scipy.spatial.distance
    data, _ = planted_clusters(60, 6, 4, 6, within_std=0.3, seed=0)
    calls = []
    cdist = scipy.spatial.distance.cdist
    monkeypatch.setattr(scipy.spatial.distance, "cdist",
                        lambda *a, **kw: calls.append(a) or cdist(*a, **kw))
    results = kmeans(data.matrix, 4, range(runs))
    assert len(calls) == 4 + max(res.n_iter for res in results)


def test_kmeans_k_equals_m():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(6, 2))
    (res,) = kmeans(X, 6, [3])
    assert res.inertia == 0.0
    assert len(set(res.labels.tolist())) == 6


def test_kmeans_deterministic():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 3))
    (a,) = kmeans(X, 4, [7])
    (b,) = kmeans(X, 4, [7])
    assert np.array_equal(a.labels, b.labels)
    assert a.inertia == b.inertia


def test_kmeans_k_too_large():
    with pytest.raises(InputError):
        kmeans(np.zeros((3, 2)), 4, [0])


def test_kmeans_empty_cluster_repair():
    X = np.array([[0.0], [0.1], [0.2], [50.0]])
    # second initial center is far from every point, so its cluster starts empty
    (res,) = kmeans(X, 2, [0], init_centers=np.array([[0.1], [500.0]]))
    counts = np.bincount(res.labels, minlength=2)
    assert counts.min() >= 1
    assert res.labels[3] != res.labels[0]


def test_kmeans_nonincreasing_objective_smoke():
    # the objective monotonicity is asserted inside kmeans itself
    rng = np.random.default_rng(2)
    X = rng.normal(size=(60, 4))
    for seed in range(10):
        kmeans(X, 5, [seed])


def test_kmeans_stops_when_the_cost_stops_falling():
    # 3 distinct rows, k = 4: the empty-cluster repair used to move a duplicate
    # back and forth at the same cost until max_iter
    X = np.repeat(np.random.default_rng(0).normal(size=(3, 2)), 3, axis=0)
    (res,) = kmeans(X, 4, [0])
    assert res.n_iter < 300
    assert np.array_equal(res.labels, kmeans(X, 4, [0], max_iter=301)[0].labels)
    ref = kmeans_per_run(X, 4, 0)
    assert np.array_equal(res.labels, ref.labels) and res.n_iter == ref.n_iter


def test_kmeans_single_seed_is_the_one_run_case():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(25, 3))
    one = kmeans_per_run(X, 3, 4)
    (batch,) = kmeans(X, 3, [4])
    assert np.array_equal(one.labels, batch.labels)
    assert (one.inertia, one.seed, one.n_iter) == (batch.inertia, batch.seed, batch.n_iter)
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
    # a small cap also ends some runs at max_iter
    max_iter = data.draw(st.integers(1, 40))
    try:
        refs = [kmeans_per_run(X, k, s, max_iter=max_iter, init_centers=init) for s in seeds]
    except RuntimeError:        # if the objective rises in a run, both forms raise
        with pytest.raises(RuntimeError):
            kmeans(X, k, seeds, max_iter=max_iter, init_centers=init)
        assume(False)
    # every distance, centre and so every tie is computed as in the
    # reference, so exact ties break the same way and need no assume()
    got = kmeans(X, k, seeds, max_iter=max_iter, init_centers=init)
    assert [r.seed for r in got] == seeds
    for ref, res in zip(refs, got):
        assert np.array_equal(res.labels, ref.labels)
        assert res.n_iter == ref.n_iter
        assert abs(res.inertia - ref.inertia) <= 1e-12 * ref.inertia


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


def test_silhouette_singleton_contributes_zero():
    X = np.array([[0.0], [1.0], [10.0]])
    got = silhouette(X, [0, 0, 1])
    # point0: a=1, b=10 -> 0.9; point1: a=1, b=9 -> 8/9; point2: singleton -> 0
    want = (0.9 + 8.0 / 9.0 + 0.0) / 3.0
    assert got == pytest.approx(want, abs=1e-12)
