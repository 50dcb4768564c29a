"""Clustering metrics: k-means, accuracy by optimal matching, NMI, silhouette.

k-means and silhouette take their distances from scipy's compiled kernels
``cdist_sqeuclidean`` and ``cdist_euclidean``, the functions that
``scipy.spatial.distance.cdist`` itself dispatches to. They are read from
the extension module ``scipy/spatial/_distance_pybind``, loaded on its own
(``_cdist``). It links only the C++ runtime, so k-means and silhouette skip
scipy.spatial's package import, which pulls in scipy.linalg and
scipy.sparse and maps scipy's second OpenBLAS. Only where that file is
missing, fails to load or lacks the kernel does ``cdist`` itself run.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

from .exceptions import InputError


_DISTANCE_MODULE = "scipy.spatial._distance_pybind"

# Lloyd iterations after which a k-means run stops
MAX_ITER = 300


@functools.cache
def _distance_kernels():
    """scipy's compiled distance module, loaded once per process without
    running scipy's or scipy.spatial's package import, or None where its
    file is missing or fails to load (another scipy layout).

    The module is registered under its own name, so a later ``import
    scipy.spatial`` reuses it, and one that scipy.spatial already loaded is
    reused here.
    """
    if (module := sys.modules.get(_DISTANCE_MODULE)) is not None:
        return module
    try:
        scipy = importlib.util.find_spec("scipy")
    except ImportError:
        return None
    for root in (scipy and scipy.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "spatial", "_distance_pybind" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(_DISTANCE_MODULE, path)
                try:
                    module = importlib.util.module_from_spec(spec)
                    spec.loader.exec_module(module)
                except ImportError:
                    return None
                return sys.modules.setdefault(_DISTANCE_MODULE, module)
    return None


def _cdist(XA, XB, metric: str) -> np.ndarray:
    """``scipy.spatial.distance.cdist(XA, XB, metric)`` for metric
    "sqeuclidean" or "euclidean", bit for bit.

    ``cdist`` takes both arrays through ``np.asarray``, checks that they are
    2-D with as many columns, and calls ``cdist_<metric>`` of scipy's
    compiled distance module; this does the same, with the module loaded on
    its own (``_distance_kernels``). Where it is missing, fails to load or
    lacks the kernel, ``cdist`` itself runs, importing scipy.spatial.
    """
    kernel = getattr(_distance_kernels(), f"cdist_{metric}", None)
    if kernel is None:
        from scipy.spatial.distance import cdist
        return cdist(XA, XB, metric)
    XA, XB = np.asarray(XA), np.asarray(XB)
    if XA.ndim != 2:
        raise ValueError("XA must be a 2-dimensional array.")
    if XB.ndim != 2:
        raise ValueError("XB must be a 2-dimensional array.")
    if XA.shape[1] != XB.shape[1]:
        raise ValueError("XA and XB must have the same number of columns "
                         "(i.e. feature dimension.)")
    return kernel(XA, XB)


def _points(coords) -> np.ndarray:
    """coords as a finite m x d float64 array, or InputError."""
    X = np.asarray(coords, dtype=np.float64)
    if X.ndim != 2:
        raise InputError(f"points must be a 2-D array (m x d), got shape {X.shape}")
    if not np.isfinite(X).all():
        raise InputError(f"points must be finite, got {X[~np.isfinite(X)][0]}")
    return X


def _kmeanspp(X: np.ndarray, k: int, rngs) -> np.ndarray:
    """k-means++ centres (runs x k x d), one run per generator.

    Each run makes the generator calls a run on its own makes, on the same
    distances, so it draws the same centres. A later centre is ``choice(m,
    p=w / w.sum())`` for the run's squared distances w to its nearest centre:
    one ``random()`` looked up in a cumulative table, built here for all runs.
    """
    m = X.shape[0]
    chosen = np.empty((len(rngs), k), dtype=np.int64)
    chosen[:, 0] = [rng.integers(m) for rng in rngs]
    nearest = _cdist(X[chosen[:, 0]], X, "sqeuclidean")
    for c in range(1, k):
        live = (total := nearest.sum(axis=1)) > 0
        cdf = np.cumsum(nearest[live] / total[live, None], axis=1)
        cdf /= cdf[:, -1:]
        u = np.array([rng.random() for rng, draws in zip(rngs, live) if draws])
        chosen[live, c] = np.count_nonzero(cdf <= u[:, None], axis=1)
        for r in np.flatnonzero(~live):     # every point coincides with a chosen centre
            chosen[r, c] = np.setdiff1d(np.arange(m), chosen[r, :c])[0]
        nearest = np.minimum(nearest, _cdist(X[chosen[:, c]], X, "sqeuclidean"))
    return X[chosen]


def _repair_empty(X: np.ndarray, d2: np.ndarray, labels: np.ndarray, k: int) -> None:
    """Give each empty cluster of one run the point farthest from its centroid,
    among clusters that can spare a point; d2 (m x k) and labels change in place."""
    m = len(labels)
    for c in range(k):
        if np.any(labels == c):
            continue
        own = d2[np.arange(m), labels]
        counts = np.bincount(labels, minlength=k)
        movable = counts[labels] > 1
        far = int(np.flatnonzero(movable)[own[movable].argmax()])
        labels[far] = c
        d2[:, c] = _cdist(X, X[far:far + 1], "sqeuclidean")[:, 0]


def _cluster_means(X: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Centroids (runs x k x d) of every run's clusters, none of them empty.

    Each centroid is the mean of one contiguous block of rows, taken in the
    order ``X[labels == c]`` takes them, so it equals that of a run on its
    own bit for bit: numpy adds the rows of a block one after another (or
    pairwise, for a single column) the same way in both.
    """
    runs, m = labels.shape
    groups = (labels + k * np.arange(runs)[:, None]).ravel()
    order = np.argsort(groups, kind="stable")
    counts = np.bincount(groups, minlength=runs * k)
    rows = X[order % m]                      # cluster by cluster
    sums = np.empty((runs * k, X.shape[1]))
    for g, (e, c) in enumerate(zip(np.cumsum(counts).tolist(), counts.tolist())):
        np.add.reduce(rows[e - c:e], axis=0, out=sums[g])
    return (sums / counts[:, None]).reshape(runs, k, -1)


def kmeans(coords, k: int, seeds):
    """Lloyd's algorithm with k-means++ seeding, one run per seed of a sequence.

    Returns ``(labels, inertia)``: runs x m int64 labels, row r seed r's, and
    each run's sum of squared distances to its centroids. The runs are seeded
    together, then iterate in lockstep: each iteration assigns every active
    run's points from one distance array to their centres, and a run drops
    out when its assignment stops changing, when its cost stops falling (it
    then keeps its previous assignment) or after MAX_ITER iterations. A
    distance depends only on its point and centre, so each run equals a
    call with its seed alone. Empty clusters are repaired by claiming the
    point farthest from its assigned centroid (among clusters that can
    spare a point).
    """
    # row-major, like the arrays X[labels == c] and X - centers[labels] that a
    # run on its own sums, so every sum below adds in the same order
    X = np.ascontiguousarray(_points(coords))
    m = X.shape[0]
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= m:
        raise InputError(f"k must be an integer in [1, m], got k={k!r} for m={m}")
    seeds = list(seeds)
    if not seeds:
        raise InputError("k-means needs at least one seed")
    runs = len(seeds)
    centers = _kmeanspp(X, k, [np.random.default_rng(s) for s in seeds])
    labels = np.full((runs, m), -1)          # each run's latest assignment
    prev_cost = np.full(runs, np.inf)
    active = np.arange(runs)
    rows = np.arange(m)
    for _ in range(MAX_ITER):
        a = active.size
        d2 = _cdist(X, centers[active].reshape(a * k, -1), "sqeuclidean").reshape(m, a, k)
        lab = np.ascontiguousarray(d2.argmin(axis=2).T)
        sizes = np.bincount((lab + k * np.arange(a)[:, None]).ravel(), minlength=a * k)
        for i in np.flatnonzero(sizes.reshape(a, k).min(axis=1) == 0):
            _repair_empty(X, d2[:, i], lab[i], k)
        cost = d2[rows, np.arange(a)[:, None], lab].sum(axis=1)
        worse = cost > prev_cost[active] + 1e-9 * (1.0 + cost)
        if worse.any():
            i = int(np.argmax(worse))
            raise RuntimeError(f"k-means objective increased from "
                               f"{prev_cost[active[i]]} to {cost[i]}")
        # a run whose cost stops falling keeps its previous assignment and stops:
        # on repeated rows, ties and the repair can move points back and forth
        stalled = cost >= prev_cost[active]
        lab[stalled] = labels[active[stalled]]
        prev_cost[active] = cost
        going = (lab != labels[active]).any(axis=1)
        labels[active] = lab
        active = active[going]
        if not active.size:
            break
        centers[active] = _cluster_means(X, lab[going], k)
    residuals = X - centers[np.arange(runs)[:, None], labels]
    return labels, np.square(residuals).reshape(runs, -1).sum(axis=1)


def contingency_tables(preds, truth) -> np.ndarray:
    """Counts (runs x predicted x true classes) of each row of preds against truth.

    Predicted classes are the labels seen in any row, so a run that leaves
    one out has a zero row there, which changes neither its accuracy nor
    its NMI.
    """
    preds = np.atleast_2d(np.asarray(preds))
    truth = np.asarray(truth).ravel()
    if preds.shape[1] != truth.size:
        raise InputError(f"label vectors differ in length: {preds.shape[1]} vs {truth.size}")
    _, pi = np.unique(preds.ravel(), return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    runs, kp, kt = preds.shape[0], pi.max() + 1, ti.max() + 1
    cells = (pi.reshape(preds.shape) + kp * np.arange(runs)[:, None]) * kt + ti
    return np.bincount(cells.ravel(), minlength=runs * kp * kt).reshape(runs, kp, kt)


def _max_matching(C: np.ndarray) -> int:
    """Largest total count of a one-to-one matching of the rows of C to its columns.

    The Hungarian algorithm (Kuhn 1955) in its O(k^3) shortest-augmenting-path
    form, on the costs max(C) - C in exact integer arithmetic. It stands in
    for scipy.optimize.linear_sum_assignment, whose import costs 10 MB of
    memory and 0.1 s.
    """
    C = np.asarray(C, dtype=np.int64)
    if C.shape[0] > C.shape[1]:
        C = C.T
    n, m = C.shape
    top = int(C.max())
    cost = [[0] * (m + 1)] + [[0] + [top - c for c in row] for row in C.tolist()]
    u, v = [0] * (n + 1), [0] * (m + 1)
    owner, way = [0] * (m + 1), [0] * (m + 1)   # owner[j]: row matched to column j
    for i in range(1, n + 1):
        owner[0], j0 = i, 0
        slack, used = [np.inf] * (m + 1), [False] * (m + 1)
        while owner[j0]:
            used[j0] = True
            i0, delta, j1 = owner[j0], np.inf, 0
            for j in range(1, m + 1):
                if not used[j]:
                    reduced = cost[i0][j] - u[i0] - v[j]
                    if reduced < slack[j]:
                        slack[j], way[j] = reduced, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(m + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:
            owner[j0] = owner[way[j0]]
            j0 = way[j0]
    return sum(int(C[owner[j] - 1, j - 1]) for j in range(1, m + 1) if owner[j])


def table_accuracy(C: np.ndarray) -> float:
    """Best agreement fraction of one contingency table over one-to-one class matchings."""
    return float(_max_matching(C)) / C.sum()


def clustering_accuracy(pred, truth) -> float:
    """Best label-agreement fraction over one-to-one class assignments."""
    return table_accuracy(contingency_tables(np.ravel(pred), truth)[0])


def nmi(pred, truth) -> float:
    """Normalized mutual information, 2*I/(H_p + H_t) with natural logs.

    If both labelings are constant the partitions coincide and the value is 1.
    """
    return table_nmi(contingency_tables(np.ravel(pred), truth)[0])


def table_nmi(C: np.ndarray) -> float:
    """NMI of one contingency table; see ``nmi``."""
    if np.all((C > 0).sum(axis=0) <= 1) and np.all((C > 0).sum(axis=1) <= 1):
        return 1.0  # identical partitions (covers the both-constant edge case)
    n = C.sum()
    Pij = C / n
    Pi = Pij.sum(axis=1)
    Pj = Pij.sum(axis=0)
    hp = float(-(Pi[Pi > 0] * np.log(Pi[Pi > 0])).sum())
    ht = float(-(Pj[Pj > 0] * np.log(Pj[Pj > 0])).sum())
    mask = Pij > 0
    outer = np.outer(Pi, Pj)
    info = float((Pij[mask] * np.log(Pij[mask] / outer[mask])).sum())
    return float(min(1.0, max(0.0, info / (0.5 * (hp + ht)))))


def silhouette(coords, labels) -> float:
    """Mean silhouette (b - a) / max(a, b) with Euclidean distances.

    Points in singleton clusters contribute 0; a single-cluster labeling is
    an error, and so are points that are not a finite m x d array.
    """
    X = _points(coords)
    lab = np.asarray(labels).ravel()
    if lab.size != X.shape[0]:
        raise InputError(f"{lab.size} labels for m={X.shape[0]} points")
    classes, inv = np.unique(lab, return_inverse=True)
    if classes.size < 2:
        raise InputError("silhouette needs at least 2 clusters")
    D = _cdist(X, X, "euclidean")
    counts = np.bincount(inv)
    # per-point mean distance to every cluster
    sums = np.zeros((X.shape[0], classes.size))
    for c in range(classes.size):
        sums[:, c] = D[:, inv == c].sum(axis=1)
    rows = np.arange(X.shape[0])
    own = counts[inv]
    a = sums[rows, inv] / np.maximum(own - 1, 1)
    means = sums / counts
    means[rows, inv] = np.inf
    b = means.min(axis=1)
    top = np.maximum(a, b)
    vals = np.divide(b - a, top, out=np.zeros(X.shape[0]), where=(own > 1) & (top > 0))
    return float(vals.mean())
