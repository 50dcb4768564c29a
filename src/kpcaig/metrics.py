"""Clustering metrics: k-means, accuracy by optimal matching, NMI, silhouette."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist, pdist, squareform

from .exceptions import InputError


@dataclass(frozen=True)
class ClusteringResult:
    labels: np.ndarray
    inertia: float
    seed: int


def _kmeanspp(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    m = X.shape[0]
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(m)
    d2 = cdist(X, X[chosen[:1]], "sqeuclidean")[:, 0]
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(m, p=d2 / total)
        else:
            # all remaining points coincide with a chosen center
            taken = set(chosen[:c].tolist())
            idx = next(i for i in range(m) if i not in taken)
        chosen[c] = idx
        d2 = np.minimum(d2, cdist(X, X[idx:idx + 1], "sqeuclidean")[:, 0])
    return X[chosen].copy()


def kmeans(coords, k: int, seed: int, *, max_iter: int = 300,
           init_centers=None) -> ClusteringResult:
    """Lloyd's algorithm with k-means++ seeding.

    Stops when the assignment stabilizes or after max_iter iterations.
    Empty clusters are repaired by claiming the point farthest from its
    assigned centroid (among clusters that can spare a point).
    """
    X = np.atleast_2d(np.asarray(coords, dtype=np.float64))
    m = X.shape[0]
    if not 1 <= k <= m:
        raise InputError(f"k must be in [1, m], got k={k} for m={m}")
    rng = np.random.default_rng(seed)
    centers = np.array(init_centers, dtype=np.float64) if init_centers is not None \
        else _kmeanspp(X, k, rng)
    prev = None
    prev_cost = np.inf
    for _ in range(max_iter):
        d2 = cdist(X, centers, "sqeuclidean")
        labels = d2.argmin(axis=1)
        for c in range(k):
            if np.any(labels == c):
                continue
            own = d2[np.arange(m), labels]
            counts = np.bincount(labels, minlength=k)
            movable = counts[labels] > 1
            far = int(np.flatnonzero(movable)[own[movable].argmax()])
            labels[far] = c
            centers[c] = X[far]
            d2[:, c] = cdist(X, X[far:far + 1], "sqeuclidean")[:, 0]
        cost = float(d2[np.arange(m), labels].sum())
        if cost > prev_cost + 1e-9 * (1.0 + cost):
            raise RuntimeError(f"k-means objective increased from {prev_cost} to {cost}")
        prev_cost = cost
        centers = np.stack([X[labels == c].mean(axis=0) for c in range(k)])
        if prev is not None and np.array_equal(labels, prev):
            break
        prev = labels
    inertia = float(((X - centers[labels]) ** 2).sum())
    return ClusteringResult(labels=labels, inertia=inertia, seed=seed)


def _contingency(pred, truth) -> np.ndarray:
    pred = np.asarray(pred).ravel()
    truth = np.asarray(truth).ravel()
    if pred.shape != truth.shape:
        raise InputError(f"label vectors differ in length: {pred.size} vs {truth.size}")
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    C = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
    np.add.at(C, (pi, ti), 1)
    return C


def clustering_accuracy(pred, truth) -> float:
    """Best label-agreement fraction over one-to-one class assignments."""
    C = _contingency(pred, truth)
    ri, ci = linear_sum_assignment(C, maximize=True)
    return float(C[ri, ci].sum()) / C.sum()


def nmi(pred, truth, normalization: str = "arithmetic") -> float:
    """Normalized mutual information, 2*I/(H_p + H_t) with natural logs.

    normalization='geometric' divides by sqrt(H_p * H_t) instead. If both
    labelings are constant the partitions coincide and the value is 1.
    """
    if normalization not in ("arithmetic", "geometric"):
        raise InputError(f"unknown normalization {normalization!r}")
    C = _contingency(pred, truth)
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
    den = 0.5 * (hp + ht) if normalization == "arithmetic" else np.sqrt(hp * ht)
    if den == 0.0:
        return 0.0
    return float(min(1.0, max(0.0, info / den)))


def silhouette(coords, labels) -> float:
    """Mean silhouette (b - a) / max(a, b) with Euclidean distances.

    Points in singleton clusters contribute 0; a single-cluster labeling is
    an error.
    """
    X = np.atleast_2d(np.asarray(coords, dtype=np.float64))
    lab = np.asarray(labels).ravel()
    if lab.size != X.shape[0]:
        raise InputError(f"{lab.size} labels for m={X.shape[0]} points")
    classes, inv = np.unique(lab, return_inverse=True)
    if classes.size < 2:
        raise InputError("silhouette needs at least 2 clusters")
    D = squareform(pdist(X))
    counts = np.bincount(inv)
    # per-point mean distance to every cluster
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
