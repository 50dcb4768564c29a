"""Feature-count evaluation curves: clustering quality, silhouette, variance.

Three protocols over a grid of selected-feature counts d:

* selection_curve  — k-means ACC/NMI on the top-d raw (standardized)
  features, averaged over repeated seeded runs;
* silhouette_curve — mean silhouette of a k-means solution on the 2-D
  kernel PCA embedding of the top-d features;
* variance_generalization — retained-component variance share of kernel
  PCA fits on train and test halves restricted to the train-ranked top-d
  features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .exceptions import InputError
from .importance import rank_features
from .kernels import KernelSpec
from .kpca import SigmaRule, explained_variance, fit_kpca, project_training, resolve_spec
from .metrics import contingency_tables, kmeans, silhouette, table_accuracy, table_nmi
from .parallel import run_in_blocks

# seeded k-means runs per silhouette point, of which the lowest inertia is scored
SILHOUETTE_RESTARTS = 5

# fewest k-means sample-runs (samples x runs x grid points) worth one more
# selection-curve process: a point's cost grows with n and runs, and barely with
# d up to 300. On 2 CPUs, in a process holding 120 MB, two processes lost 1-2 ms
# to one at 3.5-5k sample-runs (n = 174, 10 runs, 2-3 points, 5-9 ms in one
# process), broke even near 7k, and won by 2-4 ms at 7-10k and by 7-11 ms at
# 14-21k (n = 60-174, 20 runs)
_SAMPLE_RUNS_PER_PROCESS = 5_000


@dataclass(frozen=True)
class CurvePoint:
    d: int
    acc_mean: float | None = None
    acc_std: float | None = None
    nmi_mean: float | None = None
    nmi_std: float | None = None
    silhouette: float | None = None
    var_train: float | None = None
    var_test: float | None = None
    split: int | None = None


def check_grid(d_grid, p: int) -> tuple[int, ...]:
    """The grid as a tuple of ints; InputError unless it is non-empty and within [1, p]."""
    grid = tuple(int(d) for d in d_grid)
    if not grid:
        raise InputError("feature-count grid is empty")
    if min(grid) < 1 or max(grid) > p:
        raise InputError(f"grid values must lie in [1, p={p}], got {grid}")
    return grid


def _check_order(order, grid) -> np.ndarray:
    """The ranking as int64 indices; InputError unless it covers the grid's largest d."""
    order = np.asarray(order, dtype=np.int64)
    if order.size < max(grid):
        raise InputError(f"ranking lists {order.size} features, fewer than the grid's "
                         f"largest d={max(grid)}")
    return order


def selection_curve(data: Dataset, order, truth, k: int, d_grid,
                    runs: int = 20, seed: int = 0) -> list[CurvePoint]:
    """Mean/std k-means ACC and NMI for each top-d feature subset.

    k-means runs use consecutive seeds seed..seed+runs-1 on the selected
    raw columns, all in one lockstep call per d; the std is the population
    standard deviation over runs. The order must list at least max(d_grid)
    features.

    The grid points are split into contiguous blocks
    (``parallel.run_in_blocks``): this process computes the first and a forked
    child each later one, at most one per CPU and one per
    ``_SAMPLE_RUNS_PER_PROCESS`` samples x runs x points. One process
    computes them all while another Python thread runs or where os.fork is
    missing. A point makes the same calls on the same seeds in any
    process, so the curve is the same bit for bit however it is split, and
    a block that no child finished is computed again here.
    """
    grid = check_grid(d_grid, data.p)
    if runs < 1:
        raise InputError(f"runs must be >= 1, got {runs}")
    order = _check_order(order, grid)
    truth = np.asarray(truth).ravel()

    def stats(lo, hi):
        out = np.empty((hi - lo, 4))
        for i, d in enumerate(grid[lo:hi]):
            results = kmeans(data.matrix[:, order[:d]], k, range(seed, seed + runs))
            tables = contingency_tables([res.labels for res in results], truth)
            accs = np.array([table_accuracy(C) for C in tables])
            nmis = np.array([table_nmi(C) for C in tables])
            out[i] = accs.mean(), accs.std(), nmis.mean(), nmis.std()
        return out

    limit = data.n * runs * len(grid) // _SAMPLE_RUNS_PER_PROCESS
    table = run_in_blocks(len(grid), limit, (4,), stats)
    return [CurvePoint(d=d, acc_mean=acc, acc_std=acc_sd, nmi_mean=nmi, nmi_std=nmi_sd)
            for d, (acc, acc_sd, nmi, nmi_sd) in zip(grid, table.tolist())]


def silhouette_curve(data: Dataset, order, spec: KernelSpec, k: int, d_grid,
                     sigma_rule: SigmaRule | None = None,
                     seed: int = 0) -> list[CurvePoint]:
    """Mean silhouette of k-means clusters on the 2-D embedding per d.

    When a sigma rule is given the rbf bandwidth is re-resolved on every
    feature subset, so the kernel adapts to the number of columns kept.
    The clustering takes the best of SILHOUETTE_RESTARTS seeded k-means runs
    (the first of equal inertia), which keeps the curve stable against
    unlucky initializations. The order must list at least max(d_grid)
    features.
    """
    grid = check_grid(d_grid, data.p)
    order = _check_order(order, grid)
    points = []
    for d in grid:
        sub = data.select_features(order[:d])
        spec_d = resolve_spec(spec, sigma_rule, sub, 2)
        coords = project_training(fit_kpca(sub, spec_d, 2))
        best = min(kmeans(coords, k, range(seed, seed + SILHOUETTE_RESTARTS)),
                   key=lambda res: res.inertia)
        points.append(CurvePoint(d=d, silhouette=silhouette(coords, best.labels)))
    return points


def variance_generalization(data: Dataset, spec: KernelSpec, q: int, d_grid,
                            n_splits: int = 5, seed: int = 0,
                            sigma_rule: SigmaRule | None = None,
                            split_indices=None) -> list[CurvePoint]:
    """Train/test explained-variance shares for train-ranked top-d features.

    Each split holds out ~25% of the samples; features are ranked on the
    training part only, and the retained-q variance share is computed from
    independent kernel PCA fits on both parts restricted to those
    features. Explicit (train, test) index pairs may be supplied instead
    of seeded random splits.
    """
    grid = check_grid(d_grid, data.p)
    n = data.n
    if split_indices is None:
        if n_splits < 1:
            raise InputError(f"n_splits must be >= 1, got {n_splits}")
        n_train = int(0.75 * n)
        splits = []
        for s in range(n_splits):
            perm = np.random.default_rng([seed, s]).permutation(n)
            splits.append((perm[:n_train], perm[n_train:]))
    else:
        splits = [(np.asarray(tr, dtype=np.int64), np.asarray(te, dtype=np.int64))
                  for tr, te in split_indices]
    points = []
    for s, (tr, te) in enumerate(splits):
        if min(tr.size, te.size) < 3:
            raise InputError(f"split {s} leaves fewer than 3 samples on one side")
        train = data.subset_samples(tr)
        spec_rank = resolve_spec(spec, sigma_rule, train, q)
        ranking = rank_features(fit_kpca(train, spec_rank, q))
        for d in grid:
            cols = ranking.order[:d]
            sub_tr = train.select_features(cols)
            sub_te = data.select_features(cols).subset_samples(te)
            m_tr = fit_kpca(sub_tr, resolve_spec(spec, sigma_rule, sub_tr, q), q)
            m_te = fit_kpca(sub_te, resolve_spec(spec, sigma_rule, sub_te, q), q)
            points.append(CurvePoint(d=d, split=s,
                                     var_train=float(explained_variance(m_tr).sum()),
                                     var_test=float(explained_variance(m_te).sum())))
        del train   # so that the next split's copy is not built beside this one
    return points
