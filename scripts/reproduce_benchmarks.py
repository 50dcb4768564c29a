#!/usr/bin/env python3
"""Clustering-quality curves on the public microarray benchmark datasets.

Expects locally downloaded .mat files (keys X, Y) such as Glioma.mat,
Carcinom.mat from the scikit-feature collection; this script does not
download anything. For each dataset it grid-searches the rbf bandwidth to
maximize the retained-q explained variance, ranks features, and writes the
mean ACC/NMI selection curve over d in {10, 20, ..., 300} with 20 k-means
runs per point, alongside the Laplacian-score and permutation baselines if
requested.

Usage:
  python scripts/reproduce_benchmarks.py DATA_DIR [--datasets Glioma Carcinom]
      [--outdir bench_out] [--q-map Glioma=3,Carcinom=5] [--baselines]

Note: preprocessing of the published benchmark matrices is not fully
specified upstream; run with and without --no-standardize when comparing
against published numbers.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kpcaig import (Dataset, KernelSpec, fit_kpca, laplacian_score,
                    permutation_importance, rank_features, selection_curve,
                    standardize)
from kpcaig.kpca import SigmaRule

SIGMA_GRID = tuple(10.0 ** e for e in range(-7, 1))
DEFAULT_Q = {"Glioma": 3, "Carcinom": 5, "GPL93": 3}


def parse_q_map(text):
    out = dict(DEFAULT_Q)
    if text:
        for part in text.split(","):
            name, q = part.split("=")
            out[name] = int(q)
    return out


def write_curve(path, points):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("d\tacc_mean\tacc_std\tnmi_mean\tnmi_std\n")
        for pt in points:
            fh.write(f"{pt.d}\t{pt.acc_mean!r}\t{pt.acc_std!r}\t"
                     f"{pt.nmi_mean!r}\t{pt.nmi_std!r}\n")
    print(f"  wrote {path}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("data_dir")
    ap.add_argument("--datasets", nargs="+", default=["Glioma", "Carcinom"])
    ap.add_argument("--outdir", default="bench_out")
    ap.add_argument("--q-map", default="")
    ap.add_argument("--no-standardize", action="store_true")
    ap.add_argument("--baselines", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    from scipy.io import loadmat

    qmap = parse_q_map(args.q_map)
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    grid = list(range(10, 301, 10))

    for name in args.datasets:
        path = Path(args.data_dir) / f"{name}.mat"
        if not path.exists():
            print(f"{name}: {path} not found, skipping")
            continue
        raw = loadmat(path)
        X = np.asarray(raw["X"], dtype=np.float64)
        y = np.asarray(raw["Y"]).ravel().astype(int)
        k = int(np.unique(y).size)
        data = Dataset.from_matrix(X, labels=y)
        if not args.no_standardize:
            data = standardize(data)
        q = qmap.get(name, 3)
        print(f"{name}: n={data.n} p={data.p} clusters={k} q={q}")

        t0 = time.perf_counter()
        sigma = SigmaRule("grid", grid=SIGMA_GRID).resolve(data, q)
        model = fit_kpca(data, KernelSpec("rbf", sigma=sigma), q)
        ranking = rank_features(model)
        print(f"  sigma={sigma:g}, ranking in {time.perf_counter() - t0:.1f}s")
        curve = selection_curve(data, ranking.order, y, k, grid,
                                runs=20, seed=args.seed)
        write_curve(out / f"{name}_kpcaig.tsv", curve)
        for pt in curve:
            if pt.d in (10, 150, 300):
                print(f"  d={pt.d}: ACC {pt.acc_mean:.2f} ({pt.acc_std:.2f})  "
                      f"NMI {pt.nmi_mean:.2f} ({pt.nmi_std:.2f})")

        if args.baselines:
            lap = laplacian_score(data)
            write_curve(out / f"{name}_laplacian.tsv",
                        selection_curve(data, lap.order, y, k, grid,
                                        runs=20, seed=args.seed))
            perm = permutation_importance(data, KernelSpec("rbf", sigma=sigma),
                                          q, seed=args.seed)
            write_curve(out / f"{name}_permute.tsv",
                        selection_curve(data, perm.order, y, k, grid,
                                        runs=20, seed=args.seed))


if __name__ == "__main__":
    main()
