#!/usr/bin/env python3
"""Clustering-quality curves on the public microarray benchmark datasets.

Expects locally downloaded .mat files (keys X, Y) such as Glioma.mat,
Carcinom.mat from the scikit-feature collection; this script does not
download anything. For each dataset it writes the matrix to
``<outdir>/<name>.tsv`` and its labels to ``<outdir>/<name>.labels.txt``,
then runs ``kpcaig curve selection`` on them: the rbf bandwidth is
grid-searched to maximize the retained-q explained variance, and the mean
ACC/NMI curve over d in {10, 20, ..., 300} with 20 k-means runs per point
goes to ``<outdir>/<name>_kpcaig.tsv``, with the Laplacian-score and
permutation baselines in ``<name>_laplacian.tsv`` and ``<name>_permute.tsv``
if requested.

Usage:
  python scripts/reproduce_benchmarks.py DATA_DIR [--datasets Glioma Carcinom]
      [--outdir bench_out] [--q-map Glioma=3,Carcinom=5] [--baselines]

Note: preprocessing of the published benchmark matrices is not fully
specified upstream; run with and without --no-standardize when comparing
against published numbers.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kpcaig import Dataset, save_matrix
from kpcaig.cli import _nonneg_int, main as kpcaig

SIGMA_GRID = "grid:" + ",".join(repr(10.0 ** e) for e in range(-7, 1))
DEFAULT_Q = {"Glioma": 3, "Carcinom": 5, "GPL93": 3}


def parse_q_map(text):
    """NAME=INT entries, comma-separated."""
    out = {}
    for part in filter(None, text.split(",")):
        name, _, q = part.partition("=")
        if not (name and q.isdecimal()):
            raise argparse.ArgumentTypeError(f"{part!r} is not NAME=INT")
        out[name] = int(q)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("data_dir")
    ap.add_argument("--datasets", nargs="+", default=["Glioma", "Carcinom"])
    ap.add_argument("--outdir", default="bench_out")
    ap.add_argument("--q-map", type=parse_q_map, default={})
    ap.add_argument("--no-standardize", action="store_true")
    ap.add_argument("--baselines", action="store_true")
    ap.add_argument("--seed", type=_nonneg_int, default=0)
    args = ap.parse_args()
    from scipy.io import loadmat

    qmap = {**DEFAULT_Q, **args.q_map}
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    rankings = ["kpcaig"] + (["laplacian", "permute"] if args.baselines else [])

    for name in args.datasets:
        path = Path(args.data_dir) / f"{name}.mat"
        if not path.exists():
            print(f"{name}: {path} not found, skipping")
            continue
        raw = loadmat(path)
        y = np.asarray(raw["Y"]).ravel().astype(int)
        matrix, labels = out / f"{name}.tsv", out / f"{name}.labels.txt"
        save_matrix(Dataset.from_matrix(np.asarray(raw["X"], dtype=np.float64)), matrix)
        labels.write_text("".join(f"{v}\n" for v in y), encoding="utf-8")
        q = qmap.get(name, 3)
        print(f"{name}: n={y.size} p={raw['X'].shape[1]} clusters={np.unique(y).size} q={q}")

        for ranking in rankings:
            table = out / f"{name}_{ranking}.tsv"
            t0 = time.perf_counter()
            code = kpcaig(["curve", "selection", str(matrix), "--labels", str(labels),
                           "--q", str(q), "--sigma", SIGMA_GRID, "--d-grid", "10:300:10",
                           "--runs", "20", "--seed", str(args.seed), "--ranking", ranking,
                           "-o", str(table)]
                          + (["--no-standardize"] if args.no_standardize else []))
            if code:
                sys.exit(code)
            lines = table.read_text(encoding="utf-8").splitlines()
            sigma = json.loads(lines[0][2:]).get("sigma_resolved")
            print(f"  wrote {table} in {time.perf_counter() - t0:.1f}s"
                  + ("" if sigma is None else f", sigma={sigma:g}"))
            for d, acc, acc_std, nmi, nmi_std in (ln.split("\t") for ln in lines[2:]):
                if d in ("10", "150", "300"):
                    print(f"  d={d}: ACC {float(acc):.2f} ({float(acc_std):.2f})  "
                          f"NMI {float(nmi):.2f} ({float(nmi_std):.2f})")


if __name__ == "__main__":
    main()
