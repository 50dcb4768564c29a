#!/usr/bin/env python3
"""End-to-end demo on planted-cluster data.

Generates a 4-cluster dataset with 10 informative columns, ranks the
features, and writes the full evaluation battery (selection curve against a
random ranking, silhouette curves, train/test variance curves, arrow field
of the top feature) into an output directory as TSV files ready for
plotting.

Usage: python scripts/planted_demo.py [outdir] [--seed N]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kpcaig import (KernelSpec, SigmaRule, arrow_field, fit_kpca, project_training,
                    rank_features, selection_curve, sigma_heuristic,
                    silhouette_curve, standardize, variance_generalization)
from kpcaig.synthetic import planted_clusters, random_ranking


def write_tsv(path, columns, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\t".join(columns) + "\n")
        for row in rows:
            fh.write("\t".join(repr(float(v)) if isinstance(v, (float, np.floating))
                     else str(v) for v in row) + "\n")
    print(f"  wrote {path}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("outdir", nargs="?", default="planted_demo_out")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)

    print("generating 120 x 500 planted data (4 clusters, 10 informative columns)")
    data = standardize(planted_clusters(120, 500, 4, 10, within_std=0.1, seed=args.seed))
    spec = KernelSpec("rbf", sigma=sigma_heuristic(data))
    model = fit_kpca(data, spec, 3)
    ranking = rank_features(model)
    hits = sorted(int(j) for j in ranking.order[:10] if j < 10)
    print(f"informative features recovered in top 10: {len(hits)}/10 {hits}")
    write_tsv(out / "ranking.tsv", ("rank", "feature", "score", "std"),
              [(r + 1, data.feature_names[j], ranking.scores[j], ranking.stds[j])
               for r, j in enumerate(ranking.order)])

    write_tsv(out / "embedding.tsv", ("sample", "pc1", "pc2", "label"),
              [(sid, c[0], c[1], int(lab)) for sid, c, lab in
               zip(data.sample_ids, project_training(model), data.labels)])

    grid = [10, 20, 50, 100, 150, 200, 250]
    sel_kpcaig = selection_curve(data, ranking.order, data.labels, 4, grid,
                                 runs=20, seed=100)
    sel_random = selection_curve(data, random_ranking(data.p, args.seed + 1),
                                 data.labels, 4, grid, runs=20, seed=100)
    write_tsv(out / "selection_curve.tsv",
              ("d", "acc_kpcaig", "acc_random", "nmi_kpcaig", "nmi_random"),
              [(a.d, a.acc_mean, b.acc_mean, a.nmi_mean, b.nmi_mean)
               for a, b in zip(sel_kpcaig, sel_random)])

    median = SigmaRule("median")
    sil_kpcaig = silhouette_curve(data, ranking.order, spec, 4, grid,
                                  sigma_rule=median, seed=7)
    sil_random = silhouette_curve(data, random_ranking(data.p, args.seed + 2),
                                  spec, 4, grid, sigma_rule=median, seed=7)
    write_tsv(out / "silhouette_curve.tsv", ("d", "sil_kpcaig", "sil_random"),
              [(a.d, a.silhouette, b.silhouette) for a, b in zip(sil_kpcaig, sil_random)])

    var_pts = variance_generalization(data, spec, 2, grid, n_splits=5,
                                      seed=11, sigma_rule=median)
    write_tsv(out / "variance_split.tsv", ("split", "d", "var_train", "var_test"),
              [(p.split, p.d, p.var_train, p.var_test) for p in var_pts])

    top = int(ranking.order[0])
    arrows = arrow_field(model, top, scale=1.0)
    write_tsv(out / f"arrows_{data.feature_names[top]}.tsv",
              ("x", "y", "dx", "dy"),
              [(p[0], p[1], v[0], v[1]) for p, v in arrows])
    print("done")


if __name__ == "__main__":
    main()
