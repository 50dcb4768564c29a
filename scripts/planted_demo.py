#!/usr/bin/env python3
"""End-to-end demo on planted-cluster data.

Generates a 4-cluster dataset with 10 informative columns at seeded
positions, writes it and its labels as CLI input files, and runs the kpcaig
CLI on them: the feature ranking, the embedding, selection and silhouette
curves of the kpcaig and a random ranking, train/test variance curves and
the arrow field of the top feature, one table per file in the output
directory, ready for plotting.

Usage: python scripts/planted_demo.py [outdir] [--seed N]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kpcaig import save_matrix
from kpcaig.cli import _nonneg_int, main as kpcaig
from kpcaig.synthetic import planted_clusters


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("outdir", nargs="?", default="planted_demo_out")
    ap.add_argument("--seed", type=_nonneg_int, default=0)
    args = ap.parse_args()
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)

    def run(*argv, output):
        path = out / output
        code = kpcaig([*argv, "-o", str(path)])
        if code:
            sys.exit(code)
        print(f"  wrote {path}")
        return path

    print("generating 120 x 500 planted data (4 clusters, 10 informative columns)")
    data, informative = planted_clusters(120, 500, 4, 10, within_std=0.1, seed=args.seed)
    matrix, labels = str(out / "planted.tsv"), str(out / "labels.txt")
    save_matrix(data, matrix)
    Path(labels).write_text("".join(f"{v}\n" for v in data.labels), encoding="utf-8")

    rows = run("rank", matrix, "--q", "3", output="ranking.tsv") \
        .read_text(encoding="utf-8").splitlines()[2:]
    top = [row.split("\t")[1] for row in rows[:10]]
    hits = sorted(set(informative.tolist()) & {int(name[1:]) for name in top})
    print(f"informative features recovered in top 10: {len(hits)}/10 {hits}")
    run("project", matrix, "--q", "3", output="embedding.tsv")

    grid = ["--d-grid", "10,20,50,100,150,200,250", "--seed", str(args.seed)]
    for ranking in ("kpcaig", "random"):
        for curve in ("selection", "silhouette"):
            run("curve", curve, matrix, "--labels", labels, "--q", "3", "--ranking", ranking,
                *grid, output=f"{curve}_{ranking}.tsv")
    run("curve", "variance-split", matrix, "--q", "2", "--splits", "5", *grid,
        output="variance_split.tsv")
    run("arrows", matrix, "--q", "3", "--feature", top[0], output=f"arrows_{top[0]}.tsv")
    print("done")


if __name__ == "__main__":
    main()
