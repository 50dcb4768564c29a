"""Command-line workflow: rank / project / arrows / baseline / curve.

Every output table starts with a ``# ``-prefixed JSON comment recording the
fully resolved run configuration, so results are self-describing and
reproducible byte for byte. Exit codes: 0 success, 2 usage error, 3 invalid
configuration or input values, 4 unreadable or malformed data files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .baselines import laplacian_score, permutation_importance
from .curves import selection_curve, silhouette_curve, variance_generalization
from .data import Dataset, load_labels, load_matrix, standardize
from .exceptions import DegenerateDataError, InputError, ParseError
from .importance import FeatureRanking, arrow_field, rank_features
from .kernels import KernelSpec
from .kpca import (FittedKpca, SigmaRule, explained_variance, fit_kpca, project_training,
                   resolve_spec)
from .synthetic import random_ranking

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_DATA = 4


@dataclass(frozen=True)
class RunConfig:
    """Resolved per-invocation settings, serialized into output headers."""

    command: str
    input: str | None = None
    variant: str | None = None
    output: str | None = None
    labels: str | None = None
    kernel: str = "rbf"
    sigma: str = "median"          # requested rule: value | median | grid:...
    sigma_resolved: float | None = None
    degree: int = 2
    coef0: float = 1.0
    q: int = 2
    seed: int = 0
    d_grid: tuple[int, ...] | None = None
    runs: int = 20
    splits: int = 5
    orientation: str = "rows"
    standardize: bool = True
    feature: str | None = None
    scale: float = 1.0
    knn: int = 5
    t: float | None = None
    n_perm: int = 1
    metric: str = "subspace"
    ranking: str = "kpcaig"
    k: int | None = None

    def to_comment(self) -> str:
        return "# " + json.dumps(asdict(self), sort_keys=True)


def _parse_d_grid(text: str) -> tuple[int, ...]:
    is_range = ":" in text
    try:
        grid = tuple(int(v) for v in text.split(":" if is_range else ",") if v)
    except ValueError:
        raise InputError(f"d-grid must be integers, got {text!r}") from None
    if is_range:
        if len(grid) != 3:
            raise InputError(f"d-grid range must be start:stop:step, got {text!r}")
        start, stop, step = grid
        if step < 1 or start < 1 or stop < start:
            raise InputError(f"invalid d-grid range {text!r}")
        return tuple(range(start, stop + 1, step))
    if not grid:
        raise InputError("d-grid is empty")
    return grid


def _nonneg_int(text: str) -> int:
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {v}")
    return v


def _emit(path, text: str) -> None:
    """Write text to the file at path, or to stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="\n")


def _write_table(output, config: RunConfig, header, columns) -> None:
    """Write the config comment, the column names and one line per entry of
    the columns.

    Cells are Python str, int or float (numpy columns go through tolist()),
    so str() writes every float as its repr, which reads back exactly.
    """
    cells = [map(str, col.tolist() if isinstance(col, np.ndarray) else col) for col in columns]
    lines = [config.to_comment(), "\t".join(header), *map("\t".join, zip(*cells))]
    _emit(output, "\n".join(lines) + "\n")


def _write_ranking(output, config: RunConfig, names, ranking: FeatureRanking) -> None:
    """Write the rank, feature, score[, std] table, best feature first."""
    order, stds = ranking.order, ranking.stds
    header = ("rank", "feature", "score") + (() if stds is None else ("std",))
    columns = [range(1, len(order) + 1), [names[j] for j in order.tolist()],
               ranking.scores[order]]
    if stds is not None:
        columns.append(stds[order])
    _write_table(output, config, header, columns)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("input", help="delimited matrix file (header row + leading ID column)")
    sub.add_argument("-o", "--output", default=None, help="output file (default: stdout)")
    sub.add_argument("--kernel", choices=("rbf", "linear", "poly"), default="rbf")
    sub.add_argument("--sigma", default="median",
                     help="rbf bandwidth: a number, 'median', or 'grid:v1,v2,...'")
    sub.add_argument("--degree", type=int, default=2, help="polynomial degree")
    sub.add_argument("--coef0", type=float, default=1.0, help="polynomial offset")
    sub.add_argument("--q", type=int, default=2, help="retained components")
    sub.add_argument("--seed", type=_nonneg_int, default=0)
    sub.add_argument("--orientation", choices=("rows", "cols"), default="rows",
                     help="'rows': samples are rows; 'cols': samples are columns")
    sub.add_argument("--no-standardize", action="store_true",
                     help="skip column standardization")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="kpcaig",
                                 description="Kernel PCA feature importance toolkit")
    cmds = ap.add_subparsers(dest="command", required=True)

    p = cmds.add_parser("rank", help="gradient-based feature ranking")
    _add_common(p)

    p = cmds.add_parser("project", help="training-set embedding + variance sidecar")
    _add_common(p)

    p = cmds.add_parser("arrows", help="per-sample arrows of one variable on the 2-D embedding")
    _add_common(p)
    p.add_argument("--feature", required=True, help="feature name (or 0-based index)")
    p.add_argument("--scale", type=float, default=1.0)

    p = cmds.add_parser("baseline", help="baseline feature selectors")
    p.add_argument("variant", choices=("laplacian", "permute"))
    _add_common(p)
    p.add_argument("--knn", type=int, default=5, help="laplacian: neighbourhood size")
    p.add_argument("--t", type=float, default=None, help="laplacian: heat-kernel width")
    p.add_argument("--n-perm", type=int, default=1, help="permute: draws per feature")
    p.add_argument("--metric", choices=("subspace", "gram"), default="subspace",
                   help="permute: kernel perturbation distance")

    p = cmds.add_parser("curve", help="feature-count evaluation curves")
    p.add_argument("variant", choices=("selection", "silhouette", "variance-split"))
    _add_common(p)
    p.add_argument("--labels", default=None, help="true labels, one integer per sample")
    p.add_argument("--k", type=int, default=None, help="number of clusters")
    p.add_argument("--d-grid", default="10:300:10",
                   help="feature counts: start:stop:step or comma list")
    p.add_argument("--runs", type=int, default=20, help="selection: k-means restarts")
    p.add_argument("--splits", type=int, default=5, help="variance-split: train/test splits")
    p.add_argument("--ranking", choices=("kpcaig", "random", "laplacian", "permute"),
                   default="kpcaig")
    return ap


def _load(args) -> Dataset:
    data = load_matrix(args.input, orientation=args.orientation)
    if not args.no_standardize:
        data = standardize(data)
    return data


def _spec_and_rule(args) -> tuple[KernelSpec, SigmaRule | None]:
    family = {"poly": "polynomial"}.get(args.kernel, args.kernel)
    if family != "rbf":
        return KernelSpec(family, degree=args.degree, coef0=args.coef0), None
    rule = SigmaRule.parse(args.sigma)
    # placeholder sigma; resolved against the data before any fit
    return KernelSpec("rbf", sigma=1.0), rule


def _resolved_spec(args, data: Dataset) -> KernelSpec:
    spec, rule = _spec_and_rule(args)
    return resolve_spec(spec, rule, data, args.q)


def _fit(args, data: Dataset) -> FittedKpca:
    return fit_kpca(data, _resolved_spec(args, data), args.q)


def _config(args, **extra) -> RunConfig:
    return RunConfig(command=args.command,
                     input=args.input,
                     output=args.output,
                     kernel=args.kernel,
                     sigma=args.sigma,
                     degree=args.degree,
                     coef0=args.coef0,
                     q=args.q,
                     seed=args.seed,
                     orientation=args.orientation,
                     standardize=not args.no_standardize,
                     **extra)


def _ranking_order(args, data: Dataset) -> np.ndarray:
    if args.ranking == "random":
        return random_ranking(data.p, args.seed)
    if args.ranking == "laplacian":
        return laplacian_score(data).order
    if args.ranking == "permute":
        return permutation_importance(data, _resolved_spec(args, data), args.q,
                                      seed=args.seed).order
    return rank_features(_fit(args, data)).order


def _cmd_rank(args) -> int:
    data = _load(args)
    model = _fit(args, data)
    _write_ranking(args.output, _config(args, sigma_resolved=model.kernel.sigma),
                   data.feature_names, rank_features(model))
    return EXIT_OK


def _cmd_project(args) -> int:
    data = _load(args)
    model = _fit(args, data)
    cfg = _config(args, sigma_resolved=model.kernel.sigma)
    cols = ("sample_id",) + tuple(f"pc{k + 1}" for k in range(model.q))
    _write_table(args.output, cfg, cols, (data.sample_ids, *project_training(model).T))
    sidecar = {"config": asdict(cfg),
               "q": model.q,
               "eigenvalues": [float(v) for v in model.eigvals],
               "explained_variance": [float(v) for v in explained_variance(model)]}
    _emit(None if args.output is None else Path(args.output).with_suffix(".variance.json"),
          json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def _feature_index(data: Dataset, name: str) -> int:
    if name in data.feature_names:
        return data.feature_names.index(name)
    try:
        j = int(name)
    except ValueError:
        raise InputError(f"unknown feature {name!r}") from None
    if not 0 <= j < data.p:
        raise InputError(f"feature index {j} out of range for p={data.p}")
    return j


def _cmd_arrows(args) -> int:
    data = _load(args)
    model = _fit(args, data)
    j = _feature_index(data, args.feature)
    points, vectors = zip(*arrow_field(model, j, scale=args.scale))
    cfg = _config(args, sigma_resolved=model.kernel.sigma, feature=args.feature,
                  scale=args.scale)
    _write_table(args.output, cfg, ("x", "y", "dx", "dy", "sample_id"),
                 (*zip(*points), *zip(*vectors), data.sample_ids))
    return EXIT_OK


def _cmd_baseline(args) -> int:
    data = _load(args)
    if args.variant == "laplacian":
        ranking = laplacian_score(data, k_nn=args.knn, t=args.t)
        cfg = _config(args, variant="laplacian", knn=args.knn, t=args.t)
    else:
        spec = _resolved_spec(args, data)
        ranking = permutation_importance(data, spec, args.q, n_perm=args.n_perm,
                                         seed=args.seed, metric=args.metric)
        cfg = _config(args, variant="permute", sigma_resolved=spec.sigma,
                      n_perm=args.n_perm, metric=args.metric)
    _write_ranking(args.output, cfg, data.feature_names, ranking)
    return EXIT_OK


# output columns of each curve, each a CurvePoint field
_CURVE_COLUMNS = {"selection": ("d", "acc_mean", "acc_std", "nmi_mean", "nmi_std"),
                  "silhouette": ("d", "silhouette"),
                  "variance-split": ("split", "d", "var_train", "var_test")}


def _cmd_curve(args) -> int:
    data = _load(args)
    spec, rule = _spec_and_rule(args)
    d_grid = _parse_d_grid(args.d_grid)
    truth = load_labels(args.labels) if args.labels else None
    if truth is not None and truth.size != data.n:
        raise InputError(f"{truth.size} labels for n={data.n} samples")
    k = args.k if args.k is not None else \
        (int(np.unique(truth).size) if truth is not None else None)
    cfg = _config(args, variant=args.variant, labels=args.labels, d_grid=d_grid,
                  runs=args.runs, splits=args.splits, ranking=args.ranking, k=k)
    if args.variant == "variance-split":
        points = variance_generalization(data, spec, args.q, d_grid,
                                         n_splits=args.splits, seed=args.seed,
                                         sigma_rule=rule)
    else:
        if k is None:
            raise InputError("curve needs --k (or --labels to infer the cluster count)")
        order = _ranking_order(args, data)
        if args.variant == "selection":
            if truth is None:
                raise InputError("curve selection needs --labels")
            points = selection_curve(data, order, truth, k, d_grid,
                                     runs=args.runs, seed=args.seed)
        else:
            points = silhouette_curve(data, order, spec, k, d_grid,
                                      sigma_rule=rule, seed=args.seed)
    columns = _CURVE_COLUMNS[args.variant]
    _write_table(args.output, cfg, columns,
                 [[getattr(pt, name) for pt in points] for name in columns])
    return EXIT_OK


_COMMANDS = {
    "rank": _cmd_rank,
    "project": _cmd_project,
    "arrows": _cmd_arrows,
    "baseline": _cmd_baseline,
    "curve": _cmd_curve,
}


def main(argv=None) -> int:
    """Run one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        # every header records coef0, and json writes a non-finite float as invalid JSON
        if not np.isfinite(args.coef0):
            raise InputError(f"coef0 must be finite, got {args.coef0}")
        return _COMMANDS[args.command](args)
    except (InputError, DegenerateDataError) as e:
        print(f"kpcaig: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, OSError) as e:
        print(f"kpcaig: {e}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
