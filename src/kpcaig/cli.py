"""Command-line workflow: rank / project / arrows / baseline / curve / bench.

Every output table starts with a ``# ``-prefixed JSON comment recording the
fully resolved run configuration, so results are self-describing and
reproducible byte for byte. Exit codes: 0 success, 2 usage error, 3 invalid
configuration or input values, 4 unreadable or malformed data files.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .baselines import laplacian_score, permutation_importance
from .curves import selection_curve, silhouette_curve, variance_generalization
from .data import Dataset, load_labels, load_matrix, standardize
from .exceptions import DegenerateDataError, InputError, ParseError
from .importance import arrow_field, rank_features
from .kernels import KernelSpec
from .kpca import SigmaRule, fit_kpca, project_training, resolve_spec
from .synthetic import gaussian_matrix, random_ranking

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
    synthetic: str | None = None

    def to_comment(self) -> str:
        d = asdict(self)
        if d["d_grid"] is not None:
            d["d_grid"] = list(d["d_grid"])
        return "# " + json.dumps(d, sort_keys=True)


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


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_table(output, config: RunConfig, columns, rows) -> None:
    lines = [config.to_comment(), "\t".join(columns)]
    lines += ["\t".join(_fmt(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8", newline="\n")


def _add_common(sub: argparse.ArgumentParser, *, with_input: bool = True) -> None:
    if with_input:
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

    p = cmds.add_parser("bench", help="timing report (informational)")
    _add_common(p, with_input=False)
    p.add_argument("input", nargs="?", default=None)
    p.add_argument("--synthetic", default=None, metavar="NxP",
                   help="generate an NxP Gaussian matrix instead of reading a file")
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


def _config(args, command, **extra) -> dict:
    base = dict(command=command,
                input=getattr(args, "input", None),
                output=args.output,
                kernel=args.kernel,
                sigma=args.sigma,
                degree=args.degree,
                coef0=args.coef0,
                q=args.q,
                seed=args.seed,
                orientation=args.orientation,
                standardize=not args.no_standardize)
    base.update(extra)
    return base


def _ranking_order(name: str, data: Dataset, spec: KernelSpec,
                   rule: SigmaRule | None, q: int, seed: int) -> np.ndarray:
    if name == "random":
        return random_ranking(data.p, seed)
    if name == "laplacian":
        return laplacian_score(data).order
    resolved = resolve_spec(spec, rule, data, q)
    if name == "permute":
        return permutation_importance(data, resolved, q, seed=seed).order
    model = fit_kpca(data, resolved, q, allow_unstandardized=True)
    return rank_features(model).order


def _cmd_rank(args) -> int:
    data = _load(args)
    spec, rule = _spec_and_rule(args)
    spec = resolve_spec(spec, rule, data, args.q)
    model = fit_kpca(data, spec, args.q, allow_unstandardized=True)
    ranking = rank_features(model)
    cfg = RunConfig(**_config(args, "rank", sigma_resolved=spec.sigma))
    rows = [(r + 1, ranking.feature_names[j], ranking.scores[j], ranking.stds[j])
            for r, j in enumerate(ranking.order)]
    _write_table(args.output, cfg, ("rank", "feature", "score", "std"), rows)
    return EXIT_OK


def _cmd_project(args) -> int:
    data = _load(args)
    spec, rule = _spec_and_rule(args)
    spec = resolve_spec(spec, rule, data, args.q)
    model = fit_kpca(data, spec, args.q, allow_unstandardized=True)
    emb = project_training(model)
    cfg = RunConfig(**_config(args, "project", sigma_resolved=spec.sigma))
    cols = ("sample_id",) + tuple(f"pc{k + 1}" for k in range(model.q))
    rows = [(sid,) + tuple(row) for sid, row in zip(data.sample_ids, emb.coords)]
    _write_table(args.output, cfg, cols, rows)
    sidecar = {"config": json.loads(cfg.to_comment()[2:]),
               "q": model.q,
               "eigenvalues": [float(v) for v in model.eigvals],
               "explained_variance": [float(v) for v in emb.component_variance]}
    payload = json.dumps(sidecar, sort_keys=True, indent=2) + "\n"
    if args.output is None:
        sys.stdout.write(payload)
    else:
        Path(args.output).with_suffix(".variance.json").write_text(
            payload, encoding="utf-8", newline="\n")
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
    spec, rule = _spec_and_rule(args)
    spec = resolve_spec(spec, rule, data, args.q)
    model = fit_kpca(data, spec, args.q, allow_unstandardized=True)
    j = _feature_index(data, args.feature)
    arrows = arrow_field(model, j, scale=args.scale)
    cfg = RunConfig(**_config(args, "arrows", sigma_resolved=spec.sigma,
                              feature=args.feature, scale=args.scale))
    rows = [(x, y, dx, dy, sid)
            for ((x, y), (dx, dy)), sid in zip(arrows, data.sample_ids)]
    _write_table(args.output, cfg, ("x", "y", "dx", "dy", "sample_id"), rows)
    return EXIT_OK


def _cmd_baseline(args) -> int:
    data = _load(args)
    if args.variant == "laplacian":
        ranking = laplacian_score(data, k_nn=args.knn, t=args.t)
        cfg = RunConfig(**_config(args, "baseline", variant="laplacian",
                                  knn=args.knn, t=args.t))
    else:
        spec, rule = _spec_and_rule(args)
        spec = resolve_spec(spec, rule, data, args.q)
        ranking = permutation_importance(data, spec, args.q, n_perm=args.n_perm,
                                         seed=args.seed, metric=args.metric)
        cfg = RunConfig(**_config(args, "baseline", variant="permute",
                                  sigma_resolved=spec.sigma, n_perm=args.n_perm,
                                  metric=args.metric))
    rows = [(r + 1, data.feature_names[j], ranking.scores[j])
            for r, j in enumerate(ranking.order)]
    _write_table(args.output, cfg, ("rank", "feature", "score"), rows)
    return EXIT_OK


def _cmd_curve(args) -> int:
    data = _load(args)
    spec, rule = _spec_and_rule(args)
    d_grid = _parse_d_grid(args.d_grid)
    truth = load_labels(args.labels) if args.labels else None
    if truth is not None and truth.size != data.n:
        raise InputError(f"{truth.size} labels for n={data.n} samples")
    k = args.k if args.k is not None else \
        (int(np.unique(truth).size) if truth is not None else None)
    extra = dict(variant=args.variant, labels=args.labels, d_grid=d_grid,
                 runs=args.runs, splits=args.splits, ranking=args.ranking, k=k)

    if args.variant == "variance-split":
        points = variance_generalization(data, spec, args.q, d_grid,
                                         n_splits=args.splits, seed=args.seed,
                                         sigma_rule=rule)
        cfg = RunConfig(**_config(args, "curve", **extra))
        rows = [(pt.split, pt.d, pt.var_train, pt.var_test) for pt in points]
        _write_table(args.output, cfg, ("split", "d", "var_train", "var_test"), rows)
        return EXIT_OK

    if k is None:
        raise InputError("curve needs --k (or --labels to infer the cluster count)")
    order = _ranking_order(args.ranking, data, spec, rule, args.q, args.seed)
    if args.variant == "selection":
        if truth is None:
            raise InputError("curve selection needs --labels")
        points = selection_curve(data, order, truth, k, d_grid,
                                 runs=args.runs, seed=args.seed)
        cfg = RunConfig(**_config(args, "curve", **extra))
        rows = [(pt.d, pt.acc_mean, pt.acc_std, pt.nmi_mean, pt.nmi_std)
                for pt in points]
        _write_table(args.output, cfg,
                     ("d", "acc_mean", "acc_std", "nmi_mean", "nmi_std"), rows)
        return EXIT_OK

    points = silhouette_curve(data, order, spec, k, d_grid,
                              sigma_rule=rule, seed=args.seed)
    cfg = RunConfig(**_config(args, "curve", **extra))
    rows = [(pt.d, pt.silhouette) for pt in points]
    _write_table(args.output, cfg, ("d", "silhouette"), rows)
    return EXIT_OK


def _cmd_bench(args) -> int:
    if (args.input is None) == (args.synthetic is None):
        raise InputError("bench needs either an input file or --synthetic NxP")
    t0 = time.perf_counter()
    if args.synthetic:
        try:
            n, p = (int(v) for v in args.synthetic.lower().split("x"))
        except ValueError:
            raise InputError(f"--synthetic must look like 165x12626, got {args.synthetic!r}") from None
        data = gaussian_matrix(n, p, seed=args.seed)
        if not args.no_standardize:
            data = standardize(data)
    else:
        data = _load(args)
    t_load = time.perf_counter() - t0
    spec, rule = _spec_and_rule(args)
    t0 = time.perf_counter()
    spec = resolve_spec(spec, rule, data, args.q)
    model = fit_kpca(data, spec, args.q, allow_unstandardized=True)
    t_fit = time.perf_counter() - t0
    t0 = time.perf_counter()
    rank_features(model)
    t_rank = time.perf_counter() - t0
    cfg = RunConfig(**_config(args, "bench", synthetic=args.synthetic,
                              sigma_resolved=spec.sigma))
    rows = [("load", t_load, data.n, data.p),
            ("fit", t_fit, data.n, data.p),
            ("rank", t_rank, data.n, data.p),
            ("total", t_load + t_fit + t_rank, data.n, data.p)]
    _write_table(args.output, cfg, ("stage", "seconds", "n", "p"), rows)
    return EXIT_OK


_COMMANDS = {
    "rank": _cmd_rank,
    "project": _cmd_project,
    "arrows": _cmd_arrows,
    "baseline": _cmd_baseline,
    "curve": _cmd_curve,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    """Run one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
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
