"""Command-line workflow: rank / project / arrows / baseline / curve.

Each command, and each variant of ``baseline`` and ``curve``, takes only the
options it reads, spelled in full, after the command and variant words; any
other option, an abbreviation included, is a usage error, and so is an option
placed before the command or variant word, whose message says where it goes.
``-o``, and a curve's ``--d-grid``, ``--labels``, ``--k`` and ``--runs``, are
checked before any ranking is computed. Each command writes exactly one table,
which starts with a ``# ``-prefixed JSON comment: the command's options as parsed
plus the values resolved from the data (``sigma_resolved``, ``q_resolved``,
``eigengap`` and ``eigengap_bound`` of a fit or of the permutation baseline,
a curve's ranking included;
``project``'s ``eigenvalues`` and ``explained_variance``; a curve's expanded
``d_grid`` and ``k``). Identical command lines give byte-identical output.
Warnings print once each as ``kpcaig: warning: ...``. Exit codes: 0 success,
2 usage error, 3 invalid configuration or input values, 4 unreadable or
malformed data files.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .baselines import laplacian_score, permutation_importance
from .curves import check_grid, selection_curve, silhouette_curve, variance_generalization
from .data import Dataset, load_labels, load_matrix, standardize
from .exceptions import DegenerateDataError, InputError, ParseError
from .importance import FeatureRanking, arrow_field, rank_features
from .kernels import KernelSpec
from .kpca import (FittedKpca, SigmaRule, eigengap, explained_variance, fit_kpca,
                   project_training, resolve_spec)
from .synthetic import random_ranking

EXIT_OK = 0
EXIT_CONFIG = 3
EXIT_DATA = 4


def _parse_d_grid(text: str) -> tuple[int, ...]:
    is_range = ":" in text
    try:
        grid = tuple(int(v) for v in text.split(":" if is_range else ",") if v)
    except ValueError:
        raise InputError("values must be integers") from None
    if is_range and (len(grid) != 3 or grid[2] < 1):
        raise InputError("a range must be start:stop:step with step >= 1")
    return tuple(range(grid[0], grid[1] + 1, grid[2])) if is_range else grid


def _nonneg_int(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if v < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {v}")
    return v


def _write_table(output, settings: dict, header, columns) -> None:
    """Write the settings comment, the column names and one line per entry of
    the columns to the file at output, or to stdout when output is None. Cells
    are Python str, int or float (numpy columns go through tolist()), so str()
    writes every float as its repr, which reads back exactly."""
    cells = [map(str, col.tolist() if isinstance(col, np.ndarray) else col) for col in columns]
    lines = ["# " + json.dumps(settings, sort_keys=True), "\t".join(header),
             *map("\t".join, zip(*cells))]
    text = "\n".join(lines) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8", newline="\n")


def _check_output(output: str) -> None:
    """Raise OSError naming -o unless output can be written as a file."""
    path = Path(output)
    if path.is_dir():
        raise IsADirectoryError(f"-o {output}: is a directory")
    # an existing file is overwritten in place; a new one is made in its directory
    target = path if path.exists() else path.parent
    if not ((target is path or target.is_dir()) and os.access(target, os.W_OK)):
        kind = "file" if target is path else "directory"
        raise OSError(f"-o {output}: {target} is not a writable {kind}")


def _ranking_table(names, ranking: FeatureRanking) -> tuple:
    """The header and columns of the rank, feature, score[, std] table, best feature first."""
    order, stds = ranking.order, ranking.stds
    header = ("rank", "feature", "score") + (() if stds is None else ("std",))
    columns = [range(1, len(order) + 1), [names[j] for j in order.tolist()],
               ranking.scores[order]]
    if stds is not None:
        columns.append(stds[order])
    return header, columns


class _Parser(argparse.ArgumentParser):
    """A parser that takes options only spelled in full, refuses an option placed
    before its command or variant word, and reports a leftover argument under
    its own usage line: the usage line of the command or variant that took it."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        self._word = None    # "command" or "variant" once it has subparsers

    def add_subparsers(self, **kwargs):
        self._word = kwargs["dest"]
        return super().add_subparsers(**kwargs)

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        # else argparse would skip an option it does not take and read its
        # value, or the next word, as the command or variant
        lead = next((arg for arg in args if arg not in ("-h", "--help")), "")
        if self._word and lead.startswith("-"):
            self.error(f"option {lead} goes after the {self._word}")
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    """One parser per command, and per variant of ``baseline`` and ``curve``,
    each taking only the options its command reads."""
    # the option groups, given to each command that reads them as parents; new
    # on every call, since argparse shares a parent's actions with its children
    inp, kernel, seed, grid, clusters = (argparse.ArgumentParser(add_help=False) for _ in range(5))
    inp.add_argument("input", help="delimited matrix file (header row + leading ID column)")
    inp.add_argument("-o", "--output", default=None, help="output file (default: stdout)")
    inp.add_argument("--orientation", choices=("rows", "cols"), default="rows",
                     help="'rows': samples are rows; 'cols': samples are columns")
    inp.add_argument("--no-standardize", dest="standardize", action="store_false",
                     help="skip column standardization")
    kernel.add_argument("--kernel", choices=("rbf", "linear", "poly"), default="rbf")
    kernel.add_argument("--sigma", default="median",
                        help="rbf bandwidth: a number, 'median', or 'grid:v1,v2,...'")
    kernel.add_argument("--degree", type=int, default=2, help="polynomial degree")
    kernel.add_argument("--coef0", type=float, default=1.0, help="polynomial offset")
    kernel.add_argument("--q", type=int, default=2, help="retained components")
    seed.add_argument("--seed", type=_nonneg_int, default=0)
    grid.add_argument("--d-grid", default="10:300:10",
                      help="feature counts: start:stop:step or comma list")
    # the curves that cluster the top-d features of a ranking
    clusters.add_argument("--labels", default=None, help="true labels, one integer per sample")
    clusters.add_argument("--k", type=int, default=None, help="number of clusters")
    clusters.add_argument("--ranking", choices=("kpcaig", "random", "laplacian", "permute"),
                          default="kpcaig")

    ap = _Parser(prog="kpcaig", description="Kernel PCA feature importance toolkit")
    cmds = ap.add_subparsers(dest="command", required=True)
    cmds.add_parser("rank", help="gradient-based feature ranking", parents=[inp, kernel])
    cmds.add_parser("project", help="training-set embedding and its eigenvalues",
                    parents=[inp, kernel])
    p = cmds.add_parser("arrows", help="per-sample arrows of one variable on the 2-D embedding",
                        parents=[inp, kernel])
    p.add_argument("--feature", required=True, help="feature name (or 0-based index)")
    p.add_argument("--scale", type=float, default=1.0)

    variants = cmds.add_parser("baseline", help="baseline feature selectors") \
        .add_subparsers(dest="variant", required=True)
    v = variants.add_parser("laplacian", help="Laplacian score on a k-NN graph", parents=[inp])
    v.add_argument("--knn", type=int, default=5, help="neighbourhood size")
    v.add_argument("--t", type=float, default=None, help="heat-kernel width")
    v = variants.add_parser("permute", help="kernel perturbation of permuting each feature",
                            parents=[inp, kernel, seed])
    v.add_argument("--n-perm", type=int, default=1, help="draws per feature")
    v.add_argument("--metric", choices=("subspace", "gram"), default="subspace",
                   help="kernel perturbation distance")

    variants = cmds.add_parser("curve", help="feature-count evaluation curves") \
        .add_subparsers(dest="variant", required=True)
    curve = [inp, kernel, seed, grid]
    variants.add_parser("selection", help="k-means ACC and NMI against --labels",
                        parents=[*curve, clusters]) \
        .add_argument("--runs", type=int, default=20, help="k-means restarts")
    variants.add_parser("silhouette", help="silhouette on the 2-D embedding",
                        parents=[*curve, clusters])
    variants.add_parser("variance-split", help="explained variance, train and test",
                        parents=curve) \
        .add_argument("--splits", type=int, default=5, help="train/test splits")
    return ap


def _load(args) -> Dataset:
    data = load_matrix(args.input, orientation=args.orientation)
    return standardize(data) if args.standardize else data


def _kernel(args) -> tuple[KernelSpec, SigmaRule | None]:
    """The kernel of the command line and, for rbf, its sigma rule. A header
    records every kernel option, whatever the family, so each is checked here
    (json writes a non-finite coef0 as invalid JSON)."""
    rule = SigmaRule.parse(args.sigma)
    poly = KernelSpec("polynomial", degree=args.degree, coef0=args.coef0)
    if args.kernel == "rbf":
        # placeholder sigma; resolved against the data before any fit
        return KernelSpec("rbf", sigma=1.0), rule
    return (poly if args.kernel == "poly" else KernelSpec("linear")), None


def _fit(args, data: Dataset, kernel) -> tuple[FittedKpca, dict]:
    """The fitted model and the values its fit resolved from the data."""
    model = fit_kpca(data, resolve_spec(*kernel, data, args.q), args.q)
    gap, bound = eigengap(model)
    return model, {"sigma_resolved": model.kernel.sigma, "q_resolved": model.q,
                   "eigengap": gap, "eigengap_bound": bound}


def _ranking(args, data: Dataset, kernel, method: str, **options) -> tuple[FeatureRanking, dict]:
    """The ranking by method (kpcaig, laplacian or permute), given its options,
    and the values it resolved from the data."""
    if method == "laplacian":
        return laplacian_score(data, **options), {}
    if method == "permute":
        spec = resolve_spec(*kernel, data, args.q)
        ranking = permutation_importance(data, spec, args.q, seed=args.seed, **options)
        gap, bound = ranking.eigengap
        return ranking, {"sigma_resolved": spec.sigma, "eigengap": gap, "eigengap_bound": bound}
    model, resolved = _fit(args, data, kernel)
    return rank_features(model), resolved


def _cmd_rank(args, data: Dataset, kernel) -> tuple:
    ranking, resolved = _ranking(args, data, kernel, "kpcaig")
    return resolved, *_ranking_table(data.feature_names, ranking)


def _cmd_project(args, data: Dataset, kernel) -> tuple:
    model, resolved = _fit(args, data, kernel)
    resolved |= {"eigenvalues": model.eigvals.tolist(),
                 "explained_variance": explained_variance(model).tolist()}
    cols = ("sample_id",) + tuple(f"pc{k + 1}" for k in range(model.q))
    return resolved, cols, (data.sample_ids, *project_training(model).T)


def _feature_index(data: Dataset, name: str) -> int:
    if name in data.feature_names:
        return data.feature_names.index(name)
    try:
        return int(name)
    except ValueError:
        raise InputError(f"unknown feature {name!r}") from None


def _cmd_arrows(args, data: Dataset, kernel) -> tuple:
    model, resolved = _fit(args, data, kernel)
    j = _feature_index(data, args.feature)
    points, vectors = zip(*arrow_field(model, j, scale=args.scale))
    return (resolved, ("x", "y", "dx", "dy", "sample_id"),
            (*zip(*points), *zip(*vectors), data.sample_ids))


def _cmd_baseline(args, data: Dataset, kernel) -> tuple:
    options = ({"k_nn": args.knn, "t": args.t} if args.variant == "laplacian"
               else {"n_perm": args.n_perm, "metric": args.metric})
    ranking, resolved = _ranking(args, data, kernel, args.variant, **options)
    return resolved, *_ranking_table(data.feature_names, ranking)


# output columns of each curve, each a CurvePoint field
_CURVE_COLUMNS = {"selection": ("d", "acc_mean", "acc_std", "nmi_mean", "nmi_std"),
                  "silhouette": ("d", "silhouette"),
                  "variance-split": ("split", "d", "var_train", "var_test")}


def _cmd_curve(args, data: Dataset, kernel) -> tuple:
    spec, rule = kernel
    try:
        d_grid = check_grid(_parse_d_grid(args.d_grid), data.p)
    except InputError as e:
        raise InputError(f"--d-grid {args.d_grid}: {e}") from None
    if args.variant == "variance-split":
        points = variance_generalization(data, spec, args.q, d_grid, n_splits=args.splits,
                                         seed=args.seed, sigma_rule=rule)
        resolved = {}
    else:
        truth = load_labels(args.labels) if args.labels else None
        if truth is None and args.variant == "selection":
            raise InputError("curve selection needs --labels")
        if truth is not None and truth.size != data.n:
            raise InputError(f"{truth.size} labels for n={data.n} samples")
        if args.k is None and truth is None:
            raise InputError("curve needs --k (or --labels to infer the cluster count)")
        k = args.k if args.k is not None else int(np.unique(truth).size)
        low = 2 if args.variant == "silhouette" else 1   # a silhouette needs two clusters
        if not low <= k <= data.n:
            raise InputError(f"--k {k}: must lie in [{low}, n={data.n}]")
        if args.variant == "selection" and args.runs < 1:
            raise InputError(f"--runs {args.runs}: must be >= 1")
        if args.ranking == "random":
            order, resolved = random_ranking(data.p, args.seed), {}
        else:
            ranking, resolved = _ranking(args, data, kernel, args.ranking)
            order = ranking.order
        resolved["k"] = k
        if args.variant == "selection":
            points = selection_curve(data, order, truth, k, d_grid,
                                     runs=args.runs, seed=args.seed)
        else:
            points = silhouette_curve(data, order, spec, k, d_grid,
                                      sigma_rule=rule, seed=args.seed)
    columns = _CURVE_COLUMNS[args.variant]
    return ({**resolved, "d_grid": d_grid}, columns,
            [[getattr(pt, name) for pt in points] for name in columns])


# each returns the values it resolved from the data, then its table's header and columns
_COMMANDS = {
    "rank": _cmd_rank,
    "project": _cmd_project,
    "arrows": _cmd_arrows,
    "baseline": _cmd_baseline,
    "curve": _cmd_curve,
}


def main(argv=None) -> int:
    """Run one subcommand; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            kernel = _kernel(args) if hasattr(args, "kernel") else None
            if args.output is not None:
                _check_output(args.output)
            data = _load(args)
            resolved, header, columns = _COMMANDS[args.command](args, data, kernel)
            _write_table(args.output, {**vars(args), **resolved}, header, columns)
            return EXIT_OK
        except (InputError, DegenerateDataError) as e:
            error, code = e, EXIT_CONFIG
        except (ParseError, OSError) as e:
            error, code = e, EXIT_DATA
        finally:
            # each distinct warning once, like an error line: no source path or line
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"kpcaig: warning: {message}", file=sys.stderr)
    print(f"kpcaig: {error}", file=sys.stderr)
    return code


def entrypoint() -> None:
    code = main()
    # else the interpreter's last collection walks every object the imports made
    gc.freeze()
    sys.exit(code)
