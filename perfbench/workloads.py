"""The three benchmark workloads: inputs, one pass, and the output checks.

Every workload is a closed loop with one client running one pass at a
time. ``setup`` builds the seeded inputs; ``measure_pass`` runs one pass
and returns (output, wall_s, cpu_s, rss_mb); ``reference`` computes what a
correct output must be from ``oracle`` and the stored reference values;
``check`` returns a list of failure messages for one output. Passes call
kpcaig only through its public functions, looked up on the module at call
time so the tracer's rebinding takes effect, or through its CLI.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import kpcaig
import kpcaig.cli
import oracle
from inputs import CLUSTERS as K
from inputs import planted_clusters, write_tsv

SRC = Path(kpcaig.__file__).resolve().parent.parent
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
STORED_RTOL = 1e-8    # stored values are written with 12 significant digits
PASS_TIMEOUT = 120.0  # seconds before a CLI child is killed and the pass fails


def child_env() -> dict:
    """Environment for a child interpreter that imports kpcaig from src/."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


class Workload:
    """Base for in-process workloads; subclasses set n, p, kernel and the
    setup / run_pass / reference / check methods."""

    name = ""
    q = 3
    child_process = False   # timed passes run in this process

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def describe(self) -> dict:
        return {"n": self.n, "p": self.p, "q": self.q, "kernel": self.kernel}

    def measure_pass(self):
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        out = self.run_pass()
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return out, wall, cpu, None

    def run_in_process(self):
        """One pass in this process, so that the tracer sees its calls."""
        return self.run_pass()


class RankCli(Workload):
    """``python -m kpcaig rank <tsv> --q 3 -o <out>`` as a fresh child process.

    The paper's headline use at its largest scale (165 x 12626), paying the
    interpreter start and import a CLI user pays on every call. File
    parsing and ranking dominate; curves, metrics and baselines are idle.
    """

    name = "rank_cli"
    n, p, n_informative = 165, 12626, 1000
    kernel = "rbf, median sigma"
    child_process = True

    def setup(self):
        self.X, _, _ = planted_clusters(self.n, self.p, self.n_informative, self.seed)
        self.tsv = self.workdir / "rank_cli.tsv"
        write_tsv(self.tsv, self.X)

    def _argv(self, out):
        return ["rank", str(self.tsv), "--q", str(self.q), "-o", str(out)]

    def measure_pass(self):
        out = self.workdir / "rank_cli.out.tsv"
        out.unlink(missing_ok=True)
        with open(self.workdir / "rank_cli.stderr", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "kpcaig", *self._argv(out)],
                                    env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
            try:
                # wait4 gives this child's own CPU time and peak RSS
                while not (reaped := os.wait4(proc.pid, os.WNOHANG))[0]:
                    if time.perf_counter() - start > PASS_TIMEOUT:
                        raise TimeoutError(f"kpcaig rank ran over {PASS_TIMEOUT} s")
                    time.sleep(0.005)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
            _, status, usage = reaped
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            message = err.read().decode(errors="replace").strip()
        if proc.returncode != 0:
            raise RuntimeError(f"kpcaig rank exited {proc.returncode}: {message[-500:]}")
        return (out.read_text(encoding="utf-8"), wall,
                usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)

    def run_in_process(self):
        out = self.workdir / "rank_cli.in_process.tsv"
        out.unlink(missing_ok=True)
        code = kpcaig.cli.main(self._argv(out))
        if code != 0:
            raise RuntimeError(f"kpcaig.cli.main returned {code}")
        return out.read_text(encoding="utf-8")

    def reference(self):
        Xs = oracle.standardize(self.X)
        D = oracle.sq_dists(Xs)
        sigma = oracle.median_sigma(D)
        scores, stds, order = oracle.rank(Xs, ("rbf", sigma), self.q, D)
        return {"sigma": sigma, "scores": scores, "stds": stds, "order": order}

    def check(self, text, ref):
        return ranking_file_errors(text, ref)


def ranking_file_errors(text: str, ref) -> list[str]:
    """Check a ``kpcaig rank`` output table against an oracle ranking."""
    lines = text.splitlines()
    header = json.loads(lines[0][1:])
    rows = [line.split("\t") for line in lines[2:]]
    errors = []
    if not oracle.close(header["sigma_resolved"], ref["sigma"], oracle.RANK_RTOL):
        errors.append(f"sigma {header['sigma_resolved']!r} != reference {ref['sigma']!r}")
    if [int(r[0]) for r in rows] != list(range(1, len(rows) + 1)):
        errors.append("rank column is not 1..p")
    order = np.array([int(r[1][1:]) for r in rows])
    if order.shape != ref["order"].shape:
        return errors + [f"{order.size} rows, expected {ref['order'].size}"]
    errors += oracle.ranking_errors(order, np.array([float(r[2]) for r in rows]),
                                    ref["order"], ref["scores"][ref["order"]])
    if not oracle.close([float(r[3]) for r in rows], ref["stds"][ref["order"]], oracle.RANK_RTOL):
        errors.append("stds differ from the reference")
    return errors


class EvalProtocol(Workload):
    """The evaluation protocol in memory, 174 x 9182, k = 4.

    No file I/O. About 600 k-means calls, the grid's 8 Gram builds, many
    small fits on feature subsets, a single-feature arrow field and a
    polynomial ranking path: a change tuned for one large rbf fit shows up
    here if it costs small fits, single fields or another kernel family.
    """

    name = "eval_protocol"
    n, p, n_informative = 174, 9182, 700
    kernel = "rbf grid pick; rbf median for silhouette; polynomial degree 2 for variance"
    GRID = tuple(10.0 ** e for e in range(-7, 1))
    SELECTION_D = tuple(range(10, 301, 10))
    SILHOUETTE_D = (5, 15, 25, 50, 100, 200)
    VARIANCE_D = (5, 15, 25, 50)
    SPLITS = 3
    RUNS = 20

    def setup(self):
        X, self.labels, _ = planted_clusters(self.n, self.p, self.n_informative, self.seed)
        self.data = kpcaig.standardize(kpcaig.Dataset.from_matrix(X, labels=self.labels))

    def run_pass(self):
        data, seed, q = self.data, self.seed, self.q
        sigma = kpcaig.kpca.grid_search_sigma(data, self.GRID, q)
        model = kpcaig.kpca.fit_kpca(data, kpcaig.KernelSpec("rbf", sigma=sigma), q)
        ranking = kpcaig.importance.rank_features(model)
        arrows = kpcaig.importance.arrow_field(model, int(ranking.order[0]))
        selection = kpcaig.curves.selection_curve(
            data, ranking.order, self.labels, K, self.SELECTION_D, runs=self.RUNS, seed=seed)
        laplacian = kpcaig.baselines.laplacian_score(data)
        silhouette = kpcaig.curves.silhouette_curve(
            data, ranking.order, kpcaig.KernelSpec("rbf", sigma=1.0), K, self.SILHOUETTE_D,
            sigma_rule=kpcaig.SigmaRule("median"), seed=seed)
        variance = kpcaig.curves.variance_generalization(
            data, kpcaig.KernelSpec("polynomial", degree=2), q, self.VARIANCE_D,
            n_splits=self.SPLITS, seed=seed)
        return {
            "sigma": sigma, "scores": ranking.scores, "stds": ranking.stds,
            "order": ranking.order,
            "arrow_xy": np.array([xy for xy, _ in arrows]),
            "arrow_dxdy": np.array([v for _, v in arrows]),
            "acc": np.array([[pt.acc_mean, pt.acc_std] for pt in selection]),
            "nmi": np.array([[pt.nmi_mean, pt.nmi_std] for pt in selection]),
            "laplacian": laplacian.scores, "laplacian_order": laplacian.order,
            "silhouette": np.array([pt.silhouette for pt in silhouette]),
            "variance": np.array([[pt.var_train, pt.var_test] for pt in variance]),
        }

    def reference(self):
        Xs, q = self.data.matrix, self.q
        D = oracle.sq_dists(Xs)
        sigma = oracle.grid_pick(Xs, self.GRID, q, D)
        scores, stds, order = oracle.rank(Xs, ("rbf", sigma), q, D)
        xy, dxdy = oracle.arrows(Xs, ("rbf", sigma), q, int(order[0]), D)
        poly = ("polynomial", 2, 1.0)
        variance = []
        n_train = int(0.75 * self.n)
        for s in range(self.SPLITS):
            perm = np.random.default_rng([self.seed, s]).permutation(self.n)
            train, test = Xs[perm[:n_train]], Xs[perm[n_train:]]
            train_order = oracle.rank(train, poly, q)[2]
            for d in self.VARIANCE_D:
                cols = train_order[:d]
                variance.append([oracle.retained_share(oracle.gram(part[:, cols], poly), q)
                                 for part in (train, test)])
        return {
            "sigma": sigma, "scores": scores, "stds": stds, "order": order,
            "arrow_xy": xy, "arrow_dxdy": dxdy,
            "laplacian": oracle.laplacian(Xs),
            "variance": np.array(variance),
            # kpcaig rounds exp(-sigma d^2) near 1 and centring amplifies that
            # by 1 / (sigma * median d^2) when the grid picks a small sigma
            "rank_rtol": oracle.RANK_RTOL * max(1.0, oracle.median_sigma(D) / sigma),
            "stored": load_stored(self.name, self.seed),
        }

    def check(self, out, ref):
        errors = []
        if out["sigma"] != ref["sigma"]:
            errors.append(f"grid pick {out['sigma']!r} != reference {ref['sigma']!r}")
            return errors
        rtol = ref["rank_rtol"]
        errors += oracle.ranking_errors(out["order"], out["scores"], ref["order"],
                                        ref["scores"], rtol)
        if not oracle.close(out["stds"], ref["stds"], rtol):
            errors.append("ranking stds differ from the reference")
        for key in ("arrow_xy", "arrow_dxdy"):
            scale = np.abs(ref[key]).max()
            if not oracle.close(out[key], ref[key], 0.0, atol=oracle.VALUE_RTOL * scale):
                errors.append(f"{key} differs from the reference")
        if not oracle.close(out["laplacian"], ref["laplacian"], oracle.VALUE_RTOL):
            errors.append("Laplacian scores differ from the reference")
        lap_order = np.lexsort((np.arange(self.p), ref["laplacian"]))
        if not np.array_equal(out["laplacian_order"], lap_order):
            errors.append("Laplacian order differs from the reference")
        if not oracle.close(out["variance"], ref["variance"], oracle.VALUE_RTOL):
            errors.append("variance shares differ from the reference")
        acc, nmi, sil = out["acc"], out["nmi"], out["silhouette"]
        if not (np.all((acc[:, 0] >= 1.0 / K) & (acc[:, 0] <= 1.0)) and
                np.all((nmi[:, 0] >= 0.0) & (nmi[:, 0] <= 1.0)) and
                np.all(np.abs(sil) <= 1.0)):
            errors.append("ACC, NMI or silhouette outside its range")
        stored = ref["stored"]
        if stored is not None:
            for key in ("sigma", "acc", "nmi", "silhouette"):
                if not oracle.close(out[key], stored[key], STORED_RTOL, atol=1e-12):
                    errors.append(f"{key} differs from the stored reference")
        return errors


def stored_values(out) -> dict:
    """The values kept in reference.json for one seed."""
    return {key: np.asarray(out[key]).tolist() for key in ("acc", "nmi", "silhouette")} | \
        {"sigma": out["sigma"]}


def load_stored(name: str, seed: int):
    if not REFERENCE_FILE.is_file():
        return None
    entry = json.loads(REFERENCE_FILE.read_text()).get(name, {}).get(str(seed))
    return None if entry is None else {k: np.asarray(v) for k, v in entry.items()}


class PermuteBaseline(Workload):
    """``permutation_importance`` in memory, rbf with the median sigma.

    The only path that rebuilds the Gram matrix and runs a full eigh once
    per feature, O(p^2 n^2): kernels and the baseline's eigensolve do
    almost all the work; importance and data are idle. p is sized for a
    pass of a few seconds instead of the ~19 minutes of paper scale.
    """

    name = "permute_baseline"
    n, p, n_informative = 120, 400, 40
    kernel = "rbf, median sigma"
    CHECKED = 8   # features whose scores the oracle recomputes

    def setup(self):
        X, _, _ = planted_clusters(self.n, self.p, self.n_informative, self.seed)
        self.data = kpcaig.standardize(kpcaig.Dataset.from_matrix(X))

    def run_pass(self):
        sigma = kpcaig.kernels.sigma_heuristic(self.data)
        spec = kpcaig.KernelSpec("rbf", sigma=sigma)
        result = kpcaig.baselines.permutation_importance(
            self.data, spec, self.q, n_perm=1, seed=self.seed, metric="subspace")
        return {"sigma": sigma, "scores": result.scores, "order": result.order}

    def reference(self):
        Xs = self.data.matrix
        sigma = oracle.median_sigma(oracle.sq_dists(Xs))
        sample = np.sort(np.random.default_rng([self.seed, self.p]).choice(
            self.p, self.CHECKED, replace=False))
        return {"sigma": sigma, "sample": sample,
                "scores": np.array([oracle.permutation_score(Xs, sigma, self.q, self.seed, j)
                                    for j in sample])}

    def check(self, out, ref):
        errors = []
        if not oracle.close(out["sigma"], ref["sigma"], oracle.RANK_RTOL):
            errors.append(f"sigma {out['sigma']!r} != reference {ref['sigma']!r}")
        if not oracle.close(out["scores"][ref["sample"]], ref["scores"], oracle.VALUE_RTOL):
            errors.append("sampled permutation scores differ from the reference")
        expected = np.lexsort((np.arange(self.p), -out["scores"]))
        if not np.array_equal(out["order"], expected):
            errors.append("order is not the descending score order")
        return errors


WORKLOADS = {cls.name: cls for cls in (RankCli, EvalProtocol, PermuteBaseline)}
