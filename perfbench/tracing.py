"""Span tracing of kpcaig's public functions, from outside the package.

``Tracer.install`` rebinds each traced function in every loaded kpcaig
module whose namespace holds it, which is where callers look it up (for
example ``kpcaig.kpca.gram_matrix`` and ``kpcaig.curves.fit_kpca``). The
wrapper records one span per call (name, start, end, parent, note) in
memory; ``uninstall`` restores the originals. Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function) pairs wrapped by the tracer, one per layer boundary
TRACED = (
    ("data", "load_matrix"), ("data", "standardize"),
    ("kernels", "sigma_heuristic"), ("kernels", "gram_matrix"), ("kernels", "center_gram"),
    ("kpca", "fit_kpca"), ("kpca", "grid_search_sigma"),
    ("importance", "rank_features"), ("importance", "arrow_field"),
    ("baselines", "permutation_importance"), ("baselines", "laplacian_score"),
    ("metrics", "kmeans"), ("metrics", "silhouette"),
    ("metrics", "clustering_accuracy"), ("metrics", "nmi"),
    ("curves", "selection_curve"), ("curves", "silhouette_curve"),
    ("curves", "variance_generalization"),
    ("cli", "main"),
)

# metrics derived from call counts and array shapes, not from timings;
# they repeat exactly from run to run
COMPUTED = (
    "kernels.gram_matrix.calls", "kernels.pairwise_passes_per_matrix",
    "kpca.fit_kpca.calls", "kpca.grid_fits_per_pick", "metrics.kmeans.calls",
    "importance.rank_features.gflop_computed",
    "baselines.permutation_importance.gram_builds_per_feature",
)

_PROBES: dict[int, np.ndarray] = {}


def fingerprint(data):
    """Cheap content key of a matrix: its shape and X^T w for a fixed w.

    Permuting, selecting or editing any column changes the key, which lets
    the tracer count pairwise-distance passes per distinct input matrix.
    """
    X = np.asarray(getattr(data, "matrix", data), dtype=np.float64)
    n = X.shape[0]
    if n not in _PROBES:
        _PROBES[n] = np.random.default_rng(n).normal(size=n)
    return X.shape, (X.T @ _PROBES[n]).tobytes()


def _first(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# work notes taken from a call's arguments, outside the timed span
_NOTES = {
    "data.load_matrix": lambda a, k: {"bytes": os.path.getsize(_first(a, k, 0, "path"))},
    "kernels.sigma_heuristic": lambda a, k: {"matrix": fingerprint(_first(a, k, 0, "data"))},
    "kernels.gram_matrix": lambda a, k: {"matrix": fingerprint(_first(a, k, 1, "data"))},
    "baselines.permutation_importance": lambda a, k: {"features": _first(a, k, 0, "data").p},
    "importance.rank_features": lambda a, k: _rank_work(_first(a, k, 0, "model")),
}


def _rank_work(model):
    n, p = model.training_data.matrix.shape
    # 2 n^2 q p for the field GEMMs plus n^2 p for the prefactor products
    return {"features": p, "flop": 2.0 * n * n * model.q * p + float(n) * n * p}


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, note]
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name, fn):
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = note(args, kwargs) if note else None
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, info])
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx][1:3] = start, end
            return result
        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "kpcaig" or key.startswith("kpcaig.")]
        for mod_name, fn_name in TRACED:
            original = getattr(importlib.import_module(f"kpcaig.{mod_name}"), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                if mod.__dict__.get(fn_name) is original:
                    self._restore.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._restore):
            setattr(mod, fn_name, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def _within(self, idx: int, ancestor: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False

    def layer_metrics(self) -> dict[str, float]:
        """Per-function self seconds and call counts plus the derived ratios."""
        own = self.self_times()
        secs: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, *_), s in zip(self.spans, own):
            secs[name] += s
            calls[name] += 1
        out = {f"{m}.{f}.s": secs[f"{m}.{f}"] for m, f in TRACED}
        out["kernels.gram_matrix.calls"] = calls["kernels.gram_matrix"]
        out["kpca.fit_kpca.calls"] = calls["kpca.fit_kpca"]
        out["metrics.kmeans.calls"] = calls["metrics.kmeans"]

        def spans_of(name):
            return [i for i, sp in enumerate(self.spans) if sp[0] == name]

        load = spans_of("data.load_matrix")
        load_s = sum(self.spans[i][2] - self.spans[i][1] for i in load)
        load_mb = sum(self.spans[i][4]["bytes"] for i in load) / 1e6
        out["data.load_matrix.mb_per_s"] = load_mb / load_s if load else 0.0

        passes = spans_of("kernels.sigma_heuristic") + spans_of("kernels.gram_matrix")
        matrices = {self.spans[i][4]["matrix"] for i in passes}
        out["kernels.pairwise_passes_per_matrix"] = len(passes) / len(matrices) if matrices else 0.0

        picks = calls["kpca.grid_search_sigma"]
        grid_fits = sum(self._within(i, "kpca.grid_search_sigma") for i in spans_of("kpca.fit_kpca"))
        out["kpca.grid_fits_per_pick"] = grid_fits / picks if picks else 0.0

        ranks = spans_of("importance.rank_features")
        rank_s = sum(self.spans[i][2] - self.spans[i][1] for i in ranks)
        features = sum(self.spans[i][4]["features"] for i in ranks)
        out["importance.rank_features.features_per_s"] = features / rank_s if ranks else 0.0
        out["importance.rank_features.gflop_computed"] = \
            sum(self.spans[i][4]["flop"] for i in ranks) / 1e9

        perms = spans_of("baselines.permutation_importance")
        permuted = sum(self.spans[i][4]["features"] for i in perms)
        builds = sum(self._within(i, "baselines.permutation_importance")
                     for i in spans_of("kernels.gram_matrix"))
        out["baselines.permutation_importance.gram_builds_per_feature"] = \
            builds / permuted if permuted else 0.0
        return out

    def top_level_self_sum(self) -> float:
        own = self.self_times()
        return sum(s for sp, s in zip(self.spans, own) if sp[3] < 0)

