"""Self-tests of the benchmark: oracle agreement, failure counting, tracing.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import kpcaig  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from inputs import planted_clusters, write_tsv  # noqa: E402
from tracing import Tracer  # noqa: E402


class SmallEval(workloads.EvalProtocol):
    name = "small_eval"   # no stored reference values
    n, p, n_informative = 60, 300, 40
    SELECTION_D = (10, 20)
    SILHOUETTE_D = (5, 15)
    VARIANCE_D = (5, 15)
    SPLITS = 2
    RUNS = 2


class SmallPermute(workloads.PermuteBaseline):
    n, p, n_informative = 30, 24, 6


@pytest.fixture
def small_data():
    X, _, _ = planted_clusters(40, 30, 8, seed=3)
    return kpcaig.standardize(kpcaig.Dataset.from_matrix(X))


@pytest.mark.parametrize("kernel", [("rbf", None), ("linear",), ("polynomial", 2, 1.0)])
def test_oracle_matches_kpcaig(small_data, kernel):
    Xs = small_data.matrix
    if kernel[0] == "rbf":
        kernel = ("rbf", oracle.median_sigma(oracle.sq_dists(Xs)))
        spec = kpcaig.KernelSpec("rbf", sigma=kernel[1])
    elif kernel[0] == "linear":
        spec = kpcaig.KernelSpec("linear")
    else:
        spec = kpcaig.KernelSpec("polynomial", degree=2, coef0=1.0)
    ranking = kpcaig.rank_features(kpcaig.fit_kpca(small_data, spec, 3))
    scores, stds, order = oracle.rank(Xs, kernel, 3)
    assert oracle.ranking_errors(ranking.order, ranking.scores, order, scores) == []
    assert oracle.close(ranking.stds, stds, oracle.RANK_RTOL, atol=1e-12 * scores.max())


def test_oracle_matches_kpcaig_sigma_and_laplacian(small_data):
    Xs = small_data.matrix
    sigma = oracle.median_sigma(oracle.sq_dists(Xs))
    assert oracle.close(kpcaig.sigma_heuristic(small_data), sigma, 1e-13)
    assert oracle.close(kpcaig.laplacian_score(small_data).scores, oracle.laplacian(Xs),
                        oracle.VALUE_RTOL)


def test_inputs_are_seeded_and_not_index_ordered():
    X1, y1, inf1 = planted_clusters(40, 500, 30, seed=5)
    X2, y2, inf2 = planted_clusters(40, 500, 30, seed=5)
    X3, _, inf3 = planted_clusters(40, 500, 30, seed=6)
    assert np.array_equal(X1, X2) and np.array_equal(y1, y2) and np.array_equal(inf1, inf2)
    assert not np.array_equal(X1, X3)
    assert set(inf1.tolist()) != set(range(30)) and set(inf1.tolist()) != set(inf3.tolist())


def test_tsv_round_trips_bits(tmp_path):
    X, _, _ = planted_clusters(5, 7, 2, seed=1)
    write_tsv(tmp_path / "x.tsv", X)
    assert np.array_equal(kpcaig.load_matrix(tmp_path / "x.tsv").matrix, X)


def _rank_file(tmp_path):
    X, _, _ = planted_clusters(30, 40, 8, seed=2)
    write_tsv(tmp_path / "x.tsv", X)
    out = tmp_path / "rank.tsv"
    assert kpcaig.cli.main(["rank", str(tmp_path / "x.tsv"), "--q", "3", "-o", str(out)]) == 0
    Xs = oracle.standardize(X)
    sigma = oracle.median_sigma(oracle.sq_dists(Xs))
    scores, stds, order = oracle.rank(Xs, ("rbf", sigma), 3)
    ref = {"sigma": sigma, "scores": scores, "stds": stds, "order": order}
    return out.read_text().splitlines(keepends=True), ref


def test_rank_file_swapped_pair_and_perturbed_score_fail(tmp_path):
    lines, ref = _rank_file(tmp_path)
    assert workloads.ranking_file_errors("".join(lines), ref) == []

    swapped = list(lines)
    a, b = swapped[2].split("\t"), swapped[3].split("\t")
    a[1], b[1] = b[1], a[1]
    swapped[2], swapped[3] = "\t".join(a), "\t".join(b)
    assert any("order" in e for e in workloads.ranking_file_errors("".join(swapped), ref))

    perturbed = list(lines)
    row = perturbed[5].split("\t")
    row[2] = repr(float(row[2]) * (1 + 1e-9))
    perturbed[5] = "\t".join(row)
    assert any("scores" in e for e in workloads.ranking_file_errors("".join(perturbed), ref))


def test_failed_checks_are_counted_not_raised(tmp_path):
    wl = SmallEval(1, tmp_path)
    wl.setup()
    out = wl.run_pass()
    ref = wl.reference()
    assert wl.check(out, ref) == []

    swapped = dict(out, order=out["order"].copy())
    swapped["order"][[0, 1]] = swapped["order"][[1, 0]]
    perturbed = dict(out, scores=out["scores"].copy())
    perturbed["scores"][3] *= 1 + 10 * ref["rank_rtol"]
    records = [{"errors": [], "output": o} for o in (out, swapped, perturbed)]
    records.append({"errors": [], "output": None})   # malformed output
    for record in records:
        run.check(wl, ref, record)
    assert [bool(r["errors"]) for r in records] == [False, True, True, True]


def test_permutation_scores_checked(tmp_path):
    wl = SmallPermute(4, tmp_path)
    wl.setup()
    out = wl.run_pass()
    ref = wl.reference()
    assert wl.check(out, ref) == []
    bad = dict(out, scores=out["scores"].copy())
    bad["scores"][ref["sample"][0]] *= 1 + 1e-6
    assert wl.check(bad, ref) != []


def test_traced_self_times_fit_within_wall(tmp_path):
    wl = SmallEval(2, tmp_path)
    wl.setup()
    original = kpcaig.curves.fit_kpca
    tracer = Tracer()
    start = time.perf_counter()
    with tracer:
        assert kpcaig.curves.fit_kpca is not original
        out = wl.run_in_process()
    wall = time.perf_counter() - start
    assert kpcaig.curves.fit_kpca is original
    assert wl.check(out, wl.reference()) == []
    own = tracer.self_times()
    assert min(own) >= 0.0
    assert tracer.top_level_self_sum() <= wall
    metrics = tracer.layer_metrics()
    assert metrics["kpca.grid_fits_per_pick"] == len(wl.GRID)
    assert metrics["metrics.kmeans.calls"] == wl.RUNS * len(wl.SELECTION_D) + 5 * len(wl.SILHOUETTE_D)


class BrokenChildWorkload(SmallPermute):
    """A child-process workload whose every pass raises."""
    name = "broken"
    child_process = True

    def measure_pass(self):
        raise RuntimeError("child did not start")

    run_in_process = measure_pass


@pytest.mark.parametrize("trace", [0, 1])
def test_all_passes_failing_is_counted_not_substituted(tmp_path, monkeypatch, trace):
    monkeypatch.setitem(workloads.WORKLOADS, "broken", BrokenChildWorkload)
    args = run.parse_args(["--workload", "broken", "--seed", "1", "--seconds", "0",
                           "--trace", str(trace)])
    _, result = run.run(args, 0.0, tmp_path)
    assert not result["correct"] and result["failed"] == result["attempted"]
    unmeasured = "proc.cpu_s" if trace else "peak_rss_mb"
    assert result["metrics"][unmeasured] is None
