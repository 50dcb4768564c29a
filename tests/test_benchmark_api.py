"""The package names that the benchmark under ``perfbench/`` relies on.

perfbench's own tests are not collected with these (``testpaths``), so a
rename that breaks one of its calls would pass here unless these tests run
its workloads: they import perfbench's modules as they are and run one small
pass of each in-memory workload.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def test_every_traced_function_resolves():
    # perfbench --trace rebinds these names; a missing one breaks every traced run
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, function in tracing.TRACED:
        assert callable(getattr(importlib.import_module(f"kpcaig.{module}"), function, None)), \
            f"kpcaig.{module}.{function}"


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's workloads and tracing modules, imported from its directory."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads"), importlib.import_module("tracing")


def test_a_small_eval_protocol_pass_checks_clean_and_fits_each_grid_value_once(
        perfbench, tmp_path):
    workloads, tracing = perfbench

    class SmallEval(workloads.EvalProtocol):
        name = "tier1_eval"   # no stored reference values
        n, p, n_informative = 60, 300, 40
        SELECTION_D = (10, 20)
        SILHOUETTE_D = (5, 15)
        VARIANCE_D = (5, 15)
        SPLITS = 2
        RUNS = 2

    wl = SmallEval(1, tmp_path)
    wl.setup()
    tracer = tracing.Tracer()
    with tracer:
        out = wl.run_in_process()
    assert wl.check(out, wl.reference()) == []
    assert tracer.layer_metrics()["kpca.grid_fits_per_pick"] == len(wl.GRID)


def test_a_small_permute_baseline_pass_checks_clean(perfbench, tmp_path):
    workloads, _ = perfbench

    class SmallPermute(workloads.PermuteBaseline):
        name = "tier1_permute"   # no stored reference values
        n, p, n_informative = 30, 24, 6

    wl = SmallPermute(4, tmp_path)
    wl.setup()
    assert wl.check(wl.run_pass(), wl.reference()) == []
