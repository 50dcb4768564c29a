"""The package names that the benchmark under ``perfbench/`` relies on."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_function_resolves():
    # perfbench --trace rebinds these names; a missing one breaks every traced run
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, function in tracing.TRACED:
        assert callable(getattr(importlib.import_module(f"kpcaig.{module}"), function, None)), \
            f"kpcaig.{module}.{function}"
