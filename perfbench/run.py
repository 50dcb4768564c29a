#!/usr/bin/env python3
"""Seeded, output-checked benchmark for kpcaig.

Run from the repository root:

    python3 perfbench/run.py --workload rank_cli --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``rank_cli``,
``eval_protocol`` and ``permute_baseline``. A run builds the seeded inputs
SETUP_REPEATS times, runs one untimed warm-up pass, then timed passes until
``--seconds`` have passed (at least MIN_PASSES), and checks every pass's
output against independent references. With ``--trace 1`` it also runs one
traced in-process pass and reports per-layer metrics instead of the
end-to-end ones; ``trace.overhead_s`` is that pass's wall time minus the
median timed pass, or, for ``rank_cli`` whose timed passes are child
processes, minus one untraced in-process pass.

``--workload all`` runs every workload with ``--trace 0`` and then
``--trace 1``, each in its own process, and passes their output through.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the full record: environment, per-pass timings, quartiles, check messages.
Metric names and units come from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3     # setup_s takes the median input-building time of these
MIN_PASSES = 3
IMPORT_PROBES = 3     # child processes that only import kpcaig.cli
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare_environment() -> int:
    """Cap BLAS threads at nproc (before numpy is imported) and put src/ first
    on the import path; returns nproc."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(SRC))
    return nproc


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_sha():
    """HEAD commit read from .git without running git; None outside a checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(nproc):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_sha": git_sha(), "src_sha256": source_digest(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": nproc, "nproc": nproc}


def import_probe(env):
    """Seconds a fresh interpreter spends importing kpcaig.cli."""
    code = ("import time; t = time.perf_counter(); import kpcaig.cli; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    return float(done.stdout)


def attempt(workload):
    """One pass: returns a record with wall/cpu/rss, output and errors."""
    start = time.perf_counter()
    try:
        out, wall, cpu, rss = workload.measure_pass()
    except Exception as e:  # a failing pass is counted, never fatal
        return {"wall_s": time.perf_counter() - start, "cpu_s": None, "rss_mb": None,
                "output": None, "errors": [f"raised {type(e).__name__}: {e}"]}
    return {"wall_s": wall, "cpu_s": cpu, "rss_mb": rss, "output": out, "errors": []}


def in_process(workload, tracer=None):
    """One in-process pass, traced when a tracer is given."""
    start = time.perf_counter()
    try:
        if tracer is None:
            out = workload.run_in_process()
        else:
            with tracer:
                out = workload.run_in_process()
        errors = []
    except Exception as e:  # a failing pass is counted, never fatal
        out, errors = None, [f"raised {type(e).__name__}: {e}"]
    return {"wall_s": time.perf_counter() - start, "output": out, "errors": errors}


def median_or_none(values):
    """Median of the measured values; None when no pass measured one."""
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def check(workload, ref, record):
    if record["errors"]:
        return
    try:
        record["errors"] = workload.check(record["output"], ref)
    except Exception as e:  # malformed output is a failed check
        record["errors"] = [f"check raised {type(e).__name__}: {e}"]


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "count": len(values)}


def run(args, import_s, workdir):
    import workloads
    from tracing import COMPUTED, Tracer

    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    input_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl.setup()
        input_s.append(time.perf_counter() - start)
    warm = attempt(wl)
    timed = []
    start = time.perf_counter()
    while len(timed) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        timed.append(attempt(wl))
    # in-process workloads: the high-water mark of set-up and passes, taken
    # before the references are computed
    self_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    start = time.perf_counter()
    ref = wl.reference()
    reference_s = time.perf_counter() - start
    checked = [warm] + timed
    walls = [r["wall_s"] for r in timed]
    run_s = statistics.median(walls)
    if args.trace:
        # tracing overhead is the traced pass minus an untraced pass of the
        # same in-process code: the timed passes themselves, or for a
        # workload whose passes are child processes, one more pass here
        untraced = in_process(wl) if wl.child_process else None
        tracer = Tracer()
        traced = in_process(wl, tracer)
        checked += [r for r in (untraced, traced) if r is not None]
    for record in checked:
        check(wl, ref, record)

    failed = sum(bool(r["errors"]) for r in checked)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "params": wl.describe(),
        "run_s": quartiles(walls),
        "setup": {"input_s": input_s, "import_s": import_s, "warmup_s": warm["wall_s"]},
        "passes": [{k: r[k] for k in ("wall_s", "cpu_s", "rss_mb", "errors")} for r in timed],
        "fail_frac": failed / len(checked),
        "warmup_errors": warm["errors"],
        "reference_s": reference_s,
        "stored_reference": ref.get("stored") is not None,
    }
    if args.trace:
        metrics = tracer.layer_metrics()
        metrics["cli.import_s"] = (
            statistics.median(import_probe(workloads.child_env()) for _ in range(IMPORT_PROBES))
            if isinstance(wl, workloads.RankCli) else 0.0)
        metrics["proc.cpu_s"] = median_or_none(r["cpu_s"] for r in timed)
        untraced_s = untraced["wall_s"] if untraced else run_s
        metrics["trace.overhead_s"] = traced["wall_s"] - untraced_s
        record["trace"] = {"wall_s": traced["wall_s"], "untraced_s": untraced_s,
                           "errors": traced["errors"],
                           "spans": len(tracer.spans),
                           "top_level_self_s": tracer.top_level_self_sum()}
        record["computed"] = {k: metrics[k] for k in COMPUTED}
    else:
        metrics = {"run_s": run_s,
                   "setup_s": statistics.median(input_s) + import_s + warm["wall_s"],
                   "peak_rss_mb": (median_or_none(r["rss_mb"] for r in timed)
                                   if wl.child_process else self_rss_mb),
                   "ok_frac": 1.0 - failed / len(checked)}
    result = {"correct": failed == 0, "attempted": len(checked), "failed": failed,
              "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(trace)]).returncode
                 for name in names for trace in (0, 1)]
        return max(codes)
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (SRC / "kpcaig" / "__init__.py").is_file():
        print(f"perfbench: no kpcaig sources under {SRC}", file=sys.stderr)
        return 2
    nproc = prepare_environment()
    start = time.perf_counter()
    import kpcaig.cli
    import_s = time.perf_counter() - start
    if SRC.resolve() not in Path(kpcaig.__file__).resolve().parents:
        print(f"perfbench: kpcaig imported from {kpcaig.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = BENCH / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        record, result = run(args, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass   # another run still uses it
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(result["metrics"]):
        print(f"perfbench: metrics {sorted(set(units) ^ set(result['metrics']))} "
              "disagree with BENCHMARK.json", file=sys.stderr)
        return 2
    # a metric no pass measured (every pass failed) is reported as null
    result["metrics"] = {k: {"value": None if v is None else float(v), "unit": unit}
                         for k, unit in units.items()
                         for v in [result["metrics"][k]]}
    record["env"] = environment(nproc)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
