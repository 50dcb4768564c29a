#!/usr/bin/env python3
"""Regenerate reference.json: eval_protocol values that have no cheap oracle.

ACC/NMI (k-means labels), silhouette values and the grid pick are stored
per seed after the pass has passed every oracle check. Run from the
repository root:

    python3 perfbench/make_reference.py 0 60

which stores seeds 0..59. Seeds not in the file are still checked against
the oracles and the value ranges, but not against stored values.
"""

import json
import sys

import run


def main(first: int, stop: int) -> int:
    import workloads
    path = workloads.REFERENCE_FILE
    table = json.loads(path.read_text()) if path.is_file() else {}
    entries = table.setdefault(workloads.EvalProtocol.name, {})
    for seed in range(first, stop):
        wl = workloads.EvalProtocol(seed, None)
        wl.setup()
        out = wl.run_pass()
        ref = wl.reference()
        ref["stored"] = None
        errors = wl.check(out, ref)
        if errors:
            print(f"seed {seed}: not stored, {errors}", file=sys.stderr)
            return 1
        entries[str(seed)] = {k: _round(v) for k, v in workloads.stored_values(out).items()}
        print(f"seed {seed}: stored", file=sys.stderr)
    table[workloads.EvalProtocol.name] = dict(sorted(entries.items(), key=lambda kv: int(kv[0])))
    path.write_text(_dump(table))
    return 0


def _dump(table) -> str:
    """JSON with one seed per line."""
    blocks = []
    for name, seeds in table.items():
        rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in seeds.items())
        blocks.append(f"{json.dumps(name)}: {{\n{rows}\n}}")
    return "{" + ",\n".join(blocks) + "}\n"


def _round(v):
    # 12 significant digits, compared with STORED_RTOL
    return float(f"{v:.12g}") if isinstance(v, float) else [_round(x) for x in v]


if __name__ == "__main__":
    run.prepare_environment()
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))
