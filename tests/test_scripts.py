"""Smoke tests: each script in scripts/ runs end to end on small inputs."""

import re
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.io

from kpcaig.synthetic import planted_clusters

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args, cwd, code=0):
    done = subprocess.run([sys.executable, str(SCRIPTS / name), *map(str, args)],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    assert done.returncode == code, done.stderr
    return done


def table(path):
    """The column names and rows of a CLI table, below its ``#`` header line."""
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# ")
    return lines[1].split("\t"), [line.split("\t") for line in lines[2:]]


def test_planted_demo_writes_every_table(tmp_path):
    out = tmp_path / "demo"
    stdout = run_script("planted_demo.py", out, "--seed", 1, cwd=tmp_path).stdout
    # the planted columns sit at seeded positions, so index order finds none of them
    hits = re.search(r"informative features recovered in top 10: (\d+)/10", stdout)
    assert hits and int(hits.group(1)) >= 8, stdout
    header, rows = table(out / "ranking.tsv")
    assert header == ["rank", "feature", "score", "std"] and len(rows) == 500
    top = rows[0][1]
    assert table(out / f"arrows_{top}.tsv")[0] == ["x", "y", "dx", "dy", "sample_id"]
    header, rows = table(out / "embedding.tsv")
    assert header == ["sample_id", "pc1", "pc2", "pc3"] and len(rows) == 120
    for name in ("selection_kpcaig", "selection_random", "silhouette_kpcaig",
                 "silhouette_random", "variance_split"):
        assert len(table(out / f"{name}.tsv")[1]) >= 7


def test_reproduce_benchmarks_with_baselines(tmp_path):
    data, _ = planted_clusters(30, 320, 3, 20, within_std=0.1, seed=0)
    scipy.io.savemat(tmp_path / "Glioma.mat",
                     {"X": data.matrix, "Y": (data.labels + 1).reshape(-1, 1)})
    out = tmp_path / "bench_out"
    run_script("reproduce_benchmarks.py", tmp_path, "--datasets", "Glioma",
               "--outdir", out, "--baselines", cwd=tmp_path)
    for method in ("kpcaig", "laplacian", "permute"):
        header, rows = table(out / f"Glioma_{method}.tsv")
        assert header == ["d", "acc_mean", "acc_std", "nmi_mean", "nmi_std"]
        assert [int(r[0]) for r in rows] == list(range(10, 301, 10))
        assert all(0 < float(r[1]) <= 1 for r in rows)


@pytest.mark.parametrize("entry", ["Glioma3", "Glioma=x"])
def test_reproduce_benchmarks_rejects_a_malformed_q_map(tmp_path, entry):
    done = run_script("reproduce_benchmarks.py", tmp_path, "--q-map", f"Carcinom=5,{entry}",
                      cwd=tmp_path, code=2)
    assert f"argument --q-map: {entry!r}" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("script, args", [("planted_demo.py", ["demo"]),
                                          ("reproduce_benchmarks.py", ["."])])
def test_a_negative_seed_is_a_usage_error(tmp_path, script, args):
    done = run_script(script, *args, "--seed", -1, cwd=tmp_path, code=2)
    assert "argument --seed: must be >= 0, got -1" in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "demo").exists()


@pytest.mark.parametrize("script, args", [("planted_demo.py", ["demo"]),
                                          ("reproduce_benchmarks.py", ["."])])
def test_a_non_integer_seed_is_a_usage_error(tmp_path, script, args):
    done = run_script(script, *args, "--seed", "abc", cwd=tmp_path, code=2)
    assert "argument --seed: must be an integer, got 'abc'" in done.stderr
    assert "_nonneg_int" not in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "demo").exists()
