import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kpcaig
from kpcaig import (Dataset, KernelSpec, fit_kpca, laplacian_score, load_matrix,
                    project_training, rank_features, save_matrix, sigma_heuristic, standardize)
from kpcaig.cli import build_parser, main
from kpcaig.synthetic import planted_clusters

from generators import repeated_rows


def toy_matrix(tmp_path, n=10, p=5, seed=0):
    rng = np.random.default_rng(seed)
    path = tmp_path / "toy.tsv"
    save_matrix(Dataset.from_matrix(rng.normal(size=(n, p))), path)
    return str(path)


def planted_files(tmp_path, seed=0):
    data = planted_clusters(100, 60, 4, 8, within_std=0.1, seed=seed)
    mpath = tmp_path / "planted.tsv"
    save_matrix(data, mpath)
    lpath = tmp_path / "labels.txt"
    lpath.write_text("\n".join(str(int(v)) for v in data.labels) + "\n", encoding="utf-8")
    return str(mpath), str(lpath)


def read_table(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[1].split("\t")
    rows = [ln.split("\t") for ln in lines[2:]]
    return lines[0], header, rows


def test_rank_toy_output(tmp_path):
    out = tmp_path / "rank.tsv"
    code = main(["rank", toy_matrix(tmp_path), "-o", str(out),
                 "--sigma", "median", "--q", "2"])
    assert code == 0
    comment, header, rows = read_table(out)
    assert comment.startswith("# ")
    assert header == ["rank", "feature", "score", "std"]
    assert len(rows) == 5
    scores = [float(r[2]) for r in rows]
    assert scores == sorted(scores, reverse=True)
    assert [r[0] for r in rows] == ["1", "2", "3", "4", "5"]


def test_rank_byte_identical_reruns(tmp_path):
    src = toy_matrix(tmp_path)
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    assert main(["rank", src, "-o", str(a), "--sigma", "median"]) == 0
    assert main(["rank", src, "-o", str(b), "--sigma", "median"]) == 0
    assert a.read_bytes().replace(b"a.tsv", b"") == b.read_bytes().replace(b"b.tsv", b"")


def header_of(path):
    """The JSON object of an output's ``# {...}`` first line."""
    line = Path(path).read_text(encoding="utf-8").splitlines()[0]
    assert line.startswith("# ")
    return json.loads(line[2:])


def parser_path(*names):
    """The parsers from the top level down to a command or a command's variant."""
    parsers = [build_parser()]
    for name in names:
        sub = next(a for a in parsers[-1]._actions
                   if isinstance(a, argparse._SubParsersAction))
        parsers.append(sub.choices[name])
    return parsers


def option_dests(*names):
    """``command``, then ``variant`` where there is one, plus every option dest."""
    return {a.dest for parser in parser_path(*names) for a in parser._actions
            if a.dest != "help"}


def option_strings(*names):
    """Every option string the command or variant takes."""
    return {s for a in parser_path(*names)[-1]._actions for s in a.option_strings}


FIT_RESOLVED = {"sigma_resolved": 0.25, "q_resolved": 3}


@pytest.mark.parametrize("command, extra, resolved", [
    (["rank"], [], FIT_RESOLVED),
    (["project"], [], FIT_RESOLVED),
    (["arrows"], ["--feature", "f1"], FIT_RESOLVED),
    (["baseline", "laplacian"], [], {}),
    (["baseline", "permute"], [], {"sigma_resolved": 0.25}),
    (["curve", "selection"], ["--d-grid", "2:4:2", "--runs", "2", "--labels", "LABELS"],
     {**FIT_RESOLVED, "d_grid": [2, 4], "k": 2}),
    (["curve", "silhouette"], ["--d-grid", "2:4:2", "--k", "3"],
     {**FIT_RESOLVED, "d_grid": [2, 4], "k": 3}),
    (["curve", "variance-split"], ["--d-grid", "2:4:2", "--splits", "2"], {"d_grid": [2, 4]}),
], ids=["rank", "project", "arrows", "baseline-laplacian", "baseline-permute",
        "curve-selection", "curve-silhouette", "curve-variance-split"])
def test_header_is_the_parsed_options_plus_resolved_values(tmp_path, command, extra, resolved):
    src = toy_matrix(tmp_path, n=12)
    labels = tmp_path / "labels.txt"
    labels.write_text("0\n1\n" * 6, encoding="utf-8")
    out = tmp_path / "out.tsv"
    explicit = {"--sigma": "0.25", "--q": "3", "--seed": "5"}
    taken = {flag: value for flag, value in explicit.items()
             if flag in option_strings(*command)}
    full = [*command, *(str(labels) if a == "LABELS" else a for a in extra),
            src, "-o", str(out), *(a for item in taken.items() for a in item)]
    assert main(full) == 0
    header = header_of(out)
    # only this command's options, so a rank header has no knn or runs
    assert set(header) == option_dests(*command) | set(resolved)
    assert header == {**vars(build_parser().parse_args(full)), **resolved}
    for flag, value in taken.items():
        assert str(header[flag[2:]]) == value
    if command == ["project"]:
        sidecar = json.loads((tmp_path / "out.variance.json").read_text(encoding="utf-8"))
        assert sidecar["config"] == header


# a command line that runs, and an option its command or variant accepted without reading it
UNREAD_OPTIONS = [
    (["rank"], ["--seed", "1"]),
    (["project"], ["--seed", "1"]),
    (["arrows", "--feature", "f1"], ["--seed", "1"]),
    (["baseline", "laplacian"], ["--kernel", "poly"]),
    (["baseline", "laplacian"], ["--sigma", "0.1"]),
    (["baseline", "laplacian"], ["--degree", "3"]),
    (["baseline", "laplacian"], ["--coef0", "2"]),
    (["baseline", "laplacian"], ["--q", "3"]),
    (["baseline", "laplacian"], ["--seed", "1"]),
    (["baseline", "laplacian"], ["--n-perm", "2"]),
    (["baseline", "laplacian"], ["--metric", "gram"]),
    (["baseline", "permute"], ["--knn", "3"]),
    (["baseline", "permute"], ["--t", "0.5"]),
    (["curve", "selection", "--labels", "LABELS", "--d-grid", "2,4"], ["--splits", "2"]),
    (["curve", "silhouette", "--k", "2", "--d-grid", "2,4"], ["--runs", "2"]),
    (["curve", "silhouette", "--k", "2", "--d-grid", "2,4"], ["--splits", "2"]),
    (["curve", "variance-split", "--d-grid", "2,4"], ["--labels", "LABELS"]),
    (["curve", "variance-split", "--d-grid", "2,4"], ["--k", "2"]),
    # a valid value for --kernel, so a prefix match would make this parse
    (["curve", "variance-split", "--d-grid", "2,4"], ["--k", "rbf"]),
    (["curve", "variance-split", "--d-grid", "2,4"], ["--runs", "2"]),
    (["curve", "variance-split", "--d-grid", "2,4"], ["--ranking", "laplacian"]),
]


@pytest.mark.parametrize("argv, unread", UNREAD_OPTIONS,
                         ids=[" ".join(argv[:2] + unread) for argv, unread in UNREAD_OPTIONS])
def test_an_option_the_command_does_not_read_is_a_usage_error(tmp_path, capsys, argv, unread):
    labels = tmp_path / "labels.txt"
    labels.write_text("0\n1\n" * 5, encoding="utf-8")
    out = tmp_path / "out.tsv"
    full = [*argv, toy_matrix(tmp_path), "-o", str(out), *unread]
    assert main([str(labels) if a == "LABELS" else a for a in full]) == 2
    assert "error: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("variant", ["selection", "silhouette"])
@pytest.mark.parametrize("ranking, command, keys", [
    ("kpcaig", ["rank"], ("sigma_resolved", "q_resolved")),
    ("permute", ["baseline", "permute"], ("sigma_resolved",)),
], ids=["kpcaig", "permute"])
def test_curve_header_names_what_its_ranking_resolved(tmp_path, variant, ranking, command, keys):
    mpath, lpath = planted_files(tmp_path)
    grid = ["--sigma", "grid:1e-3,1e-2", "--q", "3"]
    ranked, curve = tmp_path / "ranked.tsv", tmp_path / "curve.tsv"
    assert main([*command, mpath, *grid, "-o", str(ranked)]) == 0
    assert main(["curve", variant, mpath, *grid, "--ranking", ranking, "--labels", lpath,
                 "--d-grid", "8,16", "-o", str(curve)]) == 0
    expected = {key: header_of(ranked)[key] for key in keys}
    assert expected["sigma_resolved"] in (1e-3, 1e-2)
    assert {key: value for key, value in header_of(curve).items()
            if key.endswith("_resolved")} == expected


@pytest.mark.parametrize("command", [["rank"], ["project"], ["arrows", "--feature", "f1"]],
                         ids=["rank", "project", "arrows"])
def test_header_records_the_reduced_q_and_warns_once(tmp_path, capsys, command):
    out = tmp_path / "out.tsv"
    assert main([*command, toy_matrix(tmp_path, n=12, p=6), "--q", "50", "-o", str(out)]) == 0
    header = header_of(out)
    assert (header["q"], header["q_resolved"]) == (50, 11)
    assert capsys.readouterr().err == ("kpcaig: warning: requested q=50 exceeds the "
                                       "numerically valid rank; reduced to q=11\n")


def test_repeated_warnings_print_once_without_a_source_location(tmp_path, capsys):
    mpath, _ = planted_files(tmp_path)
    out = tmp_path / "var.tsv"
    assert main(["curve", "variance-split", mpath, "--d-grid", "8,30", "--splits", "2",
                 "--q", "40", "-o", str(out)]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert lines and len(lines) == len(set(lines))
    assert all(line.startswith("kpcaig: warning: requested q=40") for line in lines)


def test_project_embedding_and_sidecar(tmp_path):
    out = tmp_path / "emb.tsv"
    code = main(["project", toy_matrix(tmp_path), "-o", str(out), "--q", "3"])
    assert code == 0
    _, header, rows = read_table(out)
    assert header == ["sample_id", "pc1", "pc2", "pc3"]
    assert len(rows) == 10
    sidecar = json.loads((tmp_path / "emb.variance.json").read_text(encoding="utf-8"))
    assert sidecar["q"] == 3
    assert len(sidecar["explained_variance"]) == 3
    assert sum(sidecar["explained_variance"]) <= 1.0


def test_arrows_output(tmp_path):
    out = tmp_path / "arrows.tsv"
    code = main(["arrows", toy_matrix(tmp_path), "-o", str(out),
                 "--feature", "f2", "--scale", "0.5", "--q", "2"])
    assert code == 0
    _, header, rows = read_table(out)
    assert header == ["x", "y", "dx", "dy", "sample_id"]
    assert len(rows) == 10
    assert rows[0][4] == "s0"


def test_baseline_outputs(tmp_path):
    src = toy_matrix(tmp_path)
    lap = tmp_path / "lap.tsv"
    assert main(["baseline", "laplacian", src, "-o", str(lap), "--knn", "3"]) == 0
    _, header, rows = read_table(lap)
    assert header == ["rank", "feature", "score"] and len(rows) == 5
    perm = tmp_path / "perm.tsv"
    assert main(["baseline", "permute", src, "-o", str(perm),
                 "--n-perm", "2", "--q", "2"]) == 0
    _, header, rows = read_table(perm)
    assert len(rows) == 5


def per_cell_table(header, rows):
    """Table lines as the writer built them one cell at a time, before it
    formatted whole tolist() columns."""
    def fmt(v):
        if v is None:
            return ""
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        return str(v)
    return ["\t".join(header)] + ["\t".join(fmt(v) for v in row) for row in rows]


def test_writer_matches_per_cell_formatting(tmp_path):
    rng = np.random.default_rng(4)
    X = rng.normal(size=(12, 7)) * 10.0 ** rng.uniform(-8, 8, size=7)
    X[:, 3] = 2.0                     # the Laplacian scores it +inf
    path = tmp_path / "fixture.tsv"
    save_matrix(Dataset.from_matrix(X), path)
    data = standardize(load_matrix(path))
    model = fit_kpca(data, KernelSpec("rbf", sigma=sigma_heuristic(data)), 3)
    ranking = rank_features(model)
    lap = laplacian_score(data, k_nn=3)
    names = data.feature_names
    expected = {
        "rank": per_cell_table(("rank", "feature", "score", "std"), [
            (r + 1, names[j], ranking.scores[j], ranking.stds[j])
            for r, j in enumerate(ranking.order)]),
        "baseline": per_cell_table(("rank", "feature", "score"), [
            (r + 1, names[j], lap.scores[j]) for r, j in enumerate(lap.order)]),
        "project": per_cell_table(("sample_id", "pc1", "pc2", "pc3"), [
            (sid,) + tuple(row)
            for sid, row in zip(data.sample_ids, project_training(model))]),
    }
    for command, argv in (("rank", ["rank", "--q", "3"]),
                          ("baseline", ["baseline", "laplacian", "--knn", "3"]),
                          ("project", ["project", "--q", "3"])):
        out = tmp_path / f"{command}.tsv"
        assert main(argv + [str(path), "-o", str(out)]) == 0
        assert out.read_text(encoding="utf-8").split("\n")[1:] == expected[command] + [""]
    assert "inf" in expected["baseline"][-1]


def test_curve_selection_planted_dominates_random(tmp_path):
    mpath, lpath = planted_files(tmp_path)
    got = {}
    for ranking in ("kpcaig", "random"):
        out = tmp_path / f"{ranking}.tsv"
        code = main(["curve", "selection", mpath, "--labels", lpath,
                     "--ranking", ranking, "--d-grid", "8,16", "--runs", "8",
                     "--q", "3", "-o", str(out), "--seed", "11"])
        assert code == 0
        _, header, rows = read_table(out)
        assert header == ["d", "acc_mean", "acc_std", "nmi_mean", "nmi_std"]
        got[ranking] = float(rows[0][1])  # ACC at d=8
    assert got["kpcaig"] > got["random"]


def test_curve_silhouette_and_variance(tmp_path):
    mpath, _ = planted_files(tmp_path, seed=1)
    out = tmp_path / "sil.tsv"
    assert main(["curve", "silhouette", mpath, "--k", "4", "--d-grid", "8,30",
                 "-o", str(out), "--q", "2"]) == 0
    _, header, rows = read_table(out)
    assert header == ["d", "silhouette"] and len(rows) == 2
    for r in rows:
        assert -1.0 <= float(r[1]) <= 1.0
    out2 = tmp_path / "var.tsv"
    assert main(["curve", "variance-split", mpath, "--d-grid", "8,30",
                 "--splits", "2", "-o", str(out2), "--q", "2"]) == 0
    _, header, rows = read_table(out2)
    assert header == ["split", "d", "var_train", "var_test"]
    assert len(rows) == 4
    for r in rows:
        assert 0.0 < float(r[2]) <= 1.0 and 0.0 < float(r[3]) <= 1.0


def test_exit_codes(tmp_path):
    src = toy_matrix(tmp_path)
    assert main(["rank", src, "--nonsense-flag"]) == 2        # usage
    assert main(["rank", src, "--q", "0"]) == 3               # invalid config
    assert main(["rank", str(tmp_path / "missing.tsv")]) == 4  # I/O failure
    bad = tmp_path / "bad.csv"
    bad.write_text("id,f1\ns1,NA\n", encoding="utf-8")
    assert main(["rank", str(bad)]) == 4                      # parse error
    assert main(["curve", "selection", src, "--d-grid", "2,4"]) == 3  # no labels
    assert main(["bench"]) == 2                               # no such command
    assert main(["rank", src, "--sigma", "abc"]) == 3
    assert main(["rank", src, "--sigma", "grid:1e-3,x"]) == 3
    assert main(["curve", "selection", src, "--k", "2", "--d-grid", "1:x:1"]) == 3


def test_laplacian_underflow_exits_3_naming_t_and_the_sample(tmp_path, capsys):
    a, b = np.random.default_rng(3).normal(size=(5, 4))[:2]
    path = tmp_path / "aaaab.tsv"
    save_matrix(Dataset.from_matrix(np.array([a, a, a, a, b])), path)
    out = tmp_path / "lap.tsv"
    assert main(["baseline", "laplacian", str(path), "--no-standardize", "--knn", "1",
                 "--t", "0.25", "-o", str(out)]) == 3
    err = capsys.readouterr().err
    assert "t=0.25 is too small for sample 's4'" in err
    assert not out.exists()


def test_tiny_sigma_exits_3_naming_the_bandwidth(tmp_path, capsys):
    out = tmp_path / "rank.tsv"
    assert main(["rank", toy_matrix(tmp_path), "--sigma", "1e-20", "-o", str(out)]) == 3
    assert "rbf bandwidth sigma=1e-20 is too small" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, sigma", [(["rank"], "1e-18"),
                                            (["baseline", "permute"], "1e-20")])
def test_noise_level_kernel_exits_3(tmp_path, capsys, command, sigma):
    # the centred Gram's eigenvalues are at its rounding level, so any ranking is noise
    mpath, _ = planted_files(tmp_path)
    out = tmp_path / "out.tsv"
    assert main([*command, mpath, "--sigma", sigma, "-o", str(out)]) == 3
    assert f"rbf bandwidth sigma={sigma} is too small" in capsys.readouterr().err
    assert not out.exists()


def test_permute_q_above_numerical_rank_exits_3(tmp_path, capsys):
    # the centred Gram has rank 2, so a third eigenvector would be rounding noise
    path = tmp_path / "repeated.tsv"
    save_matrix(repeated_rows(), path)
    out = tmp_path / "perm.tsv"
    assert main(["baseline", "permute", str(path), "--q", "3", "-o", str(out)]) == 3
    assert "q=3 exceeds the numerical rank" in capsys.readouterr().err
    assert not out.exists()
    assert main(["baseline", "permute", str(path), "--q", "2", "-o", str(out)]) == 0
    _, _, rows = read_table(out)
    assert len(rows) == 6


@pytest.mark.parametrize("metric", ["subspace", "gram"])
def test_identity_gram_permute_exits_3_naming_the_bandwidth(tmp_path, capsys, metric):
    # at sigma = 1e3 every off-diagonal kernel value underflows to 0: K = I exactly
    mpath, _ = planted_files(tmp_path)
    out = tmp_path / "perm.tsv"
    for q in ("1", "2", "3"):
        assert main(["baseline", "permute", mpath, "--sigma", "1e3", "--q", q,
                     "--metric", metric, "-o", str(out)]) == 3
        assert "rbf bandwidth sigma=1000.0 is too large" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [
    (["rank"], []),
    (["arrows"], ["--feature", "f1"]),
    (["curve", "selection"], ["--d-grid", "5,10", "--runs", "2"]),
])
def test_identity_gram_ranking_exits_3_naming_the_bandwidth(tmp_path, capsys, command, extra):
    # at sigma = 1e3 K = I exactly: the fit is valid, but its gradients are all zero
    mpath, lpath = planted_files(tmp_path)
    labels = ["--labels", lpath] if command[0] == "curve" else []
    out = tmp_path / "out.tsv"
    assert main([*command, mpath, "--sigma", "1e3", *labels, *extra, "-o", str(out)]) == 3
    assert "rbf bandwidth sigma=1000.0 is too large" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["rank", "--kernel", "poly", "--coef0", "nan"], "coef0 must be finite, got nan"),
    (["arrows", "--feature", "f1", "--scale", "nan"], "scale must be finite and >= 0, got nan"),
    (["arrows", "--feature", "f1", "--scale", "inf"], "scale must be finite and >= 0, got inf"),
    (["baseline", "laplacian", "--t", "nan"], "t must be finite and > 0, got nan"),
    # a header records coef0 wherever it is an option, whatever the kernel, and NaN is not JSON
    (["rank", "--coef0", "nan"], "coef0 must be finite, got nan"),
    (["rank", "--kernel", "linear", "--coef0", "inf"], "coef0 must be finite, got inf"),
    (["project", "--coef0", "nan"], "coef0 must be finite, got nan"),
    (["arrows", "--feature", "f1", "--coef0", "nan"], "coef0 must be finite, got nan"),
    (["baseline", "permute", "--coef0", "nan"], "coef0 must be finite, got nan"),
    (["curve", "selection", "--k", "2", "--d-grid", "2", "--coef0", "nan"],
     "coef0 must be finite, got nan"),
    (["curve", "silhouette", "--k", "2", "--d-grid", "2", "--coef0", "nan"],
     "coef0 must be finite, got nan"),
    (["curve", "variance-split", "--d-grid", "2", "--coef0", "nan"],
     "coef0 must be finite, got nan"),
    (["arrows", "--feature", "99"], "feature index 99 out of range for p=5"),
    (["arrows", "--feature", "-1"], "feature index -1 out of range for p=5"),
    # arrow_field checks q before it reads the feature index
    (["arrows", "--feature", "99", "--q", "1"],
     "arrow field needs q >= 2 retained components, got q=1"),
])
def test_non_finite_option_exits_3_naming_it(tmp_path, capsys, argv, message):
    out = tmp_path / "out.tsv"
    assert main([*argv, toy_matrix(tmp_path), "-o", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["inf", "grid:1e-3,inf"])
def test_non_finite_sigma_rejected(tmp_path, sigma):
    out = tmp_path / "rank.tsv"
    assert main(["rank", toy_matrix(tmp_path), "--sigma", sigma, "-o", str(out)]) == 3
    assert not out.exists()


def test_orientation_and_no_standardize(tmp_path):
    rng = np.random.default_rng(2)
    data = Dataset.from_matrix(rng.normal(size=(6, 4)))
    rows_path = tmp_path / "rows.tsv"
    save_matrix(data, rows_path)
    # features-as-rows variant of the same table
    cols_path = tmp_path / "cols.tsv"
    lines = ["id\t" + "\t".join(data.sample_ids)]
    for j, name in enumerate(data.feature_names):
        lines.append(name + "\t" + "\t".join(repr(float(v)) for v in data.matrix[:, j]))
    cols_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out_a, out_b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    assert main(["rank", str(rows_path), "-o", str(out_a), "--sigma", "0.3",
                 "--no-standardize"]) == 0
    assert main(["rank", str(cols_path), "-o", str(out_b), "--sigma", "0.3",
                 "--orientation", "cols", "--no-standardize"]) == 0
    a_lines = out_a.read_text().splitlines()[1:]
    b_lines = out_b.read_text().splitlines()[1:]
    assert a_lines == b_lines


def run_python(code, *args):
    """``code`` run with ``args`` by a fresh interpreter that imports this checkout's kpcaig."""
    src = str(Path(kpcaig.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env)


def test_cli_import_skips_scipy_optimize():
    # every CLI run pays for what importing kpcaig.cli loads; scipy alone costs
    # about 0.4 s and starts a second BLAS thread pool
    proc = run_python("import sys, kpcaig.cli; "
                      "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


NO_SCIPY = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} imported by a command that must not load scipy")

sys.meta_path.insert(0, NoScipy())
from kpcaig.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"{argv[:2]} failed")
"""


def test_commands_run_without_scipy(tmp_path):
    mpath, _ = planted_files(tmp_path)
    out = str(tmp_path / "out.tsv")
    commands = [
        ["rank", mpath, "-o", out],
        ["project", mpath, "-o", out, "--q", "2"],
        ["arrows", mpath, "-o", out, "--feature", "f1"],
        ["baseline", "laplacian", mpath, "-o", out],
        ["curve", "variance-split", mpath, "--d-grid", "8,30", "--splits", "2", "-o", out],
    ]
    proc = run_python(NO_SCIPY, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
