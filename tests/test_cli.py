import argparse
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import kpcaig
from kpcaig import (Dataset, KernelSpec, center_gram, explained_variance, fit_kpca, gram_matrix,
                    laplacian_score, load_labels, load_matrix, project_training, rank_features,
                    save_matrix, selection_curve, sigma_heuristic, standardize)
from kpcaig import baselines as baselines_module
from kpcaig import curves as curves_module
from kpcaig import data as data_module
from kpcaig import metrics as metrics_module
from kpcaig.cli import build_parser, main
from kpcaig.kpca import eigengap
from kpcaig.synthetic import planted_clusters

from generators import (OCTAHEDRON, OVERFLOWS_WHEN_CENTRED, OVERFLOWS_WHEN_PERMUTED, SQUARE,
                        repeated_rows)


def toy_matrix(tmp_path, n=10, p=5, seed=0):
    rng = np.random.default_rng(seed)
    path = tmp_path / "toy.tsv"
    save_matrix(Dataset.from_matrix(rng.normal(size=(n, p))), path)
    return str(path)


def planted_files(tmp_path, seed=0):
    data, _ = planted_clusters(100, 60, 4, 8, within_std=0.1, seed=seed)
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


def readme_blocks(language):
    """The text of each of README's fenced blocks in ``language``."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)


def readme_command_lines():
    """README's ``kpcaig ...`` example lines."""
    return [line for block in readme_blocks("bash") for line in block.splitlines()
            if line.startswith("kpcaig ")]


def test_readme_command_lines_parse(capsys):
    lines = readme_command_lines()
    assert len(lines) >= 10
    for line in lines:
        try:
            build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}\n{capsys.readouterr().err}")


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    # expr.tsv has enough features for the default --d-grid 10:300:10 and the
    # feature that the arrows line names
    data, _ = planted_clusters(60, 320, 3, 10, seed=0)
    names = ("TTC36",) + data.feature_names[1:]
    save_matrix(Dataset(data.matrix, names, data.sample_ids), tmp_path / "expr.tsv")
    (tmp_path / "y.txt").write_text("\n".join(map(str, data.labels.tolist())) + "\n",
                                    encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for line in readme_command_lines():
        assert main(shlex.split(line)[1:]) == 0, f"{line}\n{capsys.readouterr().err}"


def test_readme_library_example_runs(tmp_path):
    (code,) = readme_blocks("python")
    np.savetxt(tmp_path / "matrix.txt", np.random.default_rng(0).normal(size=(20, 8)))
    proc = run_python(code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    names = [line.split()[0] for line in proc.stdout.splitlines()]
    assert sorted(names) == [f"f{j}" for j in range(8)]


FIT_RESOLVED = {"sigma_resolved": 0.25, "q_resolved": 3}


@pytest.mark.parametrize("command, extra, resolved", [
    (["rank"], [], FIT_RESOLVED),
    (["project"], [], FIT_RESOLVED),
    (["arrows"], ["--feature", "f1"], FIT_RESOLVED),
    (["baseline", "laplacian"], [], {}),
    (["baseline", "permute"], [], FIT_RESOLVED),
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
    model = fit_kpca(standardize(load_matrix(src)), KernelSpec("rbf", sigma=0.25), 3)
    if "q_resolved" in resolved:
        gap, bound = eigengap(model)
        resolved = {**resolved, "eigengap": gap, "eigengap_bound": bound}
    if command == ["project"]:
        resolved = {**resolved, "eigenvalues": model.eigvals.tolist(),
                    "explained_variance": explained_variance(model).tolist()}
    # only this command's options, so a rank header has no knn or runs
    assert set(header) == option_dests(*command) | set(resolved)
    assert header == {**vars(build_parser().parse_args(full)), **resolved}
    for flag, value in taken.items():
        assert str(header[flag[2:]]) == value


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
    full = [str(labels) if a == "LABELS" else a
            for a in [*argv, toy_matrix(tmp_path), "-o", str(out), *unread]]
    assert main(full) == 2
    err = capsys.readouterr().err
    # the usage line of the command or variant, which lists the options it does take
    command = " ".join(itertools.takewhile(lambda a: not a.startswith("-"), argv))
    assert err.startswith(f"usage: kpcaig {command} [-h]")
    unrecognized = " ".join(full[-len(unread):])
    assert err.endswith(f"kpcaig {command}: error: unrecognized arguments: {unrecognized}\n")
    assert not out.exists()


# the command line up to the input file, with an option before the command or variant word
@pytest.mark.parametrize("before", [
    ["--seed", "1", "rank"],
    ["--no-standardize", "rank"],
    ["curve", "--seed", "1", "selection", "--labels", "LABELS"],
    ["baseline", "--knn", "3", "laplacian"],
    # an option the variant takes
    ["curve", "--no-standardize", "variance-split"],
])
def test_an_option_before_the_command_is_named_as_such(tmp_path, capsys, before):
    labels = tmp_path / "labels.txt"
    labels.write_text("0\n1\n" * 5, encoding="utf-8")
    out = tmp_path / "out.tsv"
    argv = [str(labels) if a == "LABELS" else a for a in before]
    assert main([*argv, toy_matrix(tmp_path), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    # the parser that refused it: the root, or the command whose variant it precedes
    prog = " ".join(["kpcaig", *itertools.takewhile(lambda a: not a.startswith("-"), before)])
    word = "command" if prog == "kpcaig" else "variant"
    option = next(a for a in before if a.startswith("-"))
    assert err.startswith(f"usage: {prog} [-h]")
    assert err.endswith(f"{prog}: error: option {option} goes after the {word}\n")
    assert not out.exists()


def test_a_non_integer_seed_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "out.tsv"
    assert main(["baseline", "permute", toy_matrix(tmp_path), "--seed", "abc",
                 "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.endswith("kpcaig baseline permute: error: argument --seed: "
                        "must be an integer, got 'abc'\n")
    assert "_nonneg_int" not in err and "Traceback" not in err
    assert not out.exists()


# every command and variant, with the options it needs to run on the toy matrix
LEAVES = [
    (["rank"], []),
    (["project"], []),
    (["arrows"], ["--feature", "f1"]),
    (["baseline", "laplacian"], []),
    (["baseline", "permute"], []),
    (["curve", "selection"], ["--d-grid", "2:4:2", "--runs", "2", "--labels", "LABELS"]),
    (["curve", "silhouette"], ["--d-grid", "2:4:2", "--k", "3"]),
    (["curve", "variance-split"], ["--d-grid", "2:4:2", "--splits", "2"]),
]


@pytest.mark.parametrize("command, extra", LEAVES, ids=[" ".join(c) for c, _ in LEAVES])
def test_stdout_is_the_output_file(tmp_path, capsys, command, extra):
    labels = tmp_path / "labels.txt"
    labels.write_text("0\n1\n" * 6, encoding="utf-8")
    argv = [*command, *(str(labels) if a == "LABELS" else a for a in extra),
            toy_matrix(tmp_path, n=12)]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out.tsv"
    assert main([*argv, "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    # the same bytes, but for the header's record of -o
    assert '"output": null' in printed
    assert printed.replace('"output": null', f'"output": {json.dumps(str(out))}') == \
        out.read_text(encoding="utf-8")


def usage_options(capsys, *leaf):
    """The options and positionals on a command's or variant's usage line, -h aside."""
    assert main([*leaf, "-h"]) == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    words = usage.replace("[", " ").replace("]", " ").split()[2 + len(leaf):]
    return {w for w in words if w != "-h" and re.fullmatch(r"-{1,2}[a-z][\w-]*|[a-z][\w-]*", w)}


def test_readme_option_table_matches_the_parsers(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    groups = {name: re.findall(r"`([^`]+)`", items) for name, items
              in re.findall(r"^The (\w+) group is (.*)\.$", readme, re.MULTILINE)}
    assert set(groups) == {"input", "kernel"}
    table = readme.split("| command | options besides the input group |\n|---|---|\n")[1]
    rows = {}
    for line in itertools.takewhile(lambda ln: ln.startswith("|"), table.splitlines()):
        commands, options = line.strip("|").split("|")
        expanded = set(groups["input"])
        for item in options.strip().split(", "):
            expanded |= set(groups["kernel"]) if item == "kernel group" else {item.strip("`")}
        for command in re.findall(r"`([^`]+)`", commands):
            rows[command] = expanded
    assert set(rows) == {" ".join(command) for command, _ in LEAVES}
    for command, options in rows.items():
        assert usage_options(capsys, *command.split()) == options, command


@pytest.mark.parametrize("variant", ["selection", "silhouette"])
@pytest.mark.parametrize("ranking, command", [
    ("kpcaig", ["rank"]),
    ("permute", ["baseline", "permute"]),
], ids=["kpcaig", "permute"])
def test_curve_header_names_what_its_ranking_resolved(tmp_path, variant, ranking, command):
    mpath, lpath = planted_files(tmp_path)
    grid = ["--sigma", "grid:1e-3,1e-2", "--q", "3"]
    ranked, curve = tmp_path / "ranked.tsv", tmp_path / "curve.tsv"
    assert main([*command, mpath, *grid, "-o", str(ranked)]) == 0
    assert main(["curve", variant, mpath, *grid, "--ranking", ranking, "--labels", lpath,
                 "--d-grid", "8,16", "-o", str(curve)]) == 0
    # both rankings read a fit, whose sigma and q they resolve
    expected = {key: header_of(ranked)[key] for key in ("sigma_resolved", "q_resolved")}
    assert expected["sigma_resolved"] in (1e-3, 1e-2)
    assert {key: value for key, value in header_of(curve).items()
            if key.endswith("_resolved")} == expected


def test_a_tie_at_the_cut_exits_3_and_a_tie_inside_the_top_q_ranks(tmp_path, capsys):
    src = str(tmp_path / "square.tsv")
    save_matrix(Dataset.from_matrix(SQUARE), src)
    assert main(["rank", src, "--q", "1"]) == 3
    err = capsys.readouterr().err
    # the gap itself is a rounding residue, so only its place in the message is fixed
    assert err.startswith("kpcaig: eigenvalues mu_1..mu_2 of the centred Gram are tied "
                          "(0.864664716763387, 0.864664716763387): the gap at q=1, ")
    assert err.endswith(", so the top q=1 axes are not determined; "
                        "the nearest q whose gap clears it is q=2\n")
    out = tmp_path / "rank.tsv"
    assert main(["rank", src, "--q", "2", "-o", str(out)]) == 0
    # any eigenbasis of the tied pair gives both features this score
    assert {row[1]: float(row[2]) for row in read_table(out)[2]} == \
        pytest.approx({"f0": 0.270582357221954, "f1": 0.270582357221954}, rel=1e-12)
    # project still embeds at q=1, and its header holds the gap
    assert main(["project", src, "--q", "1", "-o", str(out)]) == 0
    header = header_of(out)
    assert header["eigengap"] < header["eigengap_bound"]


def test_project_and_arrows_warn_of_tied_axes_and_still_write_their_tables(tmp_path, capsys):
    src = str(tmp_path / "square.tsv")
    save_matrix(Dataset.from_matrix(SQUARE), src)
    assert main(["rank", src, "--q", "1"]) == 3
    refusal = capsys.readouterr().err.removeprefix("kpcaig: ")
    inside = ("kpcaig: warning: eigenvalues mu_1..mu_2 of the centred Gram are tied "
              "(0.864664716763387, 0.864664716763387), so axes 1..2 of the top q=2 are "
              "fixed only up to a rotation among themselves\n")
    out = tmp_path / "out.tsv"
    for command, options, err in [("project", ["--q", "1"], "kpcaig: warning: " + refusal),
                                  ("project", ["--q", "2"], inside),
                                  ("arrows", ["--q", "2", "--feature", "f0"], inside)]:
        assert main([command, src, *options, "-o", str(out)]) == 0
        assert capsys.readouterr().err == err
        assert len(read_table(out)[2]) == 4
    # a ranking reads no single axis, so a tie inside the top q passes unremarked
    assert main(["rank", src, "--q", "2", "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    # the octahedron at q=4: a tied block at the cut and another inside the top q
    src = str(tmp_path / "octahedron.tsv")
    save_matrix(Dataset.from_matrix(OCTAHEDRON), src)
    assert main(["project", src, "--q", "4", "-o", str(out)]) == 0
    cut, block = capsys.readouterr().err.splitlines()
    assert cut.startswith("kpcaig: warning: eigenvalues mu_4..mu_5 of the centred Gram are tied")
    assert cut.endswith("the nearest q whose gap clears it is q=3")
    assert block.startswith("kpcaig: warning: eigenvalues mu_1..mu_3 of the centred Gram are tied")
    assert block.endswith("so axes 1..3 of the top q=4 are fixed only up to a rotation among "
                          "themselves")
    # arrows prints axes 1-2 only, which the tie at the cut leaves as they are
    assert main(["arrows", src, "--q", "4", "--feature", "f0", "-o", str(out)]) == 0
    assert capsys.readouterr().err == block + "\n"
    # distinct eigenvalues: no warning
    assert main(["project", toy_matrix(tmp_path), "--q", "3", "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("q", [1, 2, 3])
def test_the_eigengap_keys_match_eigvalsh_of_the_centred_gram(tmp_path, q):
    src = toy_matrix(tmp_path, n=12, p=6)
    out = tmp_path / "project.tsv"
    assert main(["project", src, "--q", str(q), "-o", str(out)]) == 0
    header = header_of(out)
    K = gram_matrix(KernelSpec("rbf", sigma=header["sigma_resolved"]),
                    standardize(load_matrix(src)))
    mu = np.linalg.eigvalsh(center_gram(K))[::-1]
    assert abs(header["eigengap"] - (mu[q - 1] - mu[q])) <= 1e-12 * mu[0]
    assert header["eigengap_bound"] == pytest.approx(
        2 * 12 * np.finfo(np.float64).eps * 12 * np.abs(K).max(), rel=1e-12)
    assert header["eigengap"] > header["eigengap_bound"]


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


def test_project_embedding_and_sidecar(tmp_path, capsys):
    out = tmp_path / "emb.tsv"
    code = main(["project", toy_matrix(tmp_path), "-o", str(out), "--q", "3"])
    assert code == 0
    _, header, rows = read_table(out)
    assert header == ["sample_id", "pc1", "pc2", "pc3"]
    assert len(rows) == 10
    settings = header_of(out)
    assert settings["q_resolved"] == 3
    assert len(settings["eigenvalues"]) == len(settings["explained_variance"]) == 3
    assert sum(settings["explained_variance"]) <= 1.0
    # one table and no second file
    assert sorted(path.name for path in tmp_path.iterdir()) == ["emb.tsv", "toy.tsv"]
    # without -o, stdout is the same table and nothing else
    assert main(["project", toy_matrix(tmp_path), "--q", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + 10
    assert lines[1:] == out.read_text(encoding="utf-8").splitlines()[1:]


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


def library_table(command, data, spec, labels):
    """The lines of command's table, as the library computes them at --q 3."""
    if command == "rank":
        ranking = rank_features(fit_kpca(data, spec, 3))
        return per_cell_table(("rank", "feature", "score", "std"), [
            (r + 1, data.feature_names[j], ranking.scores[j], ranking.stds[j])
            for r, j in enumerate(ranking.order)])
    if command == "project":
        embedding = project_training(fit_kpca(data, spec, 3))
        return per_cell_table(("sample_id", "pc1", "pc2", "pc3"), [
            (sid,) + tuple(row) for sid, row in zip(data.sample_ids, embedding)])
    points = selection_curve(data, laplacian_score(data).order, labels, 4, (2, 4), runs=3)
    columns = ("d", "acc_mean", "acc_std", "nmi_mean", "nmi_std")
    return per_cell_table(columns, [[getattr(pt, c) for c in columns] for pt in points])


# a command line that runs to exit 0, and the kernel of its table
LIBRARY_TABLES = [
    (["rank", "--kernel", "linear"], KernelSpec("linear")),
    (["rank", "--kernel", "poly", "--degree", "3", "--coef0", "0.5"],
     KernelSpec("polynomial", degree=3, coef0=0.5)),
    (["project", "--kernel", "poly"], KernelSpec("polynomial", degree=2, coef0=1.0)),
    (["curve", "selection", "--ranking", "laplacian", "--labels", "LABELS", "--d-grid", "2,4",
      "--runs", "3"], None),
]


@pytest.mark.parametrize("argv, spec", LIBRARY_TABLES,
                         ids=["rank-linear", "rank-poly", "project-poly", "selection-laplacian"])
def test_non_rbf_kernels_and_the_laplacian_curve_give_the_library_tables(tmp_path, argv, spec):
    mpath, lpath = planted_files(tmp_path)
    out = tmp_path / "out.tsv"
    assert main([lpath if a == "LABELS" else a for a in argv]
                + [mpath, "--q", "3", "-o", str(out)]) == 0
    want = library_table(argv[0], standardize(load_matrix(mpath)), spec, load_labels(lpath))
    assert out.read_text(encoding="utf-8").split("\n")[1:] == want + [""]
    if spec is not None:
        assert header_of(out)["sigma_resolved"] is None


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


@pytest.mark.parametrize("output", ["missing/out.tsv", "."], ids=["no-directory", "directory"])
def test_unwritable_output_exits_4_before_the_matrix_is_read(tmp_path, monkeypatch, capsys,
                                                             output):
    def load_matrix(*args, **kwargs):
        raise AssertionError("the matrix was read before -o was checked")

    monkeypatch.setattr("kpcaig.cli.load_matrix", load_matrix)
    out = str(tmp_path / output)
    # a bad kernel option is named first
    assert main(["rank", "toy.tsv", "--degree", "0", "-o", out]) == 3
    assert capsys.readouterr().err == \
        "kpcaig: polynomial degree must be an integer >= 1, got 0\n"
    assert main(["rank", "toy.tsv", "-o", out]) == 4
    assert capsys.readouterr().err.startswith(f"kpcaig: -o {out}: ")
    assert list(tmp_path.iterdir()) == []


BAD_D_GRIDS = [
    ("1:x:1", "values must be integers"),
    ("2:4", "a range must be start:stop:step with step >= 1"),
    ("2:4:0", "a range must be start:stop:step with step >= 1"),
    ("4:2:1", "feature-count grid is empty"),
    ("", "feature-count grid is empty"),
    # an empty entry is a bad entry, not one to skip
    (",", "values must be integers"),
    ("2,,4", "values must be integers"),
    ("2,4,", "values must be integers"),
    ("2::4", "values must be integers"),
    ("0:4:2", "grid values must lie in [1, p=5], got (0, 2, 4)"),
    ("2,6", "grid values must lie in [1, p=5], got (2, 6)"),
]


@pytest.mark.parametrize("d_grid, message", BAD_D_GRIDS, ids=[g for g, _ in BAD_D_GRIDS])
def test_bad_d_grid_exits_3_naming_it(tmp_path, capsys, d_grid, message):
    out = tmp_path / "out.tsv"
    assert main(["curve", "variance-split", toy_matrix(tmp_path), "--d-grid", d_grid,
                 "-o", str(out)]) == 3
    assert capsys.readouterr().err == f"kpcaig: --d-grid {d_grid}: {message}\n"
    assert not out.exists()


# a command line that fits (a curve ranking by --ranking permute, the permutation
# baseline, the variance curve), and the error it must give before any fit
PERMUTE = ["--ranking", "permute"]
CURVE_INPUT_ERRORS = [
    (["curve", "selection", "--labels", "LABELS", *PERMUTE],
     "--d-grid 10:300:10: grid values must lie in [1, p=5], got (10, 20,"),
    (["curve", "selection", "--d-grid", "2,4", *PERMUTE], "curve selection needs --labels"),
    (["curve", "selection", "--d-grid", "2,4", "--labels", "SHORT", *PERMUTE],
     "4 labels for n=10 samples"),
    (["curve", "silhouette", "--d-grid", "2,4", *PERMUTE], "curve needs --k"),
    (["curve", "silhouette", "--d-grid", "2,4", "--k", "0", *PERMUTE],
     "--k 0: must lie in [2, n=10]\n"),
    (["curve", "silhouette", "--d-grid", "2,4", "--k", "1", *PERMUTE],
     "--k 1: must lie in [2, n=10]\n"),
    (["curve", "selection", "--d-grid", "2,4", "--labels", "LABELS", "--k", "11", *PERMUTE],
     "--k 11: must lie in [1, n=10]\n"),
    (["curve", "selection", "--d-grid", "2,4", "--labels", "LABELS", "--runs", "0", *PERMUTE],
     "--runs 0: must be >= 1\n"),
    (["baseline", "permute", "--n-perm", "0"], "--n-perm 0: must be >= 1\n"),
    (["curve", "variance-split", "--d-grid", "2,4", "--splits", "0"],
     "--splits 0: must be >= 1\n"),
]


@pytest.mark.parametrize("argv, message", CURVE_INPUT_ERRORS,
                         ids=["default-d-grid", "no-labels", "short-labels", "no-k", "k-0",
                              "silhouette-k-1", "k-above-n", "runs-0", "n-perm-0", "splits-0"])
def test_curve_checks_its_inputs_before_the_ranking(tmp_path, monkeypatch, capsys,
                                                    argv, message):
    def fit(*args, **kwargs):
        raise AssertionError("a fit ran before the command's inputs were checked")

    for name in ("fit_with_rule", "permutation_ranking", "variance_generalization"):
        monkeypatch.setattr(f"kpcaig.cli.{name}", fit)
    labels, short = tmp_path / "labels.txt", tmp_path / "short.txt"
    labels.write_text("0\n1\n" * 5, encoding="utf-8")
    short.write_text("0\n1\n" * 2, encoding="utf-8")
    files = {"LABELS": str(labels), "SHORT": str(short)}
    out = tmp_path / "out.tsv"
    assert main([*(files.get(a, a) for a in argv), toy_matrix(tmp_path), "-o", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"kpcaig: {message}")
    assert not out.exists()


# a file kind, the bytes of a file of that kind that is not UTF-8, and the bad byte
@pytest.mark.parametrize("kind, raw, byte", [
    ("matrix", b"id,caf\xe9\ns1,1\ns2,2\n", "0xe9: invalid continuation byte"),
    ("labels", b"0\n\xff\n", "0xff: invalid start byte"),
], ids=["matrix", "labels"])
def test_a_file_that_is_not_utf8_exits_4_naming_it(tmp_path, capsys, kind, raw, byte):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(raw)
    argv = (["rank", str(bad)] if kind == "matrix" else
            ["curve", "selection", toy_matrix(tmp_path), "--labels", str(bad), "--d-grid", "2,4"])
    assert main(argv) == 4
    assert capsys.readouterr().err == f"kpcaig: {bad}: not UTF-8 (byte {byte})\n"


# a quoted file, so that csv reads it, with one field over csv's 131072-character limit
@pytest.mark.parametrize("text, row", [
    ('id,f1\ns1,"' + "1" * 140_000 + '"\n', 2),
    ('id,"' + "f" * 140_000 + '"\ns1,1\n', 1),
], ids=["cell", "header-name"])
def test_a_field_over_the_csv_limit_exits_4_naming_the_row(tmp_path, capsys, text, row):
    bad = tmp_path / "long.csv"
    bad.write_text(text, encoding="utf-8")
    assert main(["rank", str(bad)]) == 4
    assert capsys.readouterr().err == (
        f"kpcaig: {bad}: field larger than field limit (131072) at row {row}\n")


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


@pytest.mark.parametrize("command, sigma", [
    (["rank"], "1e-18"),
    (["baseline", "permute"], "1e-20"),
    (["baseline", "permute", "--metric", "gram"], "1e-20"),
])
def test_noise_level_kernel_exits_3(tmp_path, capsys, command, sigma):
    # the centred Gram's eigenvalues are at its rounding level, so any ranking is noise
    mpath, _ = planted_files(tmp_path)
    out = tmp_path / "out.tsv"
    assert main([*command, mpath, "--sigma", sigma, "-o", str(out)]) == 3
    assert f"rbf bandwidth sigma={sigma} is too small" in capsys.readouterr().err
    assert not out.exists()


# (<x, y> + 10)^400 overflows float64 on the diagonal and most pairs
TOY_OVERFLOWS = ["TOY", "--degree", "400", "--coef0", "10"]
# the Gram is finite, but centring it overflows (generators.OVERFLOWS_WHEN_CENTRED)
CENTRED_OVERFLOWS = ["CENTRED", "--no-standardize", "--degree", "152", "--coef0", "0"]
# the Gram and its fit are finite, but the gradient fields overflow
FIELDS_OVERFLOW = ["PERMUTED", "--no-standardize", "--degree", "152", "--coef0", "0"]


@pytest.mark.parametrize("command", [
    ["rank", *TOY_OVERFLOWS], ["project", *TOY_OVERFLOWS], ["baseline", "permute", *TOY_OVERFLOWS],
    *([*command, *CENTRED_OVERFLOWS] for command in (
        ["rank"], ["project"], ["arrows", "--feature", "f0"], ["baseline", "permute"])),
    ["rank", *FIELDS_OVERFLOW, "--q", "1"], ["rank", *FIELDS_OVERFLOW, "--q", "2"],
])
def test_polynomial_overflow_exits_3_naming_degree_and_coef0(tmp_path, capsys, command):
    # no numpy warning and no eigensolver traceback may come before the error
    inputs = {"TOY": toy_matrix(tmp_path, n=30, p=20)}
    for name, X in [("CENTRED", OVERFLOWS_WHEN_CENTRED), ("PERMUTED", OVERFLOWS_WHEN_PERMUTED)]:
        inputs[name] = str(tmp_path / f"{name}.tsv")
        save_matrix(Dataset.from_matrix(X), inputs[name])
    out = tmp_path / "out.tsv"
    argv = [*(inputs.get(a, a) for a in command), "--kernel", "poly", "-o", str(out)]
    args = build_parser().parse_args(argv)
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        f"kpcaig: polynomial kernel values overflow float64 at degree={args.degree}, "
        f"coef0={args.coef0!r}; use a lower degree\n")
    assert not out.exists()


@pytest.mark.parametrize("metric", ["subspace", "gram"])
def test_permuted_gram_overflow_exits_3_naming_degree_and_coef0(tmp_path, capsys, metric):
    # the unpermuted Gram is finite (largest value 3.6e302), but permuting a
    # column makes some of its degree-150 powers overflow
    path = tmp_path / "big.tsv"
    save_matrix(Dataset.from_matrix(OVERFLOWS_WHEN_PERMUTED), path)
    out = tmp_path / "perm.tsv"
    assert main(["baseline", "permute", str(path), "--no-standardize", "--kernel", "poly",
                 "--degree", "150", "--coef0", "0", "--q", "1", "--metric", metric,
                 "-o", str(out)]) == 3
    assert capsys.readouterr().err == ("kpcaig: polynomial kernel values overflow float64 "
                                       "at degree=150, coef0=0.0; use a lower degree\n")
    assert not out.exists()


def test_permute_q_above_numerical_rank_ranks_at_q_resolved(tmp_path, capsys):
    # the centred Gram has rank 2, so a third eigenvector would be rounding noise:
    # like rank, the baseline lowers q=3 to 2 with the fit's warning and ranks there
    path = tmp_path / "repeated.tsv"
    save_matrix(repeated_rows(), path)
    lowered, kept = tmp_path / "q3.tsv", tmp_path / "q2.tsv"
    for metric in ("subspace", "gram"):
        argv = ["baseline", "permute", str(path), "--metric", metric]
        assert main([*argv, "--q", "3", "-o", str(lowered)]) == 0
        assert capsys.readouterr().err == ("kpcaig: warning: requested q=3 exceeds the "
                                           "numerically valid rank; reduced to q=2\n")
        assert header_of(lowered)["q_resolved"] == 2
        assert main([*argv, "--q", "2", "-o", str(kept)]) == 0
        assert capsys.readouterr().err == ""
        _, _, rows = read_table(lowered)
        assert len(rows) == 6
        assert rows == read_table(kept)[2]


@pytest.mark.parametrize("n, q", [(12, 11), (3, 2)])
@pytest.mark.parametrize("command", [["baseline", "permute"], ["curve", "selection"]])
def test_permute_q_of_n_minus_1_exits_3(tmp_path, capsys, command, n, q):
    # at q = n-1 every subspace distance is rounding noise (about 1e-14)
    src = toy_matrix(tmp_path, n=n, p=6)
    labels = tmp_path / "labels.txt"
    labels.write_text("".join(f"{i % 2}\n" for i in range(n)), encoding="utf-8")
    extra = (["--labels", str(labels), "--ranking", "permute", "--d-grid", "2,4"]
             if command[0] == "curve" else [])
    out = tmp_path / "out.tsv"
    assert main([*command, src, "--q", str(q), *extra, "-o", str(out)]) == 3
    assert (f"q={q} is too large for the subspace metric with n={n} samples"
            in capsys.readouterr().err)
    assert not out.exists()


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
    # a header records sigma and degree too, whatever the kernel
    (["rank", "--kernel", "linear", "--sigma", "abc"],
     "sigma 'abc' is not a number, 'median' or 'grid:v1,...'"),
    (["rank", "--degree", "-3"], "polynomial degree must be an integer >= 1, got -3"),
    (["baseline", "permute", "--kernel", "linear", "--degree", "0"],
     "polynomial degree must be an integer >= 1, got 0"),
    (["curve", "silhouette", "--k", "2", "--d-grid", "2", "--kernel", "poly", "--sigma", "x"],
     "sigma 'x' is not a number, 'median' or 'grid:v1,...'"),
    # one text per sigma refusal, the one KernelSpec, SigmaRule and grid_search_sigma
    # raise (tests/test_kpca.py::test_sigma_rule_parse_and_resolve)
    (["project", "--sigma", "grid:1,nan"], "sigma must be finite and > 0, got nan"),
    (["arrows", "--feature", "nosuch"], "unknown feature 'nosuch'"),
    (["rank", "--sigma", "-1"], "sigma must be finite and > 0, got -1.0"),
    (["rank", "--kernel", "linear", "--sigma", "-1"], "sigma must be finite and > 0, got -1.0"),
    (["rank", "--sigma", "grid:0,1"], "sigma must be finite and > 0, got 0.0"),
    (["rank", "--sigma", "grid:"], "sigma grid is empty"),
    # an empty entry is a bad entry, not one to skip
    (["rank", "--sigma", "grid:1,,2"],
     "sigma 'grid:1,,2' is not a number, 'median' or 'grid:v1,...'"),
    (["curve", "variance-split", "--d-grid", "2", "--sigma", "grid:1,2,"],
     "sigma 'grid:1,2,' is not a number, 'median' or 'grid:v1,...'"),
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


def run_python(code, *args, cwd=None):
    """``code`` run with ``args`` by a fresh interpreter that imports this checkout's kpcaig."""
    src = str(Path(kpcaig.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, cwd=cwd)


def test_rank_parses_a_large_file_in_forked_processes_with_warnings_as_errors(tmp_path):
    # from Python 3.12, os.fork warns when the process runs several OS threads;
    # OpenBLAS at 2 threads must not make that warning an error here
    n, p = 30, 2000
    assert n * p >= 2 * data_module._CELLS_PER_PROCESS   # large enough to split
    src = toy_matrix(tmp_path, n=n, p=p)
    forked, single = tmp_path / "forked.tsv", tmp_path / "single.tsv"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(kpcaig.__file__).resolve().parent.parent),
                      os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "kpcaig", "rank", src,
                           "-o", str(forked)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    with mock.patch.object(data_module, "_CELLS_PER_PROCESS", sys.maxsize):
        assert main(["rank", src, "-o", str(single)]) == 0
    headers = [header_of(path) for path in (forked, single)]
    assert [h.pop("output") for h in headers] == [str(forked), str(single)]
    assert headers[0] == headers[1]
    assert (forked.read_bytes().split(b"\n", 1)[1] == single.read_bytes().split(b"\n", 1)[1])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork is missing")
def test_curve_selection_table_does_not_depend_on_the_split(tmp_path):
    mpath, lpath = planted_files(tmp_path)
    tables = [tmp_path / "single.tsv", tmp_path / "forked.tsv"]
    for forked, out in zip((False, True), tables):
        # 5 grid points over 3 processes, or all in this one
        with mock.patch.object(curves_module, "_SAMPLE_RUNS_PER_PROCESS",
                               1 if forked else sys.maxsize), \
                mock.patch("os.sched_getaffinity", return_value={0, 1, 2}, create=True), \
                mock.patch("os.fork", wraps=os.fork) as fork:
            assert main(["curve", "selection", mpath, "--labels", lpath, "--d-grid", "5:45:10",
                         "--runs", "3", "-o", str(out)]) == 0
        assert fork.call_count == (2 if forked else 0)
    headers = [header_of(path) for path in tables]
    assert [h.pop("output") for h in headers] == [str(path) for path in tables]
    assert headers[0] == headers[1]
    assert tables[0].read_bytes().split(b"\n", 1)[1] == tables[1].read_bytes().split(b"\n", 1)[1]


def test_permute_scores_in_forked_processes_with_warnings_as_errors(tmp_path):
    # large enough that a fresh process splits the features; every process
    # draws at one BLAS thread, so the table is the one-process table
    n, p = 30, 200
    assert p * 64 ** 2 >= 2 * baselines_module._DRAW_CELLS_PER_PROCESS
    src = toy_matrix(tmp_path, n=n, p=p)
    forked, single = tmp_path / "forked.tsv", tmp_path / "single.tsv"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(kpcaig.__file__).resolve().parent.parent),
                      os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "kpcaig", "baseline", "permute",
                           src, "-o", str(forked)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    with mock.patch.object(baselines_module, "_DRAW_CELLS_PER_PROCESS", sys.maxsize):
        assert main(["baseline", "permute", src, "-o", str(single)]) == 0
    headers = [header_of(path) for path in (forked, single)]
    assert [h.pop("output") for h in headers] == [str(forked), str(single)]
    assert headers[0] == headers[1]
    assert (forked.read_bytes().split(b"\n", 1)[1] == single.read_bytes().split(b"\n", 1)[1])


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
    # the permutation baseline's dsyevr is numpy's own where numpy's LAPACK exports it
    lapack = baselines_module._numpy_dsyevr() is not None
    if lapack:
        commands += [["baseline", "permute", mpath, "-o", out, "--metric", metric]
                     for metric in ("subspace", "gram")]
    proc = run_python(NO_SCIPY, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    if not lapack:
        pytest.skip("numpy's LAPACK exports no ILP64 dsyevr, so baseline permute loads scipy")


def test_a_rank_process_loads_only_what_it_runs(tmp_path):
    # np.median imports numpy.ma on its first call (6-9 ms), and scipy would
    # add a second BLAS: a fresh process that ranks must load neither
    src = toy_matrix(tmp_path, n=12, p=6)
    proc = run_python("import json, sys; from kpcaig.cli import main; "
                      "code = main(sys.argv[1:]); "
                      "print(json.dumps([code, sorted(m for m in sys.modules "
                      "if m == 'numpy.ma' or m.split('.')[0] == 'scipy')]))",
                      "rank", src, "-o", str(tmp_path / "rank.tsv"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, []]


needs_distance_module = pytest.mark.skipif(
    metrics_module._distance_kernels() is None,
    reason="scipy's compiled distance module does not load on its own, so k-means and "
           "silhouette import scipy.spatial for cdist")


@needs_distance_module
def test_a_curve_process_loads_neither_scipy_spatial_nor_a_second_openblas(tmp_path):
    # scipy.spatial's package import pulls in scipy.linalg and scipy.sparse and
    # maps scipy's own OpenBLAS: about 38 MB and 0.13 s that k-means does not need
    mpath, lpath = planted_files(tmp_path)
    out = str(tmp_path / "out.tsv")
    commands = [["curve", "selection", mpath, "--labels", lpath, "--d-grid", "4,8",
                 "--runs", "3", "-o", out],
                ["curve", "silhouette", mpath, "--d-grid", "4,8", "--k", "4", "-o", out]]
    proc = run_python("import json, sys\n"
                      "from kpcaig.cli import main\n"
                      "def openblas():\n"
                      "    with open('/proc/self/maps') as fh:\n"
                      "        return sorted({ln.split()[-1] for ln in fh if 'openblas' in ln})\n"
                      "before = openblas()\n"
                      "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
                      "print(json.dumps([codes, before, openblas(), sorted(\n"
                      "    m for m in sys.modules if m.startswith(('scipy.spatial', "
                      "'scipy.linalg')))]))", json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    codes, before, after, loaded = json.loads(proc.stdout)
    assert codes == [0, 0]
    assert after == before         # numpy's OpenBLAS only
    assert loaded == ["scipy.spatial._distance_pybind"]


DISTANCES = """
import sys
import numpy as np
X = np.random.default_rng(0).normal(size=(9, 4))
def distances(cdist):
    return [cdist(X, X[:3], metric).tobytes() for metric in ("sqeuclidean", "euclidean")]
if sys.argv[1] == "kpcaig":
    from kpcaig import metrics
    seam = distances(metrics._cdist)
    assert [m for m in sys.modules if m.startswith("scipy.spatial")] == [metrics._DISTANCE_MODULE]
    import scipy.spatial.distance as distance
else:
    import scipy.spatial.distance as distance
    from kpcaig import metrics
    seam = distances(metrics._cdist)
assert metrics._distance_kernels() is distance._distance_pybind
assert seam == distances(distance.cdist)
"""


@needs_distance_module
@pytest.mark.parametrize("first", ["kpcaig", "scipy"])
def test_scipy_spatial_and_the_seam_share_one_distance_module(first):
    proc = run_python(DISTANCES, first)
    assert proc.returncode == 0, proc.stderr


def test_entrypoint_freezes_the_heap_before_exit():
    # the interpreter's last collection would otherwise walk every imported object
    calls = []
    with mock.patch("kpcaig.cli.main", side_effect=lambda: calls.append("main") or 3), \
            mock.patch("gc.freeze", side_effect=lambda: calls.append("freeze")), \
            pytest.raises(SystemExit) as info:
        kpcaig.cli.entrypoint()
    assert info.value.code == 3
    assert calls == ["main", "freeze"]


def test_a_long_tied_block_is_named_by_its_ends_and_its_count(tmp_path, capsys):
    # 30 equidistant samples, the rows of I, tie mu_1..mu_29 at 1 - exp(-1) under the
    # median sigma; every kernel value about 1 (K ~ 11^T) leaves mu_2..mu_100 at the
    # rounding level of K
    src = str(tmp_path / "planted.tsv")
    save_matrix(planted_clusters(100, 60, 2, 10)[0], src)
    eye = str(tmp_path / "equidistant.tsv")
    save_matrix(Dataset.from_matrix(np.eye(30)), eye)
    ties = {(eye, "median"): ("mu_1..mu_29", "0.632120558828559, ..., 0.632120558828557: "
                                             "29 values"),
            (src, "1e-14"): ("mu_2..mu_100", "5.24105515070404e-12, ..., -1.15852025320598e-14: "
                                             "99 values")}
    for (path, sigma), (block, values) in ties.items():
        assert main(["rank", path, "--sigma", sigma, "--q", "3"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"kpcaig: eigenvalues {block} of the centred Gram are tied "
                              f"({values}): the gap at q=3, ")
        assert len(err) < 300
    # the warning of a tied block inside the top q names it alike: the identity rows'
    # mu_1..mu_29 all lie inside q=29
    out = tmp_path / "project.tsv"
    assert main(["project", eye, "--sigma", "median", "--q", "29", "-o", str(out)]) == 0
    assert capsys.readouterr().err == (
        "kpcaig: warning: eigenvalues mu_1..mu_29 of the centred Gram are tied "
        "(0.632120558828559, ..., 0.632120558828557: 29 values), so axes 1..29 of the top "
        "q=29 are fixed only up to a rotation among themselves\n")


def test_a_bandwidth_at_the_rounding_level_exits_3_naming_it(tmp_path, capsys):
    # median d^2 is 121: at sigma=1e-16 every kernel value rounds to 1 (K ~ 11^T), so no
    # centred eigenvalue clears the rounding level of K; at sigma=1 and 3 no off-diagonal
    # kernel value does (K ~ I). The refusal is the only line, with no tie warning
    data = planted_clusters(100, 60, 2, 10)[0]
    src = str(tmp_path / "planted.tsv")
    save_matrix(data, src)
    med = 1 / sigma_heuristic(standardize(data))
    out = tmp_path / "out.tsv"
    cases = [(["rank"], "1e-16", "small"), (["project"], "1e-16", "small"),
             *((command, sigma, "large") for command in (["rank"], ["arrows", "--feature", "f0"])
               for sigma in ("1", "3"))]
    for command, sigma, cause in cases:
        assert main([*command, src, "--sigma", sigma, "--q", "3", "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        error = err.rstrip("\n")
        value = float(sigma)
        assert error.startswith(f"kpcaig: rbf bandwidth sigma={value!r} is too {cause} for these "
                                f"samples: sigma * median d^2 = {value * med:.3g}, ")
        assert len(error) < 300
        assert not out.exists()


def test_a_grid_skips_a_bandwidth_its_fit_refuses(tmp_path, capsys):
    # sigma=1e-16 puts K ~ 11^T (previous test): the grid ranks at its other value, the
    # median sigma, with one warning naming the skipped one; a grid of refused values only
    # exits 3 with the first one's refusal, as a fixed sigma does
    src = str(tmp_path / "planted.tsv")
    save_matrix(planted_clusters(100, 60, 2, 10)[0], src)
    out, fixed = tmp_path / "grid.tsv", tmp_path / "fixed.tsv"
    assert main(["rank", src, "--sigma", "grid:1e-16,0.00827", "--q", "3", "-o", str(out)]) == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 300
    assert err.startswith("kpcaig: warning: grid search skips a sigma its fit refuses: rbf "
                          "bandwidth sigma=1e-16 is too small for these samples: "
                          "sigma * median d^2 = 1.21e-14, ")
    assert header_of(out)["sigma_resolved"] == 0.00827
    assert main(["rank", src, "--sigma", "0.00827", "--q", "3", "-o", str(fixed)]) == 0
    assert read_table(out)[2] == read_table(fixed)[2]
    capsys.readouterr()
    assert main(["rank", src, "--sigma", "1e-16", "--q", "3"]) == 3
    refusal = capsys.readouterr().err
    assert main(["rank", src, "--sigma", "grid:1e-16,1e-17", "--q", "3"]) == 3
    assert capsys.readouterr().err == refusal


def test_project_at_k_near_identity_warns_naming_the_bandwidth(tmp_path, capsys):
    # at sigma=1 no off-diagonal kernel value clears the rounding level of K (K ~ I):
    # `project` prints its embedding with one warning naming sigma, not a 99-value tie
    data = planted_clusters(100, 60, 2, 10)[0]
    src = str(tmp_path / "planted.tsv")
    save_matrix(data, src)
    out = tmp_path / "project.tsv"
    assert main(["project", src, "--sigma", "1", "--q", "3", "-o", str(out)]) == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert len(err) < 300
    assert err.startswith("kpcaig: warning: rbf bandwidth sigma=1.0 is too large for these "
                          "samples: sigma * median d^2 = 121, ")
    model = fit_kpca(standardize(data), KernelSpec("rbf", sigma=1.0), 3)
    rows = read_table(out)[2]
    assert np.array_equal([[float(v) for v in row[1:]] for row in rows], project_training(model))


def test_a_wide_input_ranks_from_a_thousandth_to_ten_times_the_median_sigma(tmp_path, capsys):
    # at p >> n every pairwise d^2 lies near the median, so no such sigma puts the kernel
    # at the rounding level of K
    data = planted_clusters(60, 3000, 2, 30)[0]
    src = str(tmp_path / "wide.tsv")
    save_matrix(data, src)
    median = sigma_heuristic(standardize(data))
    for factor in (1e-3, 1e-2, 1e-1, 1, 10):
        assert main(["rank", src, "--sigma", repr(factor * median), "--q", "3",
                     "-o", str(tmp_path / "rank.tsv")]) == 0
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", [["baseline", "permute"],
                                     ["curve", "selection", "--ranking", "permute"]],
                         ids=["baseline-permute", "curve-selection"])
def test_a_permute_run_fits_once(tmp_path, command):
    # the baseline ranks the fit that gives the header its keys: one Gram, one eigh
    mpath, lpath = planted_files(tmp_path)
    extra = ["--labels", lpath, "--d-grid", "2,4", "--runs", "2"] if command[0] == "curve" else []
    with mock.patch("kpcaig.kpca.gram_matrix", wraps=kpcaig.kpca.gram_matrix) as grams, \
            mock.patch("numpy.linalg.eigh", wraps=np.linalg.eigh) as eighs:
        assert main([*command, mpath, *extra, "-o", str(tmp_path / "out.tsv")]) == 0
    assert (grams.call_count, eighs.call_count) == (1, 1)


@pytest.mark.parametrize("metric", ["subspace", "gram"])
def test_permute_refuses_a_tie_at_the_cut_for_the_subspace_metric(tmp_path, capsys, metric):
    src = str(tmp_path / "square.tsv")
    save_matrix(Dataset.from_matrix(SQUARE), src)
    out = tmp_path / "permute.tsv"
    argv = ["baseline", "permute", src, "--metric", metric, "-o", str(out)]
    if metric == "subspace":
        assert main([*argv, "--q", "1"]) == 3
        err = capsys.readouterr().err
        # the message of `rank` on the same file, from the same spectrum (kpca.check_gap)
        assert main(["rank", src, "--q", "1"]) == 3
        assert capsys.readouterr().err == err
        assert err.startswith("kpcaig: eigenvalues mu_1..mu_2 of the centred Gram are tied "
                              "(0.864664716763387, 0.864664716763387): the gap at q=1, ")
        assert err.endswith(", so the top q=1 axes are not determined; "
                            "the nearest q whose gap clears it is q=2\n")
        assert not out.exists()
    else:
        # the gram metric reads no axes, so a tie costs it nothing; its header says it
        assert main([*argv, "--q", "1"]) == 0
        header = header_of(out)
        assert header["eigengap"] < header["eigengap_bound"]
    # at q=2 both metrics rank, with the gap and bound of `project` in the header
    assert main([*argv, "--q", "2"]) == 0
    gap = header_of(out)
    assert main(["project", src, "--q", "2", "-o", str(out)]) == 0
    fit = header_of(out)
    assert gap["eigengap"] == fit["eigengap"]
    assert gap["eigengap_bound"] == fit["eigengap_bound"]
