import json

import numpy as np
import pytest

from kpcaig import Dataset, save_matrix, standardize
from kpcaig.cli import RunConfig, main
from kpcaig.synthetic import planted_clusters


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


def config_from_comment(line):
    """RunConfig parsed back from an output's ``# {...}`` header line."""
    d = json.loads(line.lstrip("#").strip())
    if d.get("d_grid") is not None:
        d["d_grid"] = tuple(int(v) for v in d["d_grid"])
    return RunConfig(**d)


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


def test_config_header_round_trip(tmp_path):
    out = tmp_path / "rank.tsv"
    main(["rank", toy_matrix(tmp_path), "-o", str(out), "--sigma", "0.25",
          "--q", "3", "--seed", "5"])
    comment = out.read_text(encoding="utf-8").splitlines()[0]
    cfg = config_from_comment(comment)
    assert cfg == RunConfig(command="rank", input=toy_matrix(tmp_path),
                            output=str(out), sigma="0.25", sigma_resolved=0.25,
                            q=3, seed=5)
    assert config_from_comment(cfg.to_comment()) == cfg


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


def test_bench_synthetic(tmp_path, capsys):
    assert main(["bench", "--synthetic", "30x40", "--q", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split("\t") == ["stage", "seconds", "n", "p"]
    stages = [ln.split("\t")[0] for ln in lines[2:]]
    assert stages == ["load", "fit", "rank", "total"]


def test_exit_codes(tmp_path):
    src = toy_matrix(tmp_path)
    assert main(["rank", src, "--nonsense-flag"]) == 2        # usage
    assert main(["rank", src, "--q", "0"]) == 3               # invalid config
    assert main(["rank", str(tmp_path / "missing.tsv")]) == 4  # I/O failure
    bad = tmp_path / "bad.csv"
    bad.write_text("id,f1\ns1,NA\n", encoding="utf-8")
    assert main(["rank", str(bad)]) == 4                      # parse error
    assert main(["curve", "selection", src, "--d-grid", "2,4"]) == 3  # no labels
    assert main(["bench"]) == 3
    assert main(["rank", src, "--sigma", "abc"]) == 3
    assert main(["rank", src, "--sigma", "grid:1e-3,x"]) == 3
    assert main(["curve", "selection", src, "--k", "2", "--d-grid", "1:x:1"]) == 3


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
