import os
import sys
import threading
import tracemalloc
from contextlib import contextmanager, suppress
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpcaig import (Dataset, InputError, ParseError, load_labels, load_matrix,
                    save_matrix, sigma_heuristic, standardize)
from kpcaig import data as data_module


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@contextmanager
def split(forked: bool):
    """Parse across three processes from one cell each, or in one process."""
    with mock.patch.object(data_module, "_CELLS_PER_PROCESS", 1 if forked else sys.maxsize), \
            mock.patch("os.sched_getaffinity", return_value={0, 1, 2}, create=True):
        yield


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork is missing")

# 6 data rows split 2 + 2 + 2: the last two (file rows 6 and 7) go to the second child
CHILD_ROWS_GOOD = "id,f1,f2\n" + "".join(f"s{i},{i}.5,-{i}\n" for i in range(6))
# a byte that is not UTF-8 in the second child's rows only
CHILD_ROWS_LATIN1 = CHILD_ROWS_GOOD.encode().replace(b"s5,5.5,-5", b"s5,5.5,-5\xff")


def test_load_small_csv(tmp_path):
    p = write(tmp_path / "m.csv", "id,geneA,geneB\ns1,1.0,2.0\ns2,3.5,-1.0\ns3,0.0,0.25\n")
    d = load_matrix(p)
    assert d.p == 2 and d.n == 3
    assert d.feature_names == ("geneA", "geneB")
    assert d.sample_ids == ("s1", "s2", "s3")
    assert d.matrix[1, 0] == 3.5


def test_load_tsv_autodetect(tmp_path):
    p = write(tmp_path / "m.tsv", "id\tf1\tf2\ns1\t1\t2\ns2\t3\t4\n")
    d = load_matrix(p)
    assert d.matrix.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_transposed_round_trip(tmp_path):
    p1 = write(tmp_path / "rows.csv", "id,f1,f2\ns1,1,2\ns2,3,4\ns3,5,6\n")
    p2 = write(tmp_path / "cols.csv", "id,s1,s2,s3\nf1,1,3,5\nf2,2,4,6\n")
    a = load_matrix(p1, orientation="rows")
    b = load_matrix(p2, orientation="cols")
    assert np.array_equal(a.matrix, b.matrix)
    assert a.feature_names == b.feature_names
    assert a.sample_ids == b.sample_ids


def test_na_cell_names_coordinates(tmp_path):
    p = write(tmp_path / "m.csv", "id,f1,f2\ns1,1.0,NA\ns2,2.0,3.0\n")
    with pytest.raises(ParseError, match=r"'NA' at row 2, column 3"):
        load_matrix(p)


def test_inf_cell_rejected(tmp_path):
    p = write(tmp_path / "m.csv", "id,f1\ns1,inf\n")
    with pytest.raises(ParseError, match="non-finite"):
        load_matrix(p)


def test_ragged_rows(tmp_path):
    p = write(tmp_path / "m.csv", "id,f1,f2\ns1,1.0\n")
    with pytest.raises(ParseError, match="row 2"):
        load_matrix(p)


def test_duplicate_feature_names(tmp_path):
    p = write(tmp_path / "m.csv", "id,f1,f1\ns1,1.0,2.0\n")
    with pytest.raises(ParseError, match="duplicate"):
        load_matrix(p)
    # a paper-width header with one name repeated far apart
    names = [f"g{j}" for j in range(12626)]
    names[-1] = names[7] = "g7"
    wide = write(tmp_path / "wide.tsv", "id\t" + "\t".join(names) + "\n"
                 + "s1\t" + "\t".join(["1"] * len(names)) + "\n")
    with pytest.raises(ParseError) as info:
        load_matrix(wide)
    assert str(info.value) == f"{wide}: duplicate feature names ['g7']"
    cols = write(tmp_path / "cols.csv", "id,s1,s2\nb,1,2\na,3,4\nb,5,6\na,7,8\n")
    with pytest.raises(ParseError) as info:
        load_matrix(cols, orientation="cols")
    assert str(info.value) == f"{cols}: duplicate feature names ['a', 'b']"


# (file text, the exact ParseError message after "<path>: ")
MALFORMED = [
    ('id,f1,f2\ns1,"1.0",x\n', "non-numeric value 'x' at row 2, column 3"),
    ('id,f1\ns1,"NA"\n', "non-numeric value 'NA' at row 2, column 2"),
    ("id,f1,f2\ns1,1.0,2.0,\n", "row 2 has 4 fields, expected 3"),
    ("id,f1,f2,\ns1,1.0,2.0,\n", "non-numeric value '' at row 2, column 4"),
    ("id\tf1\ns1\t1.0\n  \ns2\t2.0\n", "row 3 has 1 fields, expected 2"),
    ("id,f1\ns1,1.0\n\ns2,\n", "non-numeric value '' at row 3, column 2"),
    ("\n\r\n\n", "empty file"),
    ("\r\n\r", "empty file"),
    # both parsers keep a line of spaces as a row, so this file is not empty
    (" \nid,f1\ns1,1\ns2,2\n", "need at least one data column besides the ID column"),
    ("id,f1,f2\n", "no data rows"),
    ("id,f1,f2\r\n\r\n", "no data rows"),
    ("id\ns1\n", "need at least one data column besides the ID column"),
    ("id,f1\ns1\n", "row 2 has 1 fields, expected 2"),
    ("id,f1,f2\ns1,1,2\ns2\n", "row 3 has 1 fields, expected 3"),
    ("id,f1\ns1,nan\n", "non-finite value 'nan' at row 2, column 2"),
    ("id\tf1\ts2\ns1\t1\t-inf\n", "non-finite value '-inf' at row 2, column 3"),
    ("id,f1\ns1,1e999\n", "non-finite value '1e999' at row 2, column 2"),
    ("id,f1,f2\ns1,1.0,NA\ns2,2.0,3.0\n", "non-numeric value 'NA' at row 2, column 3"),
    ("id,f1\r\ns1,1.5\r\ns2,x\r\n", "non-numeric value 'x' at row 3, column 2"),
    ("id,f1\rs1,1.5\rs2,,\r", "row 3 has 3 fields, expected 2"),
    ("id,f1\ns1\rs2,2.5\n", "row 2 has 1 fields, expected 2"),
    ("id,f1\ns1,\x1c1\n", "non-numeric value '\\x1c1' at row 2, column 2"),
    ("id,f1\ns1,0x10\n", "non-numeric value '0x10' at row 2, column 2"),
]


@pytest.mark.parametrize("text, message", MALFORMED)
def test_malformed_file_messages(tmp_path, text, message):
    p = write(tmp_path / "m.txt", text)
    with pytest.raises(ParseError) as info:
        load_matrix(p)
    assert str(info.value) == f"{p}: {message}"


# files both parsers accept: (file text, matrix, feature names, sample ids)
ACCEPTED = [
    ('id,"f,1",f2\n"s 1","1.5",2\n', [[1.5, 2.0]], ("f,1", "f2"), ("s 1",)),
    ("id,f1\n\ns1,1.0\n\n\ns2,2.0\n", [[1.0], [2.0]], ("f1",), ("s1", "s2")),
    ('id,"f1","g 2"\n"s1",1,2\n', [[1.0, 2.0]], ("f1", "g 2"), ("s1",)),
    ("id,f1\ns1,1.5\rs2,2.5\n", [[1.5], [2.5]], ("f1",), ("s1", "s2")),
    ("id,f1,f2\ns1,1_0,2\n", [[10.0, 2.0]], ("f1", "f2"), ("s1",)),
    ("id\tf1\ns1\t \u06f1\u06f2 \n", [[12.0]], ("f1",), ("s1",)),
    ("id,f1\r\ns1, 3 \r\n", [[3.0]], ("f1",), ("s1",)),
    # csv reads a lone carriage return as an empty line
    ("\rid,f1\rs1,1\r", [[1.0]], ("f1",), ("s1",)),
]


@pytest.mark.parametrize("text, matrix, names, ids", ACCEPTED)
def test_accepted_irregular_files(tmp_path, text, matrix, names, ids):
    d = load_matrix(write(tmp_path / "m.txt", text))
    assert d.matrix.tolist() == matrix
    assert d.feature_names == names and d.sample_ids == ids


# a TSV, a CSV and a quoted CSV, which only the row-by-row parser takes
PLAIN = ["id\tf1\tf2\ns1\t1.5\t2\ns2\t3\t-4\n", "id,f1,f2\r\ns1,1.5,2\r\ns2,3,-4\r\n",
         'id,"f1",f2\n"s1",1.5,2\ns2,3,-4\n']


@pytest.mark.parametrize("lead", ["\n", "\r\n", "\n\n", "\r\n\n", "\r"])
@pytest.mark.parametrize("text", PLAIN, ids=["tsv", "csv", "quoted"])
def test_leading_empty_lines_are_skipped(tmp_path, text, lead):
    want = load_matrix(write(tmp_path / "plain.txt", text))
    got = load_matrix(write(tmp_path / "lead.txt", lead + text))
    assert np.array_equal(got.matrix, want.matrix) and want.matrix.shape == (2, 2)
    assert (got.feature_names, got.sample_ids) == (want.feature_names, want.sample_ids)


def test_bad_orientation(tmp_path):
    p = write(tmp_path / "m.csv", "id,f1\ns1,1.0\n")
    with pytest.raises(InputError):
        load_matrix(p, orientation="diagonal")


def test_load_labels(tmp_path):
    p = write(tmp_path / "y.txt", "0\n1\n1\n0\n")
    assert load_labels(p).tolist() == [0, 1, 1, 0]
    bad = write(tmp_path / "bad.txt", "0\nx\n")
    with pytest.raises(ParseError):
        load_labels(bad)
    blank = write(tmp_path / "blank.txt", "\n  \n\n")
    with pytest.raises(ParseError, match="no labels found"):
        load_labels(blank)


# (loader, file bytes, the bad byte and its reason as the ParseError names them)
NOT_UTF8 = [
    (load_matrix, b"id,caf\xe9\ns1,1\n", "0xe9: invalid continuation byte"),
    # past the first chunk a text reader decodes
    (load_matrix, b"id,f1\n" + b"s,1\n" * 5000 + b"s\xff,1\n", "0xff: invalid start byte"),
    # a row is decoded before it is split into cells
    (load_matrix, b'id,f1\n"s1",1\ns\xff2,NA\n', "0xff: invalid start byte"),
    (load_matrix, CHILD_ROWS_LATIN1, "0xff: invalid start byte"),
    # one in the first block's numeric text, one in a later row id: the first is named
    (load_matrix, CHILD_ROWS_GOOD.encode().replace(b"s0,0.5", b"s0,0.5\xe9")
     .replace(b"s4,", b"s4\xff,"), "0xe9: invalid continuation byte"),
    (load_labels, b"0\n\xff\n", "0xff: invalid start byte"),
]


@pytest.mark.parametrize("load, raw, byte", NOT_UTF8,
                         ids=["matrix", "matrix-late", "matrix-byte-before-na",
                              "matrix-child-block", "matrix-cell-and-id", "labels"])
def test_a_file_that_is_not_utf8_raises_a_parse_error_naming_it(tmp_path, load, raw, byte):
    path = tmp_path / "latin1.txt"
    path.write_bytes(raw)
    for forked in (False, True):
        with split(forked), pytest.raises(ParseError) as info:
            load(path)
        assert str(info.value) == f"{path}: not UTF-8 (byte {byte})"


# (file bytes, the error named): a malformed cell in an earlier row than a bad byte
FIRST_ERROR = [
    (b"id,f1\ns1,NA\n" + b"s,1\n" * 5000 + b"s\xff,1\n",
     "non-numeric value 'NA' at row 2, column 2"),
    # a quoted id sends the file to the row-by-row check, near the bad byte and far from it
    (b'id,f1\n"s1",1\ns2,NA\n' + b"s,1\n" * 10 + b"s\xff,1\n",
     "non-numeric value 'NA' at row 3, column 2"),
    (b'id,f1\n"s1",1\ns2,NA\n' + b"s,1\n" * 5000 + b"s\xff,1\n",
     "non-numeric value 'NA' at row 3, column 2"),
]


@pytest.mark.parametrize("raw, message", FIRST_ERROR, ids=["after-na", "quoted-near", "quoted-far"])
def test_the_first_error_in_file_order_is_named(tmp_path, raw, message):
    path = tmp_path / "m.csv"
    path.write_bytes(raw)
    for forked in (False, True):
        with split(forked), pytest.raises(ParseError) as info:
            load_matrix(path)
        assert str(info.value) == f"{path}: {message}"


# (loader, the file's text after a UTF-8 byte-order mark, what it loads)
BYTE_ORDER_MARK = [
    (load_labels, "1\n0\n", [1, 0]),
    (load_matrix, "id\tf1\ns1\t1.5\n", [[1.5]]),
    # csv reads this one after a second fh.seek(0); a kept mark would end the quote early
    (load_matrix, '"id,name",f1\ns1,1.5\n', [[1.5]]),
]


@pytest.mark.parametrize("load, text, want", BYTE_ORDER_MARK,
                         ids=["labels", "matrix", "matrix-quoted"])
def test_a_utf8_byte_order_mark_is_skipped(tmp_path, load, text, want):
    path = tmp_path / "marked.txt"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    got = load(path)
    if load is load_matrix:
        assert got.feature_names == ("f1",) and got.sample_ids == ("s1",)
        got = got.matrix
    assert got.tolist() == want


def test_load_holds_the_file_once(tmp_path):
    X = np.random.default_rng(0).normal(size=(100, 3000))
    path = tmp_path / "big.tsv"
    save_matrix(Dataset.from_matrix(X), path)
    size = path.stat().st_size
    assert size > 5e6
    for forked in (False, True):
        with split(forked):
            tracemalloc.start()
            try:
                d = load_matrix(path)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert d.matrix.tobytes() == X.tobytes()
        # the matrix and a few rows' text at a time, not the text of a block
        # (a third of the file when forked) or of the whole file
        assert peak < d.matrix.nbytes + size / 4, forked


def test_dataset_validation():
    with pytest.raises(InputError):
        Dataset.from_matrix([[np.nan, 1.0]])
    with pytest.raises(InputError):
        Dataset(np.zeros((2, 2)), ("a", "a"), ("s1", "s2"))
    with pytest.raises(InputError):
        Dataset(np.zeros((2, 2)), ("a", "b"), ("s1",))
    with pytest.raises(InputError, match="matrix must be 2-D, got ndim=1"):
        Dataset(np.zeros(2), ("a", "b"), ("s1",))
    with pytest.raises(InputError, match="3 feature names for p=2 columns"):
        Dataset(np.zeros((2, 2)), ("a", "b", "c"), ("s1", "s2"))
    with pytest.raises(InputError, match=r"labels must have shape \(2,\), got \(3,\)"):
        Dataset(np.zeros((2, 2)), ("a", "b"), ("s1", "s2"), labels=[0, 1, 1])


def test_dataset_keeps_a_private_read_only_copy():
    # changing the caller's array must change neither the Dataset nor the
    # pairwise distances kept for it
    X = np.random.default_rng(2).normal(size=(8, 3))
    d = Dataset.from_matrix(X)
    before = X.copy()
    sigma_heuristic(d)
    X[:, 0] *= 100
    assert np.array_equal(d.matrix, before)
    assert sigma_heuristic(d) == sigma_heuristic(Dataset.from_matrix(before))
    for derived in (d, standardize(d), d.select_features([1]), d.subset_samples([0, 1])):
        with pytest.raises(ValueError):
            derived.matrix[0, 0] = 1.0


def test_standardize_columns():
    d = standardize(Dataset.from_matrix([[1.0], [2.0], [3.0]]))
    want = np.array([-1.224744871391589, 0.0, 1.224744871391589])
    assert np.abs(d.matrix[:, 0] - want).max() < 1e-12


def test_standardize_idempotent():
    rng = np.random.default_rng(0)
    a = standardize(Dataset.from_matrix(rng.normal(size=(20, 4))))
    b = standardize(a)
    assert np.abs(a.matrix - b.matrix).max() < 1e-10


def test_standardize_constant_column_flagged():
    X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    d = standardize(Dataset.from_matrix(X))
    assert np.array_equal(d.matrix[:, 1], np.zeros(3))


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    d = standardize(Dataset.from_matrix(rng.normal(size=(7, 3))))
    out = tmp_path / "out.tsv"
    save_matrix(d, out)
    back = load_matrix(str(out))
    assert np.abs(back.matrix - d.matrix).max() < 1e-12
    assert back.feature_names == d.feature_names
    assert back.sample_ids == d.sample_ids


def test_select_and_subset():
    d = Dataset.from_matrix(np.arange(12.0).reshape(3, 4), labels=[0, 1, 0])
    sub = d.select_features([2, 0])
    assert sub.feature_names == ("f2", "f0")
    assert sub.matrix.tolist() == [[2.0, 0.0], [6.0, 4.0], [10.0, 8.0]]
    rows = d.subset_samples([1])
    assert rows.sample_ids == ("s1",)
    assert rows.labels.tolist() == [1]


def test_select_features_copies_the_subset_once():
    X = np.random.default_rng(0).normal(size=(200, 5000))
    d = Dataset.from_matrix(X)
    idx = np.arange(0, 5000, 2)
    tracemalloc.start()
    try:
        sub = d.select_features(idx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(sub.matrix, X[:, idx])
    # the subset itself plus small temporaries, not a second full copy
    assert peak < 1.5 * sub.matrix.nbytes


CELL_FORMATS = [repr, "{:.3g}".format, lambda v: str(int(v)), lambda v: f" {v!r}  "]


# what may follow a line's end of line: nothing, or blank LF and CRLF lines
BLANKS = ["", "\n", "\r\n", "\r\n\n"]


@settings(max_examples=80)
@given(st.data(), st.integers(1, 6), st.integers(1, 6), st.sampled_from([",", "\t"]),
       st.sampled_from(["\n", "\r\n"]), st.sampled_from(["rows", "cols"]), st.booleans(),
       st.booleans())
def test_block_parse_matches_row_validator(tmp_path_factory, draw, n, p, delim, eol,
                                           orientation, marked, last_eol):
    values = draw.draw(st.lists(st.floats(-1e300, 1e300), min_size=n * p,
                                max_size=n * p))
    formats = draw.draw(st.lists(st.sampled_from(CELL_FORMATS), min_size=n * p,
                                 max_size=n * p))
    cells = [fmt(v) for fmt, v in zip(formats, values)]
    lines = ["id" + delim + delim.join(f"c {j}" for j in range(p))]
    lines += [f"r-{i}" + delim + delim.join(cells[i * p:(i + 1) * p]) for i in range(n)]
    # blank lines before the header and after any line, so some sit at a boundary
    # of the three blocks split(True) parses; the last row may end the file
    # without an end of line
    lead, *blanks = draw.draw(st.lists(st.sampled_from(BLANKS), min_size=n + 2,
                                       max_size=n + 2))
    ends = [eol + blank for blank in blanks]
    if not last_eol:
        ends[-1] = ""
    text = lead + "".join(line + end for line, end in zip(lines, ends))
    path = tmp_path_factory.mktemp("m") / "m.txt"
    path.write_bytes(b"\xef\xbb\xbf" * marked + text.encode("utf-8"))

    with mock.patch.object(data_module, "_parse_block", return_value=None):
        want = load_matrix(path, orientation=orientation)
    for forked in (False, True):
        with split(forked), mock.patch("os.fork", wraps=os.fork) as fork:
            assert data_module._parse_block(path, delim) is not None   # np.loadtxt ran
            got = load_matrix(path, orientation=orientation)
        assert fork.called == (forked and n > 1)
        assert got.matrix.tobytes() == want.matrix.tobytes()
        assert got.matrix.shape == want.matrix.shape
        assert got.feature_names == want.feature_names
        assert got.sample_ids == want.sample_ids


CHILD_ROWS_BAD = [
    (CHILD_ROWS_GOOD.replace("s5,5.5,-5", "s5,5.5,x"), "non-numeric value 'x' at row 7, column 3"),
    (CHILD_ROWS_GOOD.replace("s5,5.5,-5", "s5,5.5,nan"),
     "non-finite value 'nan' at row 7, column 3"),
    # np.loadtxt takes these blocks, one row wider and one narrower than the header
    (CHILD_ROWS_GOOD.replace("-4\n", "-4,1\n").replace("-5\n", "-5,1\n"),
     "row 6 has 4 fields, expected 3"),
    (CHILD_ROWS_GOOD.replace(",-4\n", "\n").replace(",-5\n", "\n"),
     "row 6 has 2 fields, expected 3"),
]


@needs_fork
@pytest.mark.parametrize("text, message", CHILD_ROWS_BAD,
                         ids=["non-numeric", "nan", "wider", "narrower"])
def test_a_bad_row_a_child_parses_gives_the_one_process_error(tmp_path, text, message):
    p = write(tmp_path / "m.csv", text)
    for forked in (False, True):
        with split(forked), mock.patch("os.fork", wraps=os.fork) as fork:
            with pytest.raises(ParseError) as info:
                load_matrix(p)
        assert fork.call_count == (2 if forked else 0)
        assert str(info.value) == f"{p}: {message}"


@needs_fork
def test_a_load_leaves_no_child_behind(tmp_path):
    good = write(tmp_path / "good.csv", CHILD_ROWS_GOOD)
    bad = write(tmp_path / "bad.csv", CHILD_ROWS_BAD[0][0])
    with split(True):
        assert load_matrix(good).matrix.tolist() == [[i + 0.5, -i] for i in range(6)]
        with pytest.raises(ParseError):
            load_matrix(bad)
        # Ctrl-C while this process parses its own block: the children are killed and reaped
        with mock.patch.object(data_module, "_loadtxt", side_effect=KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                load_matrix(good)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_a_failed_fork_gives_the_one_process_matrix(tmp_path):
    p = write(tmp_path / "m.csv", CHILD_ROWS_GOOD)
    with split(True), mock.patch("os.fork", side_effect=BlockingIOError(11, "no process")):
        assert load_matrix(p).matrix.tolist() == [[i + 0.5, -i] for i in range(6)]


@needs_fork
def test_a_load_never_forks_while_another_thread_runs(tmp_path):
    p = write(tmp_path / "m.csv", CHILD_ROWS_GOOD)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        with split(True), mock.patch("os.fork", side_effect=AssertionError("forked")):
            d = load_matrix(p)
    finally:
        release.set()
        other.join(timeout=30)
    assert not other.is_alive()
    assert d.matrix.tolist() == [[i + 0.5, -i] for i in range(6)]


def _open_files() -> list:
    """This process's file descriptors, or [] where /proc/self/fd is missing."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []


@pytest.mark.parametrize("forked", [False, True], ids=["one-process", "forked"])
def test_a_load_leaves_no_file_or_mapping_open(tmp_path, forked):
    files = [write(tmp_path / "good.csv", CHILD_ROWS_GOOD),
             write(tmp_path / "bad.csv", CHILD_ROWS_BAD[0][0]),
             write(tmp_path / "quoted.csv", '"id",f1\ns1,1\ns2,2\n')]
    (tmp_path / "latin1.csv").write_bytes(CHILD_ROWS_LATIN1)
    files.append(str(tmp_path / "latin1.csv"))
    before = _open_files()
    for path in files:
        with split(forked), suppress(ParseError):
            load_matrix(path)
    assert _open_files() == before
    if os.path.exists("/proc/self/maps"):
        with open("/proc/self/maps") as fh:
            assert str(tmp_path) not in fh.read()
