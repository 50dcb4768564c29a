"""Dataset container, delimited-matrix I/O and column standardization.

``load_matrix`` scans a file once for the byte span of each row's numeric
text, then each parsing process reads only its own rows' bytes; a file the
fast path declines is checked row by row. ``standardize`` returns a new
Dataset; none records whether it was standardized.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import InputError, ParseError
from .parallel import run_in_blocks


@dataclass(frozen=True)
class Dataset:
    """An n x p numeric matrix with sample/feature metadata.

    matrix            : float64 array, samples as rows
    feature_names     : p unique column names
    sample_ids        : n row identifiers
    labels            : optional integer class labels, one per sample

    The matrix is read-only and no caller can change it in place:
    kernels.pairwise_base keeps the pairwise distances and inner products of
    its rows in ``_bases``. A float64 C array that is read-only and owns its
    memory (as this module's functions pass in) is kept as it is; any other
    array is copied.
    """

    matrix: np.ndarray
    feature_names: tuple[str, ...]
    sample_ids: tuple[str, ...]
    labels: np.ndarray | None = None
    _bases: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        m = self.matrix
        if not (isinstance(m, np.ndarray) and m.dtype == np.float64 and m.flags.c_contiguous
                and m.flags.owndata and not m.flags.writeable):
            m = np.array(m, dtype=np.float64, order="C")
        if m.ndim != 2:
            raise InputError(f"matrix must be 2-D, got ndim={m.ndim}")
        if not np.all(np.isfinite(m)):
            raise InputError("matrix contains NaN or Inf entries")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        n, p = m.shape
        if len(self.feature_names) != p:
            raise InputError(f"{len(self.feature_names)} feature names for p={p} columns")
        if len(set(self.feature_names)) != p:
            raise InputError("feature names are not unique")
        if len(self.sample_ids) != n:
            raise InputError(f"{len(self.sample_ids)} sample ids for n={n} rows")
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=np.int64)
            if lab.shape != (n,):
                raise InputError(f"labels must have shape ({n},), got {lab.shape}")
            object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def p(self) -> int:
        return self.matrix.shape[1]

    @classmethod
    def from_matrix(cls, matrix, labels=None) -> "Dataset":
        """Wrap a raw array, synthesizing f0..f{p-1} / s0..s{n-1} names."""
        m = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
        n, p = m.shape
        return cls(m, tuple(f"f{j}" for j in range(p)), tuple(f"s{i}" for i in range(n)),
                   labels=labels)

    def select_features(self, indices) -> "Dataset":
        """Restrict to the given column indices (order preserved)."""
        idx = np.asarray(indices, dtype=np.int64)
        # take returns a C-ordered array of its own; matrix[:, idx] is a view of a
        # transposed buffer, which Dataset would copy a second time
        return Dataset(_read_only(self.matrix.take(idx, axis=1)),
                       tuple(self.feature_names[j] for j in idx),
                       self.sample_ids, labels=self.labels)

    def subset_samples(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(_read_only(self.matrix[idx]),
                       self.feature_names,
                       tuple(self.sample_ids[i] for i in idx),
                       labels=None if self.labels is None else self.labels[idx])


def _read_only(m: np.ndarray) -> np.ndarray:
    """A fresh array no caller holds, marked so that Dataset keeps it without a copy."""
    m.flags.writeable = False
    return m


def _lines(fh):
    """The lines of the binary file fh after a UTF-8 byte-order mark, each
    decoded on its own. bytes.splitlines ends a line at \\n, \\r\\n or a
    lone \\r, as newline='' does, and UTF-8 never puts 0x0A or 0x0D inside a
    character, so a byte that is not UTF-8 raises only when its line is read:
    the first error in file order is the one named."""
    if fh.read(3) != b"\xef\xbb\xbf":
        fh.seek(0)
    for raw in fh:
        yield from (line.decode("utf-8") for line in raw.splitlines(keepends=True))


def _csv_rows(path, lines, delim):
    """The non-empty csv rows of lines; a csv.Error becomes a ParseError naming its row."""
    r = 1  # the row the reader reads next
    try:
        for row in csv.reader(lines, delimiter=delim):
            if row:
                r += 1
                yield row
    except csv.Error as e:  # a field over csv.field_size_limit(), say
        raise ParseError(f"{path}: {e} at row {r}") from None


def _parse_rows(path, rows):
    """Header, row ids and matrix from csv rows, checked cell by cell."""
    header = next(rows)
    width = len(header)
    if width < 2:
        raise ParseError(f"{path}: need at least one data column besides the ID column")
    ids, values = [], []
    for r, row in enumerate(rows, start=2):
        if len(row) != width:
            raise ParseError(f"{path}: row {r} has {len(row)} fields, expected {width}")
        ids.append(row[0])
        parsed = []
        for c, cell in enumerate(row[1:], start=2):
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: non-numeric value {cell!r} at row {r}, column {c}") from None
            if not math.isfinite(v):
                raise ParseError(
                    f"{path}: non-finite value {cell!r} at row {r}, column {c}")
            parsed.append(v)
        values.append(parsed)
    if not values:
        raise ParseError(f"{path}: no data rows")
    return header, ids, np.asarray(values, dtype=np.float64)


# a quote or a lone carriage return changes how csv splits a line; np.loadtxt
# strips \x1c-\x1f around a number, float() rejects them
_DECLINED = '"\r\x1c\x1d\x1e\x1f'

# fewest cells worth one more parsing process: on 2 CPUs two processes broke
# even with one at 20-25k cells (about 3 ms) and won from 30k
_CELLS_PER_PROCESS = 20_000

# read buffer of the serial scan: one read per MB, not per 8 KB, of a wide
# file's long lines (3 ms against 15 ms for the 165x12626 table's 41 MB)
_SCAN_BUFFER = 1 << 20


def _loadtxt(rows, delim):
    return np.loadtxt(rows, delimiter=delim, comments=None, dtype=np.float64, ndmin=2)


def _text(raw: bytes) -> str:
    """raw decoded as UTF-8; ValueError if not UTF-8 or holding a ``_DECLINED`` character."""
    text = raw.decode("utf-8")
    if any(ch in text for ch in _DECLINED):
        raise ValueError("a character np.loadtxt and csv read differently")
    return text


def _scan(fh, delim: bytes):
    """Header, row ids and the (start, end) file offsets of each data row's
    numeric text, from one pass over the binary file fh.

    Each line is split at \\n, and one \\r before it is dropped; empty lines
    are skipped, as csv skips them. Only the header and the row ids are
    decoded. Raises ValueError at a line without a data cell or at a header
    or id ``_text`` declines.
    """
    pos = 3 if fh.read(3) == b"\xef\xbb\xbf" else 0   # a UTF-8 byte-order mark
    fh.seek(pos)
    header, ids, spans = None, [], []
    for line in fh:
        start, pos = pos, pos + len(line)
        end = len(line) - (2 if line.endswith(b"\r\n") else line.endswith(b"\n"))
        if not end:
            continue
        cut = line.find(delim, 0, end)
        if cut < 0 or cut + 1 == end:
            raise ValueError("a row without a data cell")
        if header is None:
            header = _text(line[:end]).split(delim.decode())
        else:
            ids.append(_text(line[:cut]))
            spans.append((start + cut + 1, start + end))
    return header, ids, spans


def _parse_block(path, delim: str):
    """Header, row ids and matrix of a well-formed file, parsed by np.loadtxt.

    This process scans the file once for the header, the row ids and the
    byte span of each row's numeric text (``_scan``). Each ``run_in_blocks``
    job then opens the file itself and parses its own rows in one np.loadtxt
    call, which reads and decodes them from their spans one at a time, so no
    process holds more than one line's text.

    Returns None whenever the result might differ from ``_parse_rows``: a
    byte that is not UTF-8, a ``_DECLINED`` character, a row without a data
    cell, a cell np.loadtxt rejects, a block of another width than the
    header's, or a non-finite value.
    """
    def rows(fh, lo, hi):
        for start, end in spans[lo:hi]:
            fh.seek(start)
            raw = fh.read(end - start)
            if len(raw) != end - start:
                raise ValueError("the file is shorter than when scanned")
            yield _text(raw)

    def job(lo, hi):
        # a handle of its own: a forked child shares the offset of this process's handles
        with open(path, "rb") as fh:
            block = _loadtxt(rows(fh, lo, hi), delim)
        if not np.isfinite(block).all():
            raise ValueError("a non-finite value")
        return block

    try:
        with open(path, "rb", buffering=_SCAN_BUFFER) as fh:
            header, ids, spans = _scan(fh, delim.encode())
        if not spans:
            return None
        n, width = len(spans), len(header) - 1
        matrix = run_in_blocks(n, n * width // _CELLS_PER_PROCESS, (width,), job)
    except (ValueError, OSError):  # declined, a block of another width, no memory
        return None
    return header, ids, matrix


def load_matrix(path, orientation: str = "rows") -> Dataset:
    """Load a delimited text matrix (one header row, one leading ID column).

    orientation "rows" means samples are rows; "cols" means samples are
    columns (the table is transposed on load).

    A file without quotes is scanned once for the byte span of each row's
    numeric text, and the rows are then read and parsed by np.loadtxt in
    blocks across processes (``run_in_blocks``), at most one per
    ``_CELLS_PER_PROCESS`` cells, each block reading only its own rows.
    Any file that np.loadtxt cannot take as is (quoted fields, ragged rows,
    blank or non-finite cells, cells such as ``1_0`` that only float()
    accepts, bytes that are not UTF-8) is parsed again row by row, which
    raises the ParseError naming the row, column and cell. Both parsers give
    the same matrix, bit for bit, on every file the first one accepts. Empty
    lines are skipped; the delimiter is a tab if the first non-empty line
    holds one, else a comma, and a file without a non-empty line is empty.
    A byte that is not UTF-8 raises a ParseError naming the file and the
    byte, unless an earlier row holds another error: the first error in file
    order is named. A UTF-8 byte-order mark at the start is skipped.
    """
    if orientation not in ("rows", "cols"):
        raise InputError(f"orientation must be 'rows' or 'cols', got {orientation!r}")
    try:
        with open(path, "rb") as fh:
            # both parsers skip empty lines
            first = next((ln for ln in _lines(fh) if ln not in ("\n", "\r\n", "\r")), "")
            if not first:
                raise ParseError(f"{path}: empty file")
            delim = "\t" if "\t" in first else ","
            parsed = _parse_block(path, delim)
            if parsed is None:
                fh.seek(0)
                parsed = _parse_rows(path, _csv_rows(path, _lines(fh), delim))
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 (byte {e.object[e.start]:#04x}: {e.reason})") from None
    header, ids, matrix = parsed
    if orientation == "cols":
        matrix = matrix.T.copy()
        feature_names, sample_ids = tuple(ids), tuple(header[1:])
    else:
        feature_names, sample_ids = tuple(header[1:]), tuple(ids)
    counts = Counter(feature_names)
    if len(counts) != len(feature_names):
        dupes = sorted(nm for nm, k in counts.items() if k > 1)
        raise ParseError(f"{path}: duplicate feature names {dupes}")
    return Dataset(_read_only(matrix), feature_names, sample_ids)


def save_matrix(data: Dataset, path) -> None:
    """Write a Dataset back to TSV with full round-trip float precision."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("id\t" + "\t".join(data.feature_names) + "\n")
        for sid, row in zip(data.sample_ids, data.matrix):
            fh.write(sid + "\t" + "\t".join(repr(float(v)) for v in row) + "\n")


def load_labels(path) -> np.ndarray:
    """One integer label per line, same order as the matrix samples."""
    out = []
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for ln, line in enumerate(fh, start=1):
                text = line.strip()
                if not text:
                    continue
                try:
                    out.append(int(text))
                except ValueError:
                    raise ParseError(f"{path}: non-integer label {text!r} on line {ln}") from None
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 (byte {e.object[e.start]:#04x}: {e.reason})") from None
    if not out:
        raise ParseError(f"{path}: no labels found")
    return np.asarray(out, dtype=np.int64)


def standardize(data: Dataset) -> Dataset:
    """Center each column and scale to unit (population) standard deviation.

    Constant columns are set to exactly zero instead of being divided by zero.
    """
    X = data.matrix
    out = X - X.mean(axis=0)
    sd = np.sqrt(np.mean(out * out, axis=0))
    const = np.flatnonzero((np.ptp(X, axis=0) == 0) | (sd == 0))
    sd[const] = 1.0
    out /= sd
    out[:, const] = 0.0
    return replace(data, matrix=_read_only(out))
