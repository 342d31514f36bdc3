import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import digraphlets as dg
from digraphlets import fileio
from digraphlets.cli import main
from digraphlets.errors import InputError
from digraphlets.fileio import (
    SignatureTable,
    fmt_number,
    parse_signature_csv,
    read_signature_csv,
    read_text,
    table_csv,
    table_json,
    write_text,
)


def reference_cell(kind):
    """The text of one cell of a table of dtype kind ``kind``: integer and
    boolean cells as ``str(int(v))``, any other as ``"{:.9g}"`` of
    ``float(v)``, with ``-0`` as ``0``."""
    if kind in "biu":
        return lambda v: str(int(v))
    return lambda v: "{:.9g}".format(float(v) or 0.0)  # -0.0 is falsy


def reference_table_csv(corner, columns, row_labels, values):
    """Cell-by-cell ``csv.writer`` rendering, the reference for the gathered
    ``table_csv``."""
    values = np.asarray(values)
    cell = reference_cell(values.dtype.kind)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([corner, *columns])
    for label, row in zip(row_labels, values, strict=True):
        writer.writerow([label, *map(cell, row)])
    return out.getvalue()


def assert_table_writes_like_reference(case):
    corner, columns, labels, values = case
    got = table_csv(corner, columns, labels, values)
    assert got == reference_table_csv(corner, columns, labels, values)
    cells = values.ravel()[:3]  # the scalar formatter follows the same rule
    assert list(map(fmt_number, cells)) == list(map(reference_cell(values.dtype.kind), cells))


_LABEL = st.one_of(
    st.text(st.sampled_from(['"', ",", "\n", "\r", "é", "°", "東", "a", " "]), max_size=3),
    st.text(max_size=3),
)
_INT64 = st.one_of(
    st.sampled_from([-(2**63 - 1), 2**63 - 1, -(2**63), -1, 0]), st.integers(-(2**63), 2**63 - 1)
)


@st.composite
def tables(draw):
    """(corner, columns, row labels, values) of a table of 0 to 5 rows and
    0 to 4 columns: int64 (its extremes included), uint8, uint64, bool, or
    float64 or float32 with NaN, infinities, -0.0 and subnormals.  Labels may
    be empty, repeat, or hold quotes, commas, line breaks or non-ASCII text."""
    dtype = draw(st.sampled_from([np.int64, np.uint8, np.uint64, np.bool_, np.float64, np.float32]))
    shape = draw(st.integers(0, 5)), draw(st.integers(0, 4))
    elements = _INT64 if dtype is np.int64 else None
    values = draw(arrays(dtype, shape, elements=elements))
    labels = draw(st.lists(_LABEL, min_size=shape[0], max_size=shape[0]))
    columns = draw(st.lists(_LABEL, min_size=shape[1], max_size=shape[1]))
    return draw(_LABEL), columns, labels, values


@settings(deadline=None, max_examples=200)
@given(tables())
def test_table_csv_matches_cell_by_cell_reference_on_any_table(case):
    assert_table_writes_like_reference(case)


def test_table_csv_crosses_gather_blocks():
    # more tokens (1 per cell, 1 per row) than one gather block holds
    rng = np.random.default_rng(6)
    labels = [f"v{i}°" if i % 7 else f'"{i}"' for i in range(1400)]
    columns = [f"c{j}" for j in range(50)]
    assert 1400 * (50 + 1) > fileio._BLOCK
    for values in (rng.integers(-(10**6), 10**6, (1400, 50)), rng.standard_normal((1400, 50))):
        assert_table_writes_like_reference(("vertex", columns, labels, values))


@pytest.mark.parametrize("labels, columns", [(["x"], ["a", "b"]), (["x", "y"], ["a"])],
                         ids=["rows", "columns"])
def test_table_writers_reject_values_of_another_shape(labels, columns):
    values = [[1, 2], [3, 4]]
    for write in (lambda: table_csv("v", columns, labels, values),
                  lambda: table_json(columns, labels, values)):
        with pytest.raises(ValueError, match=r"^values of shape \(2, 2\) do not fit"):
            write()


def _tables():
    rng = np.random.default_rng(5)
    floats = rng.standard_normal((6, 4)) * 10.0 ** rng.integers(-12, 12, (6, 4))
    floats[0, :] = [-0.0, 0.0, np.nan, -np.inf]
    floats[1, :] = [np.inf, 1e-320, 123456789.5, 0.1 + 0.2]
    return [
        rng.integers(-(10**12), 10**12, (6, 4)),
        rng.integers(0, 255, (6, 4)).astype(np.uint8),
        rng.integers(-1, 2, (6, 4)) > 0,
        floats,
        floats.astype(np.float32),
        np.zeros((0, 4)),
    ]


@pytest.mark.parametrize("values", _tables(), ids=lambda v: str(v.dtype))
def test_table_csv_matches_cell_by_cell_reference(values):
    labels = ["v0", 'q"uote', "with,comma", "x", "y", "z"][: len(values)]
    columns = ["c0", "c1", "c,2", "c3"]
    got = table_csv("vertex", columns, labels, values)
    assert got == reference_table_csv("vertex", columns, labels, values)


@pytest.mark.parametrize("values", _tables(), ids=lambda v: str(v.dtype))
def test_table_json_holds_the_cells_of_table_csv(values):
    """Integer and boolean cells are JSON integers, others the JSON
    floats that the CSV cells read back as."""
    labels = ["v0", 'q"uote', "with,comma", "x", "y", "z"][: len(values)]
    columns = ["c0", "c1", "c,2", "c3"]
    data = json.loads(json.dumps(table_json(columns, labels, values)))
    assert data["columns"] == columns and data["index"] == labels
    rows = list(csv.reader(io.StringIO(table_csv("vertex", columns, labels, values))))
    for got, want in zip(data["values"], rows[1:], strict=True):
        if values.dtype.kind in "biu":
            assert [type(v) for v in got] == [int] * 4 and list(map(str, got)) == want[1:]
        else:
            assert [type(v) for v in got] == [float] * 4
            assert np.array_equal(got, np.array(want[1:], dtype=float), equal_nan=True)


def test_read_text_round_trip_and_errors(tmp_path):
    path = tmp_path / "t.txt"
    write_text(path, "a b\né c\n")
    assert read_text(path) == "a b\né c\n"
    path.write_bytes(b"a b\r\nc d\n")
    assert read_text(path) == "a b\nc d\n"  # universal newlines, as before
    path.write_bytes("\ufeffa b\n\ufeffc d\n".encode())
    assert read_text(path) == "a b\n\ufeffc d\n"  # a leading byte-order mark only
    path.write_bytes(b"a b\n\xff\xfe c\n")
    with pytest.raises(InputError, match="^cannot read .*t.txt: 'utf-8' codec"):
        read_text(path)
    with pytest.raises(InputError, match="^cannot read .*missing.txt: ") as caught:
        read_text(tmp_path / "missing.txt")
    assert str(caught.value).count(str(tmp_path / "missing.txt")) == 1
    with pytest.raises(InputError, match="^cannot read "):
        read_text(tmp_path)  # a directory


def reference_signature_csv(text):
    """Cell-by-cell ``float`` reading of a signature CSV, the reference
    for ``parse_signature_csv``: rows with no non-blank cell are skipped,
    and every check runs in the parser's order."""
    reader = csv.reader(io.StringIO(text))
    rows = [(reader.line_num, r) for r in reader if any(c.strip() for c in r)]
    if len(rows) < 2:
        raise InputError("signature CSV needs a header and at least one row")
    header = rows[0][1]
    if len(header) < 2:
        raise InputError("signature CSV header needs vertex plus value columns")
    first, values = {}, []
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise InputError(f"line {lineno}: expected {len(header)} cells, got {len(row)}")
        label = row[0].strip()
        if "\n" in label or "\r" in label:
            raise InputError(f"line {lineno}: label holds a line break")
        if label in first:
            raise InputError(
                f"line {lineno}: duplicate label {label!r} (first on line {first[label]})"
            )
        first[label] = lineno
        try:
            cells = [float(c) for c in row[1:]]
        except ValueError as exc:
            raise InputError(f"line {lineno}: non-numeric cell: {exc}") from exc
        if not all(map(math.isfinite, cells)):
            raise InputError(f"line {lineno}: non-finite cell")
        values.append(cells)
    return SignatureTable(tuple(first), np.array(values))


def _read_outcome(parse, text):
    """Labels, dtype, shape and value bytes of a read table, or its error text."""
    try:
        table = parse(text)
    except InputError as exc:
        return str(exc)
    return table.labels, table.values.dtype, table.values.shape, table.values.tobytes()


def assert_signature_reads_like_reference(text):
    assert _read_outcome(parse_signature_csv, text) == _read_outcome(reference_signature_csv, text)


_NUMBER = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
_ODD_CELL = st.sampled_from([
    "", " ", " 1 ", "\t2\n", "1_000", "+.5", "1e400", "-1e-400", "nan", "-NaN", "inf",
    "-Infinity", "x", "0x10", "1,5", "\u0661\u0662", 'a"b', "True", "1+2j", "\x1c1", "2\x1f",
])
_ODD_LABEL = st.sampled_from(["a", " a ", "", "x\ny", "p\rq", "\r\n", "c,d", 'q"t', "é"])
_BLANK_ROW = st.sampled_from(["", ",,", ",,,", " , ,\t", "   ", '""', '" ",'])


@st.composite
def _cell_text(draw, cell):
    """``cell`` as CSV text: quoted when it must be, and at random."""
    if draw(st.booleans()) or any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


@st.composite
def signature_csv_texts(draw):
    """Signature CSV text: a header of 1 to 4 columns (now and then
    missing or after blank rows), then rows of numbers, in half the texts
    mixed with blank and all-blank rows.  Labels may repeat; about half
    the texts also hold labels and cells that are quoted, hold line
    breaks or are non-numeric, non-finite or blank, and a quarter hold
    ragged rows."""
    width = draw(st.sampled_from([1, 2, 2, 3, 3, 3, 4, 4, 4]))
    odd, ragged, blank = draw(st.booleans()), draw(st.booleans()), draw(st.booleans())
    label = st.integers(0, 30).map(str)
    cell = _NUMBER
    if odd:
        label, cell = st.one_of(label, _ODD_LABEL), st.one_of(cell, cell, _ODD_CELL)
    lines = draw(st.lists(_BLANK_ROW, max_size=2)) if blank else []
    if draw(st.integers(0, 9)):
        lines.append(",".join(["vertex", *(f"c{i}" for i in range(1, width))]))
    for _ in range(draw(st.integers(0, 8))):
        if blank and draw(st.integers(0, 4)) == 0:
            lines.append(draw(_BLANK_ROW))
            continue
        size = max(width - 1 + (draw(st.sampled_from([-1, 0, 0, 0, 0, 0, 1])) if ragged else 0), 0)
        cells = [draw(label), *(draw(cell) for _ in range(size))]
        lines.append(",".join(draw(_cell_text(c)) for c in cells))
    sep = draw(st.sampled_from(["\n", "\r\n"]))
    return sep.join(lines) + draw(st.sampled_from(["", sep]))


@settings(deadline=None, max_examples=300)
@given(signature_csv_texts())
def test_signature_reader_matches_per_cell_reference(text):
    assert_signature_reads_like_reference(text)


def test_signature_tables_are_read_row_by_row(tmp_path, monkeypatch):
    # a census signature table goes through the per-row loop alone, and reads
    # to the labels and values that a bulk parse of its cells gives
    dg.save_edge_list(dg.random_digraph(450, 30 / 449, seed=5), tmp_path / "g.edgelist")
    assert main(["census", str(tmp_path / "g.edgelist"), "--out", str(tmp_path)]) == 0
    path = tmp_path / "signature.csv"
    head = path.read_text().split("\n", 1)[0].split(",")
    labels = np.loadtxt(path, dtype=str, delimiter=",", skiprows=1, usecols=0, ndmin=1)
    values = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(1, len(head)), ndmin=2)

    def bulk(*args, **kwargs):
        pytest.fail("a signature table reached the bulk read")

    monkeypatch.setattr(np, "loadtxt", bulk)
    table = read_signature_csv(path)
    assert table.labels == tuple(labels) and len(labels) == 450
    assert table.values.dtype == values.dtype and table.values.tobytes() == values.tobytes()
