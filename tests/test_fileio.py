import csv
import io
import json

import numpy as np
import pytest

from digraphlets.errors import InputError
from digraphlets.fileio import fmt_number, read_text, table_csv, table_json, write_text


def reference_table_csv(corner, columns, row_labels, values):
    """Cell-by-cell ``fmt_number`` rendering, the reference for the
    row-wise ``table_csv``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([corner, *columns])
    for label, row in zip(row_labels, np.asarray(values)):
        writer.writerow([label, *(fmt_number(v) for v in row)])
    return out.getvalue()


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
    path.write_bytes(b"a b\n\xff\xfe c\n")
    with pytest.raises(InputError, match="^cannot read .*t.txt: 'utf-8' codec"):
        read_text(path)
    with pytest.raises(InputError, match="^cannot read .*missing.txt: "):
        read_text(tmp_path / "missing.txt")
    with pytest.raises(InputError, match="^cannot read "):
        read_text(tmp_path)  # a directory
