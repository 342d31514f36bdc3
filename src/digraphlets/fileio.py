"""CSV / JSON readers and writers for pipeline artifacts.

All numeric text output is rendered at 9 significant digits so that
fixed inputs give byte-identical files across platforms and runs.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError


def fmt_number(x) -> str:
    """Canonical text for a number: ints plain, floats at 9 sig digits."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if x == 0.0:
        x = 0.0  # avoid "-0"
    return f"{x:.9g}"


def round9(x) -> float:
    """Float rounded to its 9-significant-digit text form (for JSON)."""
    return float(fmt_number(x))


def read_text(path) -> str:
    """Whole UTF-8 file; unreadable or non-UTF-8 files raise InputError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def read_parsed(path, parse):
    """``parse`` of a file's text; every InputError names the file."""
    text = read_text(path)
    try:
        return parse(text)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def write_text(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def write_json(path, obj) -> None:
    write_text(path, json.dumps(obj, indent=2) + "\n")


def _table_rows(values):
    """Rows of a table as Python numbers, and the text of one cell, as
    ``fmt_number`` gives them: integer and boolean tables as plain
    integers, anything else at 9 significant digits with ``-0`` as ``0``."""
    values = np.asarray(values)
    if values.dtype.kind in "biu":
        return values.astype(np.int64).tolist(), str
    values = values.astype(float)
    return np.where(values == 0.0, 0.0, values).tolist(), "{:.9g}".format


def table_csv(corner: str, columns, row_labels, values) -> str:
    """One header row then one row per label, all cells canonical text."""
    rows, cell = _table_rows(values)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([corner, *columns])
    writer.writerows([label, *map(cell, row)] for label, row in zip(row_labels, rows))
    return out.getvalue()


def write_table_csv(path, corner, columns, row_labels, values) -> None:
    write_text(path, table_csv(corner, columns, row_labels, values))


def table_json(columns, row_labels, values):
    """The cells of ``table_csv`` as JSON numbers: integers stay integers."""
    rows, cell = _table_rows(values)
    if cell is not str:  # a float as its 9-digit text reads back
        rows = [[float(cell(v)) for v in row] for row in rows]
    return {"columns": list(columns), "index": list(row_labels), "values": rows}


@dataclass(eq=False)
class SignatureTable:
    """Labelled numeric table read back from a signature CSV."""

    labels: tuple[str, ...]
    columns: tuple[str, ...]
    values: np.ndarray


def parse_signature_csv(text: str) -> SignatureTable:
    """Table of a header row and per-vertex rows of finite numbers; an
    error names the physical line its row ends on, blank lines counted."""
    reader = csv.reader(io.StringIO(text))
    rows = [(reader.line_num, r) for r in reader if r]
    if len(rows) < 2:
        raise InputError("signature CSV needs a header and at least one row")
    header = rows[0][1]
    if len(header) < 2:
        raise InputError("signature CSV header needs vertex plus value columns")
    columns = tuple(c.strip() for c in header[1:])
    labels = []
    values = []
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise InputError(
                f"line {lineno}: expected {len(header)} cells, got {len(row)}"
            )
        label = row[0].strip()
        if "\n" in label or "\r" in label:
            raise InputError(f"line {lineno}: label holds a line break")
        labels.append(label)
        try:
            cells = [float(c) for c in row[1:]]
        except ValueError as exc:
            raise InputError(f"line {lineno}: non-numeric cell: {exc}") from exc
        if not all(map(math.isfinite, cells)):
            raise InputError(f"line {lineno}: non-finite cell")
        values.append(cells)
    return SignatureTable(tuple(labels), columns, np.array(values))


def read_signature_csv(path) -> SignatureTable:
    return read_parsed(path, parse_signature_csv)
