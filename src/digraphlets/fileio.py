"""CSV / JSON readers and writers for pipeline artifacts.

All numeric text output is rendered at 9 significant digits so that
fixed inputs give byte-identical files across platforms and runs.

Text output (CSV tables here, edge lists in ``graph``) goes through one
gather kernel, ``_joined``: a table is formatted once per distinct cell
and then copied out as bytes, token by token, with no Python loop over
cells or arcs.  The tokens are gathered in blocks of ``_BLOCK`` so that
the byte-index arrays stay a few MB whatever the size of the text.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import InputError, naming


def _texts(numbers, head="") -> list[str]:
    """The canonical text of each number in a 1-D array, after ``head``:
    integer and boolean arrays as plain integers, any other at 9
    significant digits with ``-0`` as ``0``."""
    if numbers.dtype.kind in "biu":
        form = "%d\n"
    else:
        form, numbers = "%.9g\n", numbers.astype(float) + 0.0  # -0.0 + 0.0 is 0.0
    # one formatting call for every number, rather than one call each
    return ((head + form) * len(numbers) % tuple(numbers.tolist())).split("\n")[:-1]


def fmt_number(x) -> str:
    """Canonical text for a number: ints plain, floats at 9 sig digits."""
    return _texts(np.array([x]))[0]


def round9(x) -> float:
    """Float rounded to its 9-significant-digit text form (for JSON)."""
    return float(fmt_number(x))


def read_text(path) -> str:
    """Whole UTF-8 file, less a leading byte-order mark; unreadable or
    non-UTF-8 files raise InputError."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def read_parsed(path, parse):
    """``parse`` of a file's text; every InputError names the file."""
    text = read_text(path)
    with naming(path):
        return parse(text)


def write_text(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def write_json(path, obj) -> None:
    write_text(path, json.dumps(obj, indent=2) + "\n")


_BLOCK = 1 << 16  # tokens per gather: its index arrays stay O(block), not O(text)


def _joined(words, tokens) -> str:
    """``"".join(words[t] for t in tokens)``, as one byte gather: the words
    are concatenated and encoded once, and each block of ``_BLOCK`` tokens
    copies its words' bytes into the output in one ``np.take``."""
    text = "".join(words)
    data = np.frombuffer(text.encode(errors="surrogatepass"), np.uint8)
    if len(data) != len(text):  # not all ASCII: a word's size is its bytes, not characters
        words = [w.encode(errors="surrogatepass") for w in words]
    size = np.fromiter(map(len, words), np.int64, len(words))
    start = np.cumsum(size) - size
    out = np.empty(np.bincount(tokens, minlength=len(words)) @ size, np.uint8)
    at = 0
    for first in range(0, len(tokens), _BLOCK):
        t = tokens[first : first + _BLOCK]
        s = size[t]
        end = np.cumsum(s)
        # byte j of the block is byte j - (end[k] - s[k]) of token k's word
        index = np.repeat(start[t] - end + s, s)
        index += np.arange(end[-1])
        # every index is in range; mode "raise" would copy through a buffer
        np.take(data, index, out=out[at : at + end[-1]], mode="clip")
        at += end[-1]
    return str(out, "utf-8", "surrogatepass")


def _distinct_cells(columns, row_labels, values):
    """The distinct cells of a table, and the (rows, columns) index of each
    cell among them."""
    values = np.asarray(values)
    if values.shape != (len(row_labels), len(columns)):
        raise ValueError(
            f"values of shape {values.shape} do not fit {len(row_labels)} row labels "
            f"by {len(columns)} columns"
        )
    unique, inverse = np.unique(values.ravel(), return_inverse=True)
    return unique, inverse.reshape(values.shape)


# csv quotes a field holding one of these characters, or an empty one
_QUOTED = re.compile(r'[",\r\n]')


def table_csv(corner: str, columns, row_labels, values) -> str:
    """One header row then one row per label, all cells canonical text.

    The rows are gathered from two kinds of word: ``\n`` and a label, and
    ``,`` and a distinct cell, formatted in one call.  csv writes the
    header, and each label it would quote just as it would in the row."""
    unique, inverse = _distinct_cells(columns, row_labels, values)
    n, k = inverse.shape
    row = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow  # returns the text
    labels = [
        "\n" + label if label and not _QUOTED.search(label)
        else "\n" + row([label, ""])[:-2] if k
        else "\n" + row([label])[:-1]
        for label in row_labels
    ]
    tokens = np.empty((n, k + 1), np.int32)
    tokens[:, 0] = np.arange(n) + len(unique)
    tokens[:, 1:] = inverse
    text = _joined(_texts(unique, ",") + labels, tokens.ravel())
    return f"{row([corner, *columns])[:-1]}{text}\n"


def write_table_csv(path, corner, columns, row_labels, values) -> None:
    write_text(path, table_csv(corner, columns, row_labels, values))


def table_json(columns, row_labels, values):
    """The cells of ``table_csv`` as JSON numbers: integers stay integers."""
    unique, inverse = _distinct_cells(columns, row_labels, values)
    number = int if unique.dtype.kind in "biu" else float
    cells = np.array(list(map(number, _texts(unique))), dtype=object)
    return {"columns": list(columns), "index": list(row_labels),
            "values": cells[inverse].tolist()}


@dataclass(eq=False)
class SignatureTable:
    """Labelled numeric table read back from a signature CSV."""

    labels: tuple[str, ...]
    values: np.ndarray


def csv_rows(text: str):
    """``(line, cells, values)`` of each row with a non-blank cell: the line it ends on,
    its cells, and those after the first as float64, or the ValueError ``float()`` gives.
    A ``csv.Error`` (a field over ``csv.field_size_limit()``) raises InputError."""
    reader = csv.reader(io.StringIO(text))
    try:
        for cells in reader:
            if any(cell.strip() for cell in cells):
                try:
                    values = np.array(cells[1:], dtype=np.float64)
                except ValueError as exc:
                    values = exc
                yield reader.line_num, cells, values
    except csv.Error as exc:
        raise InputError(f"line {reader.line_num}: {exc}") from exc


def parse_signature_csv(text: str) -> SignatureTable:
    """Table of a header row and uniquely labelled rows of finite numbers; an
    error names the physical line its row ends on, blank lines counted."""
    rows = csv_rows(text)
    header = next(rows, (0, ()))[1]
    table = {}  # label: (line, values), in row order
    for lineno, row, numbers in rows:
        if len(header) < 2:  # a header with no row below fails as such, after the loop
            raise InputError("signature CSV header needs vertex plus value columns")
        if len(row) != len(header):
            raise InputError(
                f"line {lineno}: expected {len(header)} cells, got {len(row)}"
            )
        label = row[0].strip()
        if "\n" in label or "\r" in label:
            raise InputError(f"line {lineno}: label holds a line break")
        if label in table:
            raise InputError(
                f"line {lineno}: duplicate label {label!r} (first on line {table[label][0]})"
            )
        if isinstance(numbers, ValueError):
            raise InputError(f"line {lineno}: non-numeric cell: {numbers}") from numbers
        if not np.isfinite(numbers).all():
            raise InputError(f"line {lineno}: non-finite cell")
        table[label] = lineno, numbers
    if not table:
        raise InputError("signature CSV needs a header and at least one row")
    return SignatureTable(tuple(table), np.array([v for _, v in table.values()]))


def read_signature_csv(path) -> SignatureTable:
    return read_parsed(path, parse_signature_csv)
