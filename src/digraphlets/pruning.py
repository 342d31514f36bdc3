"""Threshold pruning of weighted connectivity matrices.

A weighted matrix (e.g. causality coefficients between regions) is
turned into a digraph by keeping arcs whose weight magnitude exceeds a
threshold t.  The returned threshold is the largest one for which both
hold after pruning:

  (i)  at least 99% of the vertices lie in the largest weakly
       connected component, and
  (ii) every vertex keeps total degree (out + in + reciprocal, a
       reciprocal edge counted once) of at least 2 * ln(n).

Both criteria only lose arcs as t grows, so each holds exactly below a
bound on ``max(|W|, |W|^T)``: a per-row order statistic for (ii), and
for (i) the best window of 99% of the vertices in the order in which
Prim's maximum spanning tree joins them.  The pruned graph's largest
component is the longest run of that join order between join weights
<= t, so the same pass reports it.

Working set: ``prune_weighted`` holds W, ``sym = max(|W|, |W|^T)``
(built in TILE x TILE tiles, so the transpose is read in cache-sized
blocks) and the temporaries of one block of TILE rows, in which it finds
the degree bound, the threshold and the kept arcs: two n x n float64
matrices (8 n^2 bytes each) plus O(TILE n).  The CSV reader's array
becomes W itself, with no second copy.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError, UnprunableError
from .fileio import csv_rows, read_parsed
from .graph import DirectedGraph, _check_labels

CONNECTIVITY = 0.99  # least share of vertices in the largest weak component
DEGREE_FACTOR = 2.0  # least total degree is DEGREE_FACTOR * ln(n)
TILE = 128  # rows and columns per block: a 128 x 128 float64 tile is 128 KB


@dataclass(eq=False)
class WeightedMatrix:
    """Square matrix of connectivity coefficients with a zero diagonal."""

    labels: tuple[str, ...]
    values: np.ndarray

    @property
    def n(self) -> int:
        return len(self.values)


def weighted_matrix(values, labels=None) -> WeightedMatrix:
    """Validate and wrap a square weight matrix.

    Entries must convert like ``float`` (ragged, text and complex input
    fail) and be finite; a nonzero diagonal is zeroed with a warning
    (self-coupling artifacts are common in estimated connectivity).
    Labels (default "0" .. "n-1") must pass the edge-list label rule.
    A float64 array is wrapped as it is; the caller's array is never
    written, so it is copied only when its diagonal must be zeroed.
    """
    try:  # a complex array would otherwise lose its imaginary part
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            values = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, np.exceptions.ComplexWarning) as exc:
        raise InputError(f"non-numeric cell in weight matrix: {exc}") from exc
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        shape = "x".join(map(str, values.shape)) or "a scalar"
        raise InputError(f"weight matrix must be square, got {shape}")
    if not np.isfinite(values).all():
        raise InputError("weight matrix entries must be finite")
    n = values.shape[0]
    labels = _check_labels(range(n) if labels is None else labels, n)
    diag = np.diag(values)
    if (diag != 0).any():
        warnings.warn("zeroing nonzero diagonal of weight matrix", stacklevel=2)
        values = values.copy()
        np.fill_diagonal(values, 0.0)
    return WeightedMatrix(labels, values)


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _is_header(row) -> bool:
    """A non-numeric cell after the first marks a row as column labels
    (the corner cell may be anything, including empty)."""
    return any(not _is_number(c.strip()) and c.strip() != "" for c in row[1:])


def _is_label(cell: str) -> bool:
    return not _is_number(cell.strip())


# a quote, a NUL and a carriage return (which no text read by ``fileio.read_text``
# holds), without which ``csv`` splits a line as str.split(",") does, and
# U+001C..U+001F, which np.loadtxt strips from around a number as whitespace and
# float() does not
_NOT_BULK = '"\x00\r\x1c\x1d\x1e\x1f'


def _lines(text: str):
    """The text's lines, without their ``\\n``, one at a time."""
    start = 0
    while start < len(text):
        stop = text.find("\n", start)
        stop = len(text) if stop < 0 else stop
        yield text[start:stop]
        start = stop + 1


def _split(line: str, limit: int) -> list[str]:
    """The cells ``csv`` reads from a line with none of ``_NOT_BULK``; a
    blank row or a field over ``limit`` characters raises ValueError."""
    cells = line.split(",")
    if not any(cell.strip() for cell in cells) or max(map(len, cells)) > limit:
        raise ValueError
    return cells


def _weight_rows(text: str):
    """``(head, column, values)`` of a weight-matrix CSV text from the
    per-row loop, which words every error: ``head`` is the first row's
    cells if ``_is_header`` holds for them, else None; ``column`` is every
    data row's first cell if any ``_is_label`` and ``values`` the rest as
    float64, else ``column`` is None and ``values`` holds every cell."""
    top, column, lengths, cells = None, [], [], []
    for _, row, values in csv_rows(text):
        top = top or row
        column.append(row[0])
        lengths.append(len(row))
        cells.append(values)  # a ValueError is raised once every row's length is checked
    if top is None:
        raise InputError("weight matrix file is empty")
    has_header = _is_header(top)
    if has_header:
        del column[0], lengths[0], cells[0]
    if not lengths:
        raise InputError("weight matrix has a header but no rows")
    for number, length in enumerate(lengths, start=1 + has_header):
        if length != lengths[0]:
            raise InputError(f"row {number}: expected {lengths[0]} cells, got {length}")
    failure = next((c for c in cells if isinstance(c, ValueError)), None)
    if failure is not None:
        raise InputError(f"non-numeric cell in weight matrix: {failure}") from failure
    head, values = (top if has_header else None), np.array(cells)
    if any(map(_is_label, column)):
        return head, column, values
    try:  # a cell such as "\x1c1" is a number only once stripped
        first = np.array(column, dtype=np.float64)
    except ValueError as exc:
        raise InputError(f"non-numeric cell in weight matrix: {exc}") from exc
    return head, None, np.hstack((first[:, None], values))


def _bulk_rows(text: str):
    """``_weight_rows``'s ``(head, column, values)`` with the cells read in
    one ``np.loadtxt`` call, or None when only ``_weight_rows`` reads the
    text exactly.

    Only the first row and the first column are read as text, and the
    first data row's first cell alone decides whether ``column`` is read.
    Declined: any of ``_NOT_BULK`` in the text, a blank row, a row of
    another width than the first data row, a field over
    ``csv.field_size_limit()`` and a cell np.loadtxt rejects (every cell
    float() rejects, and ``_`` and non-ASCII digits, which float() takes).
    """
    if any(char in text for char in _NOT_BULK):
        return None
    lines, column, limit = _lines(text), [], csv.field_size_limit()

    def cells_read(line):
        """The cells of a data line that np.loadtxt reads: those after the
        label, or all.  numpy checks that every row is as wide as the first."""
        if len(line) > limit:  # csv refuses a field over the limit, not a line
            _split(line, limit)
        cut = line.index(",")  # a line with no comma raises ValueError
        read = line[cut + 1:] if skip else line
        if not read:  # np.loadtxt would skip an empty line
            raise ValueError
        column.append(line[:cut])
        return read

    try:
        line = next(lines, "")
        head = _split(line, limit)
        if _is_header(head):
            line = next(lines, "")
            first = _split(line, limit)
        else:
            first, head = head, None
        if len(first) < 2:
            return None
        skip = _is_label(first[0])
        values = np.loadtxt(map(cells_read, chain([line], lines)), dtype=np.float64,
                            delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return head, (column if skip else None), values


def parse_weighted_csv(text: str) -> WeightedMatrix:
    """Parse a CSV weight matrix with optional label row/column.

    The first row is taken as column labels when any of its cells is
    non-numeric; likewise the first column for row labels.  Row labels
    win when both are present.  A row with another cell count than the
    first row below the header fails as ``row N``, N counting the
    non-blank rows.  The cells are read in one ``_bulk_rows`` call;
    a text it declines, and every error, goes through the per-row loop.
    """
    head, column, values = _bulk_rows(text) or _weight_rows(text)
    labels = None
    if column is not None:
        labels = tuple(c.strip() for c in column)
    elif head is not None:
        labels = tuple(c.strip() for c in (head[1:] if len(head) == values.shape[1] + 1 else head))
    return weighted_matrix(values, labels)


def load_weighted_csv(path) -> WeightedMatrix:
    """Read a weight-matrix CSV; IO and parse problems name the file."""
    return read_parsed(path, parse_weighted_csv)


def _join_weights(sym: np.ndarray) -> np.ndarray:
    """The n - 1 weights, in ``sym``'s dtype and join order, by which
    Prim's maximum spanning tree grown from vertex 0 joins the others.

    ``sym`` is symmetric and >= 0.  For every w, each component of
    ``{sym > w}`` is a run of that order that begins at vertex 0 or at
    a join weight <= w: Prim takes a pair <= w only once no pair > w
    leaves the tree.
    """
    n = len(sym)
    joined = np.empty(n - 1, dtype=sym.dtype)
    best = sym[0].copy()
    best[0] = -1  # in the tree
    for i in range(n - 1):
        v = best.argmax()
        joined[i] = best[v]
        best[v] = -1
        np.maximum(best, sym[v], out=best, where=best >= 0)
    return joined


def _symmetric_strength(values: np.ndarray) -> np.ndarray:
    """``max(|W|, |W|^T)`` with a zero diagonal, built tile by tile so
    that the transpose is read in cache-sized blocks."""
    sym = np.abs(values)
    np.fill_diagonal(sym, 0.0)
    for i in range(0, len(sym), TILE):
        for j in range(i, len(sym), TILE):
            upper, lower = sym[i:i + TILE, j:j + TILE], sym[j:j + TILE, i:i + TILE]
            np.maximum(upper, lower.T, out=upper)
            lower[...] = upper.T
    return sym


def prune_weighted(w: WeightedMatrix) -> tuple[DirectedGraph, float, int]:
    """Prune to the largest threshold keeping the matrix well connected.

    Arcs are kept where |w_ij| > t, for the largest t at which at least
    ``CONNECTIVITY`` of the vertices share one weak component and every
    total degree is at least ``DEGREE_FACTOR * ln(n)``.  Returns the
    pruned graph, t and the number of vertices in the pruned graph's
    largest weak component.  Raises UnprunableError when even t = 0
    violates a criterion.
    """
    n = w.n
    if n < 3:
        raise InputError("pruning needs at least 3 vertices")
    sym = _symmetric_strength(w.values)
    # degree: row i keeps k neighbours exactly while t < its k-th largest
    k = math.ceil(DEGREE_FACTOR * math.log(n))
    t_deg = min(np.partition(sym[i:i + TILE], n - k, axis=1)[:, n - k].min()
                for i in range(0, n, TILE))
    # connectivity: ceil(0.99 n) vertices share a component exactly
    # while that many - 1 join weights in a row are > t
    window = math.ceil(CONNECTIVITY * n) - 1
    joined = _join_weights(sym)
    t_conn = sliding_window_view(joined, window).min(axis=1).max()
    del sym
    bound = min(t_deg, t_conn)
    if bound <= 0:
        raise UnprunableError("no threshold satisfies the connectivity and "
                              "degree criteria")
    # |w| > t just where |w| >= bound: the bound is a value of |W|, so no |w| lies in (t, bound)
    t, arcs = 0.0, []
    for i in range(0, n, TILE):
        block = np.abs(w.values[i:i + TILE])
        np.fill_diagonal(block[:, i:], 0.0)
        t = max(t, block.max(where=block < bound, initial=0.0))
        arcs.append(np.argwhere(block >= bound) + (i, 0))
    graph = DirectedGraph.from_arcs(np.concatenate(arcs), n=n, labels=w.labels)
    largest = np.diff(np.flatnonzero(np.r_[True, joined <= t, True])).max()
    return graph, float(t), int(largest)


def skeleton_summary(graph: DirectedGraph, largest: int) -> dict:
    """Connectivity facts about a pruned graph whose largest weak
    component ``prune_weighted`` found to hold ``largest`` vertices.

    perfbench/child.py times ``cli.skeleton_summary`` by name; it goes
    when ROADMAP item 1 step 2 moves the bench onto the package's records.
    """
    n = graph.n
    return {
        "largest_component_fraction": largest / n,
        "min_total_degree": int(graph.degrees.sum(axis=1).min()),
        "degree_floor": DEGREE_FACTOR * math.log(n),
    }
