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
Prim's maximum spanning tree joins them.  The same Prim pass over the
pruned skeleton gives ``skeleton_summary``'s largest component.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError, UnprunableError
from .fileio import csv_rows, read_parsed
from .graph import DirectedGraph, _check_labels

CONNECTIVITY = 0.99  # least share of vertices in the largest weak component
DEGREE_FACTOR = 2.0  # least total degree is DEGREE_FACTOR * ln(n)


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
    """
    try:  # a complex array would otherwise lose its imaginary part
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            values = np.array(values, dtype=np.float64)
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
        np.fill_diagonal(values, 0.0)
    return WeightedMatrix(labels, values)


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def parse_weighted_csv(text: str) -> WeightedMatrix:
    """Parse a CSV weight matrix with optional label row/column.

    The first row is taken as column labels when any of its cells is
    non-numeric; likewise the first column for row labels.  Row labels
    win when both are present.  A row with another cell count than the
    first row below the header fails as ``row N``, N counting the
    non-blank rows.  Each row's cells after the first are converted to
    floats as the row is read, so only the first row and the first
    column are kept as text.
    """
    top, column, lengths, cells = None, [], [], []
    for _, row, values in csv_rows(text):
        top = top or row
        column.append(row[0])
        lengths.append(len(row))
        cells.append(values)  # a ValueError is raised once every row's length is checked
    if top is None:
        raise InputError("weight matrix file is empty")
    # A non-numeric cell after the first marks row 0 as column labels
    # (the corner cell may be anything, including empty).
    has_header = any(not _is_number(c.strip()) and c.strip() != "" for c in top[1:])
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
    values = np.array(cells)
    has_row_labels = any(not _is_number(c.strip()) for c in column)
    labels = None
    if has_row_labels:
        labels = tuple(c.strip() for c in column)
    else:
        values = np.hstack((np.array(column, dtype=np.float64)[:, None], values))
        if has_header:
            labels = tuple(c.strip() for c in (top[1:] if len(top) == lengths[0] + 1 else top))
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


def prune_weighted(w: WeightedMatrix) -> tuple[DirectedGraph, float]:
    """Prune to the largest threshold keeping the matrix well connected.

    Arcs are kept where |w_ij| > t, for the largest t at which at least
    ``CONNECTIVITY`` of the vertices share one weak component and every
    total degree is at least ``DEGREE_FACTOR * ln(n)``.  Raises
    UnprunableError when even t = 0 violates a criterion.
    """
    n = w.n
    if n < 3:
        raise InputError("pruning needs at least 3 vertices")
    strength = np.abs(w.values)
    np.fill_diagonal(strength, 0.0)
    sym = np.maximum(strength, strength.T)
    # degree: row i keeps k neighbours exactly while t < its k-th largest
    k = math.ceil(DEGREE_FACTOR * math.log(n))
    t_deg = np.partition(sym, n - k, axis=1)[:, n - k].min()
    # connectivity: ceil(0.99 n) vertices share a component exactly
    # while that many - 1 join weights in a row are > t
    window = math.ceil(CONNECTIVITY * n) - 1
    t_conn = sliding_window_view(_join_weights(sym), window).min(axis=1).max()
    bound = min(t_deg, t_conn)
    if bound <= 0:
        raise UnprunableError("no threshold satisfies the connectivity and "
                              "degree criteria")
    t = float(strength[strength < bound].max())  # never empty: the diagonal is 0
    graph = DirectedGraph.from_arcs(np.argwhere(strength > t), n=n, labels=w.labels)
    return graph, t


def skeleton_summary(graph: DirectedGraph) -> dict:
    """Connectivity facts about a graph's undirected skeleton.

    O(n^2) time and n^2 bytes (a Prim pass over the dense 0/1 skeleton),
    the same order as ``prune``, whose output this checks.
    """
    n = graph.n
    skel = np.zeros((n, n), dtype=np.int8)
    lo, hi = np.divmod(graph.keys, n)
    skel[lo, hi] = skel[hi, lo] = 1
    cuts = np.flatnonzero(np.r_[True, _join_weights(skel) == 0, True])
    return {
        "largest_component_fraction": int(np.diff(cuts).max()) / n,
        "min_total_degree": int(graph.degrees.sum(axis=1).min()),
        "degree_floor": DEGREE_FACTOR * math.log(n),
    }
