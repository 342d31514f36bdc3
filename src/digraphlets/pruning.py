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
bound on ``max(|W|, |W|^T)``: a per-row order statistic for (ii), the
weight at which Kruskal's maximum spanning forest joins 99% for (i).
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError, UnprunableError
from .fileio import read_parsed
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

    Entries must be finite; a nonzero diagonal is zeroed with a warning
    (self-coupling artifacts are common in estimated connectivity).
    Labels (default "0" .. "n-1") must pass the edge-list label rule.
    """
    values = np.array(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise InputError("weight matrix must be square")
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
    non-blank rows.
    """
    rows = [row for row in csv.reader(io.StringIO(text)) if row and any(
        cell.strip() for cell in row)]
    if not rows:
        raise InputError("weight matrix file is empty")
    # A non-numeric cell after the first marks row 0 as column labels
    # (the corner cell may be anything, including empty).
    has_header = any(not _is_number(c.strip()) and c.strip() != "" for c in rows[0][1:])
    body = rows[1:] if has_header else rows
    if not body:
        raise InputError("weight matrix has a header but no rows")
    for number, row in enumerate(body, start=1 + has_header):
        if len(row) != len(body[0]):
            raise InputError(
                f"row {number}: expected {len(body[0])} cells, got {len(row)}"
            )
    has_row_labels = any(not _is_number(r[0].strip()) for r in body)
    labels = None
    if has_row_labels:
        labels = tuple(r[0].strip() for r in body)
        body = [r[1:] for r in body]
    elif has_header:
        header = rows[0][1:] if len(rows[0]) == len(body[0]) + 1 else rows[0]
        labels = tuple(c.strip() for c in header)
    try:
        values = np.array([[float(c) for c in r] for r in body], dtype=np.float64)
    except ValueError as exc:
        raise InputError(f"non-numeric cell in weight matrix: {exc}") from exc
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise InputError(
            f"weight matrix must be square, got {values.shape[0]}x"
            f"{values.shape[1] if values.ndim == 2 else '?'}"
        )
    return weighted_matrix(values, labels)


def load_weighted_csv(path) -> WeightedMatrix:
    """Read a weight-matrix CSV; IO and parse problems name the file."""
    return read_parsed(path, parse_weighted_csv)


def _largest_sizes(n: int, pairs):
    """Yield the largest component size as each (a, b) pair joins."""
    parent = list(range(n))
    size = [1] * n
    largest = 1
    for a, b in pairs:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            if size[a] < size[b]:
                a, b = b, a
            parent[b] = a
            size[a] += size[b]
            largest = max(largest, size[a])
        yield largest


def prune_weighted(w: WeightedMatrix) -> tuple[DirectedGraph, float]:
    """Prune to the largest threshold keeping the matrix well connected.

    Arcs are kept where |w_ij| > t, for the largest t at which at least
    ``CONNECTIVITY`` of the vertices share one weak component and every
    total degree is at least ``DEGREE_FACTOR * ln(n)``.  Raises
    UnprunableError when even t = 0 violates a criterion.  ``w`` may be
    a WeightedMatrix or a plain square array.
    """
    if not isinstance(w, WeightedMatrix):
        w = weighted_matrix(np.asarray(w, dtype=np.float64))
    n = w.n
    if n < 3:
        raise InputError("pruning needs at least 3 vertices")
    strength = np.abs(w.values)
    np.fill_diagonal(strength, 0.0)
    sym = np.maximum(strength, strength.T)
    # degree: row i keeps k neighbours exactly while t < its k-th largest
    k = math.ceil(DEGREE_FACTOR * math.log(n))
    t_deg = np.partition(sym, n - k, axis=1)[:, n - k].min()
    # connectivity: every pair heavier than the joining one is already in
    rows, cols = np.triu_indices(n, 1)
    weights = sym[rows, cols]
    order = np.argsort(-weights)[: np.count_nonzero(weights)]
    sizes = _largest_sizes(n, zip(rows[order].tolist(), cols[order].tolist()))
    t_conn = next((t for t, size in zip(weights[order].tolist(), sizes)
                   if size >= CONNECTIVITY * n), 0.0)
    bound = min(t_deg, t_conn)
    if bound <= 0:
        raise UnprunableError("no threshold satisfies the connectivity and "
                              "degree criteria")
    t = float(strength[strength < bound].max())  # never empty: the diagonal is 0
    graph = DirectedGraph.from_arcs(np.argwhere(strength > t), n=n, labels=w.labels)
    return graph, t


def skeleton_summary(graph: DirectedGraph) -> dict:
    """Connectivity facts about a graph's undirected skeleton."""
    degrees = graph.out_degrees + graph.in_degrees + graph.recip_degrees
    pairs, _ = graph.connected_pairs()
    largest = max(_largest_sizes(graph.n, pairs.tolist()), default=1)
    return {
        "largest_component_fraction": largest / graph.n,
        "min_total_degree": int(degrees.min()),
        "degree_floor": DEGREE_FACTOR * math.log(graph.n),
    }
