"""Exact per-vertex counts of 2- and 3-node directed graphlets.

For a vertex i the raw census holds 39 integers: the three degrees
d_i^a = |S_i^a|, the nine wedge totals

    L_i(a, b) = sum over j != i of |S_i^a intersect S_j^b|,

and the 27 triangle counts

    T_i(a, b, g) = sum over j in S_i^g of |S_i^a intersect S_j^b|,

with the induced-wedge counts W = L - sum_g T derived from them.  A
geometric triangle through i is counted once per ordered assignment of
its other two vertices, so shape-symmetric types come out doubled (the
all-reciprocal triangle gives T(o,o,o) = 2 per vertex).

Summing over the middle vertex h (j = i only when a = b) gives
L_i(a, b) = sum over h in S_i^a of d_h^mirror(b) - [a == b] d_i^a.
Both sums read the graph's half-edges, each pair seen from both ends.
Triangles are listed once each (Chiba and Nishizeki 1985; Latapy 2008):
of each pair's two half-edges the one seen from the lower end in (total
degree, id) order is kept, so its kind is already seen from its tail;
each such edge is tried with the later edges of its tail's row, and the
closing edge is looked up among the sorted keys.  A
tail has at most sqrt(2m) oriented edges, so at most m sqrt(2m) tries
are made, BLOCK at a time, which bounds memory beyond O(n + m) whatever
the degrees.  L is summed in float64 and is at most dmax^2, so
dmax^2 >= 2^53 is refused before anything is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from .errors import InputError, InvariantError
from .graph import DirectedGraph
from .taxonomy import (
    CLASS_SIZES,
    DEGREE_BLOCK,
    EDGE_KINDS,
    MIRROR,
    SIGNATURE_COLUMNS,
    TRIANGLE_BLOCK,
    TRIANGLE_CLASS_MEMBERS,
    TRIANGLE_INDEX,
    WEDGE_BLOCK,
    WEDGE_CLASS_MEMBERS,
    WEDGE_INDEX,
)


@dataclass(eq=False)
class RawCensus:
    """Per-vertex raw graphlet counts, one row per vertex.

    degrees: (n, 3) in EDGE_KINDS order; wedge_totals: (n, 9) L values
    and wedges: (n, 9) induced W values in WEDGE_TYPES order;
    triangles: (n, 27) in TRIANGLE_TYPES order.
    """

    labels: tuple[str, ...]
    degrees: np.ndarray
    wedge_totals: np.ndarray
    wedges: np.ndarray
    triangles: np.ndarray

    @property
    def n(self) -> int:
        return len(self.degrees)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RawCensus):
            return NotImplemented
        return self.labels == other.labels and all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in ("degrees", "wedge_totals", "wedges", "triangles"))


@dataclass(eq=False)
class SignatureMatrix:
    """N x 16 stack of per-vertex signature vectors (integer counts)."""

    labels: tuple[str, ...]
    values: np.ndarray

    columns = SIGNATURE_COLUMNS

    @property
    def n(self) -> int:
        return len(self.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignatureMatrix):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.values, other.values)


@dataclass(eq=False)
class NormalizedSignatureMatrix:
    """Blockwise-normalized signatures.

    Each of the degree / wedge / triangle blocks of a row sums to 1
    unless the vertex has no such graphlets at all, in which case the
    block is all zeros and the corresponding zero_blocks flag is set.
    """

    labels: tuple[str, ...]
    values: np.ndarray
    zero_blocks: np.ndarray
    mode: str

    columns = SIGNATURE_COLUMNS

    @property
    def isolated(self) -> np.ndarray:
        """True for vertices with no neighbors (every block zero)."""
        return self.zero_blocks.all(axis=1)


def _assignment_table() -> np.ndarray:
    """(6, 27): entry [r, 9p + 3q + s] is the column that ordered
    assignment r adds to its vertex (t, t, u, u, v, v)[r] of t < u < v
    when edges t-u, t-v, u-v have kinds p, q, s seen from t, t and u."""
    table = np.zeros((6, 27), dtype=np.int64)
    for code, (p, q, s) in enumerate(product(EDGE_KINDS, repeat=3)):
        kind = {(0, 1): p, (0, 2): q, (1, 2): s,
                (1, 0): MIRROR[p], (2, 0): MIRROR[q], (2, 1): MIRROR[s]}
        for r, (i, j, h) in enumerate(permutations(range(3))):
            table[r, code] = TRIANGLE_INDEX[(kind[i, h], kind[j, h], kind[i, j])]
    return table


_ASSIGNMENTS = _assignment_table()
BLOCK = 1 << 16  # edge pairs tried at once by the triangle listing


def raw_census(g: DirectedGraph) -> RawCensus:
    """Count all 39 raw quantities for every vertex, exactly."""
    n = g.n
    degrees = g.degrees
    dmax = int(degrees.sum(axis=1).max(initial=0))
    if dmax * dmax >= 1 << 53:
        raise InvariantError("counts could exceed the exact range of float64")
    vertex, kind, neighbor = g.half_edges()
    slot = vertex * 3 + kind
    far = degrees[neighbor]
    wedge_totals = np.zeros((n, 9), dtype=np.int64)
    for c, seen in enumerate(EDGE_KINDS):  # far[:, c] = d_h^seen feeds L(., MIRROR[seen])
        w_cols = [WEDGE_INDEX[(alpha, MIRROR[seen])] for alpha in EDGE_KINDS]
        wedge_totals[:, w_cols] = np.bincount(slot, far[:, c], 3 * n).reshape(n, 3)
    wedge_totals[:, [WEDGE_INDEX[(k, k)] for k in EDGE_KINDS]] -= degrees
    by_rank = np.argsort(degrees.sum(axis=1), kind="stable")
    rank = np.argsort(by_rank)
    up = rank[vertex] < rank[neighbor]
    keys = rank[vertex[up]] * n + rank[neighbor[up]]
    order = np.argsort(keys)
    keys, kinds = keys[order], kind[up][order]
    tails, heads = np.divmod(keys, n)
    later = np.cumsum(np.bincount(tails, minlength=n))[tails] - np.arange(len(keys)) - 1
    bounds = np.cumsum(np.append(0, later))  # edge e makes tries bounds[e]:bounds[e+1]
    triangles = np.zeros(27 * n, dtype=np.int64)  # (n, 27), flattened
    for c0 in range(0, bounds[-1], BLOCK):
        c1 = min(c0 + BLOCK, bounds[-1])
        e0, e1 = np.searchsorted(bounds, [c0, c1 - 1], side="right") - 1
        span = np.arange(e0, e1 + 1)
        e = np.repeat(span, np.minimum(bounds[span + 1], c1) - np.maximum(bounds[span], c0))
        f = np.arange(c0, c1) - bounds[e] + e + 1
        close = heads[e] * n + heads[f]
        at = np.searchsorted(keys, close).clip(max=len(keys) - 1)
        hit = keys[at] == close
        e, f, at = e[hit], f[hit], at[hit]
        ends = by_rank[np.stack([tails[e], heads[e], heads[f]])]
        code3 = 9 * kinds[e] + 3 * kinds[f] + kinds[at]
        cols = ends[[0, 0, 1, 1, 2, 2]] * 27 + _ASSIGNMENTS[:, code3]
        triangles += np.bincount(cols.ravel(), minlength=27 * n)
    wedges = wedge_totals - triangles.reshape(n, 9, 3).sum(axis=2)
    if (wedges < 0).any():
        raise InvariantError("induced wedge count went negative")
    return RawCensus(g.labels, degrees, wedge_totals, wedges, triangles.reshape(n, 27))


def aggregate(raw: RawCensus) -> SignatureMatrix:
    """Collapse the 39 raw quantities into the 16-class signature."""
    values = np.zeros((raw.n, 16), dtype=np.int64)
    values[:, DEGREE_BLOCK] = raw.degrees
    for col, name in enumerate(SIGNATURE_COLUMNS):
        if name in WEDGE_CLASS_MEMBERS:
            members = [WEDGE_INDEX[t] for t in WEDGE_CLASS_MEMBERS[name]]
            values[:, col] = raw.wedges[:, members].sum(axis=1)
        elif name in TRIANGLE_CLASS_MEMBERS:
            members = [TRIANGLE_INDEX[t] for t in TRIANGLE_CLASS_MEMBERS[name]]
            values[:, col] = raw.triangles[:, members].sum(axis=1)
    return SignatureMatrix(raw.labels, values)


def signature_matrix(g: DirectedGraph) -> SignatureMatrix:
    """Convenience composition of raw_census and aggregate."""
    return aggregate(raw_census(g))


def normalize(sig: SignatureMatrix, mode: str = "balanced") -> NormalizedSignatureMatrix:
    """Scale each degree / wedge / triangle block of a row to sum 1.

    mode='plain' divides the class counts directly by the block totals.
    mode='balanced' (default) first divides each class count by the
    number of raw types in the class, compensating for classes that pool
    more shapes than others; under direction randomization every raw
    type is equally likely, so balanced rows converge to the
    block-uniform profile [1/3 x3, 1/6 x6, 1/7 x7] while plain rows
    converge to the class-size shares instead.

    A block whose total is zero stays all zero and is flagged.
    """
    if mode not in ("balanced", "plain"):
        raise InputError(f"unknown normalization mode {mode!r}")
    v = sig.values.astype(np.float64)
    if mode == "balanced":
        v = v / CLASS_SIZES
    out = np.zeros_like(v)
    zero_blocks = np.zeros((len(v), 3), dtype=bool)
    for b, sl in enumerate((DEGREE_BLOCK, WEDGE_BLOCK, TRIANGLE_BLOCK)):
        block = v[:, sl]
        s = block.sum(axis=1, keepdims=True)
        out[:, sl] = np.divide(block, s, out=np.zeros_like(block), where=s > 0)
        zero_blocks[:, b] = s.ravel() == 0
    return NormalizedSignatureMatrix(sig.labels, out, zero_blocks, mode)


def triangle_ratio(g: DirectedGraph, i: int, alpha: str, beta: str, gamma: str,
                   raw: RawCensus | None = None) -> float:
    """Fraction of (alpha, beta) wedges at i closed by a gamma edge.

    Generalizes the clustering coefficient: T_i(a,b,g) / L_i(a,b), with
    0 when the vertex has no (a,b) wedges at all.  Pass a precomputed
    raw census of ``g`` to avoid recounting.
    """
    for kind in (alpha, beta, gamma):
        if kind not in EDGE_KINDS:
            raise InputError(f"unknown edge kind {kind!r}")
    if not 0 <= i < g.n:
        raise InputError(f"vertex index {i} out of range")
    if raw is None:
        raw = raw_census(g)
    elif raw.labels != g.labels:
        raise InputError("raw census is of another graph: its vertex labels differ")
    t = raw.triangles[i, TRIANGLE_INDEX[(alpha, beta, gamma)]]
    l = raw.wedge_totals[i, WEDGE_INDEX[(alpha, beta)]]
    return float(t) / float(l) if l else 0.0
