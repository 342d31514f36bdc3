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
degree, id) order is kept, so its kind is already seen from its tail.
Each such edge t->u is expanded over u's own row u->w, BLOCK tries at a
time, and the closing pair (t, w) is looked up among the sorted keys of
the tails the block spans, not among all keys.  A bool prefilter of
FILTER slots (256 KB), set from those keys by their low bits and cleared
after the block, lets only the tries that may close reach the binary
search, which confirms every hit: the filter decides no count.  Under
that order a vertex has d+ <= sqrt(2m) later neighbors, so the tries
number sum over u of d-(u) d+(u) <= m sqrt(2m), and a tail shared with
the next block adds at most sqrt(2m) keys to a block's search.  Memory
beyond O(n + m) is BLOCK and the fixed filter, whatever the degrees.
L is summed in float64 and is at most dmax^2, so dmax^2 >= 2^53 is
refused before any wedge is summed.
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
    RAW_CLASSES,
    SIGNATURE_COLUMNS,
    TRIANGLE_BLOCK,
    TRIANGLE_INDEX,
    WEDGE_BLOCK,
    WEDGE_INDEX,
)


@dataclass(eq=False)
class RawCensus:
    """Per-vertex raw graphlet counts; ``table`` is the (n, 39) RAW_COLUMNS stack.

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
    def table(self) -> np.ndarray:
        return np.hstack([self.degrees, self.wedges, self.triangles])

    def __eq__(self, other) -> bool:
        if not isinstance(other, RawCensus):
            return NotImplemented
        return self.labels == other.labels and all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in ("degrees", "wedge_totals", "wedges", "triangles"))


@dataclass(eq=False)
class SignatureMatrix:
    """N x 16 stack of per-vertex signature vectors: integer counts, or
    float block shares once ``normalize`` has scaled them."""

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
FILTER = 1 << 18  # slots of the bool prefilter that screens closing pairs


def raw_census(g: DirectedGraph) -> RawCensus:
    """Count all 39 raw quantities for every vertex, exactly."""
    n = g.n
    vertex, kind, neighbor = g.half_edges()
    slot = vertex * 3 + kind
    degrees = np.bincount(slot, minlength=3 * n).reshape(n, 3)
    dmax = int(degrees.sum(axis=1).max(initial=0))
    if dmax * dmax >= 1 << 53:
        raise InvariantError("counts could exceed the exact range of float64")
    wedge_totals = np.zeros((n, 9), dtype=np.int64)
    for c, seen in enumerate(EDGE_KINDS):  # far = d_h^seen feeds L(., MIRROR[seen])
        w_cols = [WEDGE_INDEX[(alpha, MIRROR[seen])] for alpha in EDGE_KINDS]
        far = degrees[:, c].astype(np.float64)[neighbor]
        wedge_totals[:, w_cols] = np.bincount(slot, far, 3 * n).reshape(n, 3)
    wedge_totals[:, [WEDGE_INDEX[(k, k)] for k in EDGE_KINDS]] -= degrees
    by_rank = np.argsort(degrees.sum(axis=1), kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[by_rank] = np.arange(n)
    r_lo, r_hi = np.split(rank[vertex], 2)  # the half-edges see each pair from lo, then hi
    up = r_lo < r_hi  # keep each pair as seen from its lower-ranked end
    packed = np.where(up, r_lo * n + r_hi, r_hi * n + r_lo) * 3 + np.where(up, *np.split(kind, 2))
    keys, kinds = np.divmod(np.sort(packed), 3)
    tails, heads = np.divmod(keys, n)
    ptr = np.append(0, np.cumsum(np.bincount(tails, minlength=n)))  # row t is ptr[t]:ptr[t+1]
    bounds = np.append(0, np.cumsum(np.diff(ptr)[heads]))  # edge e makes tries bounds[e]:bounds[e+1]
    first = ptr[heads] - bounds[:-1]  # try c of edge e expands edge c + first[e]
    row_key = keys - heads  # tails * n
    mark = np.zeros(FILTER, dtype=bool)
    triangles = np.zeros(27 * n, dtype=np.int64)  # (n, 27), flattened
    for c0 in range(0, bounds[-1], BLOCK):
        c1 = min(c0 + BLOCK, bounds[-1])
        e0, e1 = np.searchsorted(bounds, [c0, c1 - 1], side="right") - 1
        span = np.arange(e0, e1 + 1)
        e = np.repeat(span, np.minimum(bounds[span + 1], c1) - np.maximum(bounds[span], c0))
        h = np.arange(c0, c1) + first[e]
        close = row_key[e] + heads[h]
        lo = ptr[tails[e0]]
        near = keys[lo:ptr[tails[e1] + 1]]  # the rows of every tail in the block
        slots = near & (FILTER - 1)
        mark[slots] = True
        maybe = np.flatnonzero(mark[close & (FILTER - 1)])
        mark[slots] = False
        e, h, close = e[maybe], h[maybe], close[maybe]
        at = np.searchsorted(near, close).clip(max=len(near) - 1)
        hit = near[at] == close
        e, h, at = e[hit], h[hit], lo + at[hit]
        ends = by_rank[np.stack([tails[e], heads[e], heads[h]])]
        code3 = 9 * kinds[e] + 3 * kinds[at] + kinds[h]
        cols = ends[[0, 0, 1, 1, 2, 2]] * 27 + _ASSIGNMENTS[:, code3]
        np.add.at(triangles, cols.ravel(), 1)
    wedges = wedge_totals - triangles.reshape(n, 9, 3).sum(axis=2)
    if (wedges < 0).any():
        raise InvariantError("induced wedge count went negative")
    return RawCensus(g.labels, degrees, wedge_totals, wedges, triangles.reshape(n, 27))


def aggregate(raw: RawCensus) -> SignatureMatrix:
    """Collapse the 39 raw quantities into the 16-class signature."""
    return SignatureMatrix(raw.labels, raw.table @ RAW_CLASSES)


def signature_matrix(g: DirectedGraph) -> SignatureMatrix:
    """Convenience composition of raw_census and aggregate."""
    return aggregate(raw_census(g))


def normalize(sig: SignatureMatrix, mode: str = "balanced") -> SignatureMatrix:
    """Scale each degree / wedge / triangle block of a row to sum 1.

    mode='plain' divides the class counts directly by the block totals.
    mode='balanced' (default) first divides each class count by the
    number of raw types in the class, compensating for classes that pool
    more shapes than others; under direction randomization every raw
    type is equally likely, so balanced rows converge to the
    block-uniform profile [1/3 x3, 1/6 x6, 1/7 x7] while plain rows
    converge to the class-size shares instead.

    A block whose total is zero stays all zero.
    """
    if mode not in ("balanced", "plain"):
        raise InputError(f"unknown normalization mode {mode!r}")
    v = sig.values.astype(np.float64)
    if mode == "balanced":
        v = v / CLASS_SIZES
    out = np.zeros_like(v)
    for sl in (DEGREE_BLOCK, WEDGE_BLOCK, TRIANGLE_BLOCK):
        block = v[:, sl]
        s = block.sum(axis=1, keepdims=True)
        out[:, sl] = np.divide(block, s, out=np.zeros_like(block), where=s > 0)
    return SignatureMatrix(sig.labels, out)

