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

The counting is linear algebra over the three 0/1 relation matrices.
Transposing an adjacency flips pure arc direction and fixes reciprocal
edges, so A_b^T = A_mirror(b), and expanding |S_i^a intersect S_j^b| as
sum_h A_a[i, h] A_b[j, h] shows it is entry (i, j) of the product
P_ab = A_a @ A_mirror(b), the transpose of P_ba.  With C = A_g .* P_ab:

    L(a, b)            column = A_a @ d^mirror(b) - [a == b] * d^a
    T(a, b, g)         column = row sums of C
    T(b, a, mirror(g)) column = column sums of C

the last because j in S_i^g exactly when i in S_j^mirror(g).  So only
the 6 products with WEDGE_INDEX[(a, b)] <= WEDGE_INDEX[(b, a)] are
built, each masked once by the kind-coded skeleton A_+ + B A_- + B^2 A_o
with B = dmax + 1, which keeps only the entries whose ends are adjacent.
As c = P_ab[i, j] <= dmax < B, a kept entry v = c B^g decodes to the
kind g = [v >= B] + [v >= B^2] of edge (i, j) and c = v // B^g; one
bincount over row*3 + g and one over col*3 + g fill the six columns.

The overflow guard n dmax^2 < 2^62, with dmax < n, bounds every coded
entry by dmax (dmax + 1)^2 <= 2 n dmax^2 < 2^63, so products and masks
stay in int64, and every per-vertex count by dmax^2 < 2^53, so the
float64 bincount sums are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

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
        return (
            self.labels == other.labels
            and np.array_equal(self.degrees, other.degrees)
            and np.array_equal(self.wedge_totals, other.wedge_totals)
            and np.array_equal(self.wedges, other.wedges)
            and np.array_equal(self.triangles, other.triangles)
        )


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
        return self.labels == other.labels and np.array_equal(
            self.values, other.values
        )


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


def _relation_matrices(g: DirectedGraph) -> dict[str, sparse.csr_matrix]:
    mats = {}
    for kind in EDGE_KINDS:
        ptr, idx = g.kind_arrays(kind)
        data = np.ones(len(idx), dtype=np.int64)
        mats[kind] = sparse.csr_matrix((data, idx, ptr), shape=(g.n, g.n))
    return mats


def raw_census(g: DirectedGraph) -> RawCensus:
    """Count all 39 raw quantities for every vertex, exactly."""
    n = g.n
    degrees = np.column_stack(
        [g.out_degrees, g.in_degrees, g.recip_degrees]
    ).astype(np.int64)
    dmax = int(degrees.sum(axis=1).max(initial=0))
    if n * dmax * dmax >= 1 << 62:
        raise InvariantError("counts could overflow 64-bit integers")
    mats = _relation_matrices(g)
    base = dmax + 1
    coded = sum(base**k * mats[kind] for k, kind in enumerate(EDGE_KINDS))
    far = degrees[:, [EDGE_KINDS.index(MIRROR[beta]) for beta in EDGE_KINDS]]
    wedge_totals = np.zeros((n, 9), dtype=np.int64)
    triangles = np.zeros((n, 27), dtype=np.int64)
    for alpha in EDGE_KINDS:
        w_cols = [WEDGE_INDEX[(alpha, beta)] for beta in EDGE_KINDS]
        wedge_totals[:, w_cols] = mats[alpha] @ far
    wedge_totals[:, [WEDGE_INDEX[(k, k)] for k in EDGE_KINDS]] -= degrees
    for (alpha, beta), w_col in WEDGE_INDEX.items():
        if w_col > WEDGE_INDEX[(beta, alpha)]:
            continue  # its product is the transpose of the (beta, alpha) one
        closed = coded.multiply(mats[alpha] @ mats[MIRROR[beta]]).tocoo()
        gamma = (closed.data >= base).astype(np.int64) + (closed.data >= base**2)
        count = closed.data // base**gamma
        rows = [TRIANGLE_INDEX[(alpha, beta, k)] for k in EDGE_KINDS]
        cols = [TRIANGLE_INDEX[(beta, alpha, MIRROR[k])] for k in EDGE_KINDS]
        by_row = np.bincount(closed.row * 3 + gamma, count, minlength=3 * n)
        by_col = np.bincount(closed.col * 3 + gamma, count, minlength=3 * n)
        triangles[:, rows] = by_row.reshape(n, 3)
        triangles[:, cols] = by_col.reshape(n, 3)
    wedges = wedge_totals - triangles.reshape(n, 9, 3).sum(axis=2)
    if (wedges < 0).any():
        raise InvariantError("induced wedge count went negative")
    return RawCensus(g.labels, degrees, wedge_totals, wedges, triangles)


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
    raw census to avoid recounting.
    """
    for kind in (alpha, beta, gamma):
        if kind not in EDGE_KINDS:
            raise InputError(f"unknown edge kind {kind!r}")
    if not 0 <= i < g.n:
        raise InputError(f"vertex index {i} out of range")
    if raw is None:
        raw = raw_census(g)
    t = raw.triangles[i, TRIANGLE_INDEX[(alpha, beta, gamma)]]
    l = raw.wedge_totals[i, WEDGE_INDEX[(alpha, beta)]]
    return float(t) / float(l) if l else 0.0
