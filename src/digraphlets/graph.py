"""Directed graphs with pure and reciprocal adjacency.

A pair of mutual arcs i->j and j->i is collapsed into one reciprocal
edge, so every connected vertex pair sits in exactly one of three
relations: pure out, pure in, or reciprocal.  Self-loops are not
representable.  Neighbor indices are stored per relation in CSR layout
(indptr plus column indices sorted within each row), which downstream
counting code can hand to sparse matrix constructors without copying.

The edge-list text format is line oriented.  Lines of the form
``# vertex: LABEL`` declare vertices in index order (this is how
isolated vertices survive a round trip); every other ``#`` starts a
comment.  Remaining lines name one arc each, ``SRC DST``, separated by
whitespace or a comma.  A reciprocal edge is written as its two arcs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError, InvariantError
from .taxonomy import EDGE_KINDS

_VERTEX_PREFIX = "# vertex:"


def _csr_rows(n: int, rows: np.ndarray, cols: np.ndarray):
    """Pack arcs into CSR indptr/indices with columns sorted per row."""
    order = np.argsort(rows * n + cols)
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(rows, minlength=n))
    return indptr, np.ascontiguousarray(cols[order], dtype=np.int64)


def _row_ids(indptr: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr))


def _check_labels(labels, n: int) -> tuple[str, ...]:
    labels = tuple(str(x) for x in labels)
    if len(labels) != n:
        raise InputError(f"expected {n} labels, got {len(labels)}")
    if len(set(labels)) != n:
        raise InputError("vertex labels must be unique")
    for lab in labels:
        if not lab or any(c.isspace() for c in lab) or "," in lab or "#" in lab:
            raise InputError(f"invalid vertex label {lab!r}")
    return labels


@dataclass(eq=False)
class DirectedGraph:
    """Vertex-labelled digraph split into out / in / reciprocal adjacency.

    Fields hold CSR components per relation: ``out_idx[out_ptr[i]:
    out_ptr[i+1]]`` are the pure out-neighbors of vertex ``i``, sorted
    ascending, and likewise for ``in_*`` and ``rec_*``.  Instances are
    built through the ``from_*`` constructors, which keep the three
    relations mutually consistent and disjoint.
    """

    n: int
    labels: tuple[str, ...]
    out_ptr: np.ndarray
    out_idx: np.ndarray
    in_ptr: np.ndarray
    in_idx: np.ndarray
    rec_ptr: np.ndarray
    rec_idx: np.ndarray

    # -- construction -------------------------------------------------

    @classmethod
    def from_pair_relations(cls, n, pairs, codes, labels=None) -> "DirectedGraph":
        """Build from connected pairs and per-pair relation codes.

        Parameters
        ----------
        n : int
            Vertex count.
        pairs : (k, 2) int array
            Connected pairs with ``pairs[:, 0] < pairs[:, 1]``, no
            duplicates.
        codes : (k,) int array
            0 for lo->hi, 1 for hi->lo, 2 for reciprocal.
        """
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        codes = np.asarray(codes, dtype=np.int64).reshape(-1)
        if len(pairs) != len(codes):
            raise InputError("pairs and codes length mismatch")
        if n <= 0:
            raise InputError("graph needs at least one vertex")
        if len(pairs):
            lo, hi = pairs[:, 0], pairs[:, 1]
            if lo.min() < 0 or hi.max() >= n:
                raise InputError("vertex index out of range")
            if (lo >= hi).any():
                raise InputError("pairs must satisfy lo < hi")
            keys = np.sort(lo * n + hi)
            if (keys[1:] == keys[:-1]).any():
                raise InputError("duplicate pair")
            if codes.min() < 0 or codes.max() > 2:
                raise InputError("relation codes must be 0, 1 or 2")
        fwd = pairs[codes == 0]
        bwd = pairs[codes == 1]
        rec = pairs[codes == 2]
        src = np.concatenate([fwd[:, 0], bwd[:, 1]])
        dst = np.concatenate([fwd[:, 1], bwd[:, 0]])
        rsrc = np.concatenate([rec[:, 0], rec[:, 1]])
        rdst = np.concatenate([rec[:, 1], rec[:, 0]])
        out_ptr, out_idx = _csr_rows(n, src, dst)
        in_ptr, in_idx = _csr_rows(n, dst, src)
        rec_ptr, rec_idx = _csr_rows(n, rsrc, rdst)
        if labels is None:
            labels = tuple(str(i) for i in range(n))
        else:
            labels = _check_labels(labels, n)
        return cls(n, labels, out_ptr, out_idx, in_ptr, in_idx, rec_ptr, rec_idx)

    @classmethod
    def from_arcs(cls, arcs, n=None, labels=None) -> "DirectedGraph":
        """Build from integer arc pairs; mutual arcs become reciprocal.

        Duplicate arcs collapse silently.  Self-loops are rejected.  The
        vertex count defaults to ``max index + 1``.
        """
        arcs = np.asarray(arcs, dtype=np.int64).reshape(-1, 2)
        if labels is not None:
            labels = tuple(labels)
            if n is None:
                n = len(labels)
        if n is None:
            if len(arcs) == 0:
                raise InputError("cannot infer vertex count from an empty arc list")
            n = int(arcs.max()) + 1
        n = int(n)
        if n <= 0:
            raise InputError("graph needs at least one vertex")
        if len(arcs):
            if arcs.min() < 0 or arcs.max() >= n:
                raise InputError("vertex index out of range")
            if (arcs[:, 0] == arcs[:, 1]).any():
                raise InputError("self-loops are not allowed")
        keys = np.sort(arcs[:, 0] * n + arcs[:, 1])
        keys = keys[np.diff(keys, prepend=-1) != 0]
        arcs = np.column_stack([keys // n, keys % n])
        # An arc is mutual when its key is among the reversed keys; both
        # sides sorted keep the binary searches cache-friendly.
        reverse = np.sort(arcs[:, 1] * n + arcs[:, 0])
        mutual = np.take(reverse, np.searchsorted(reverse, keys), mode="clip") == keys
        pure = arcs[~mutual]
        rec = arcs[mutual & (arcs[:, 0] < arcs[:, 1])]
        lo = np.minimum(pure[:, 0], pure[:, 1])
        hi = np.maximum(pure[:, 0], pure[:, 1])
        pairs = np.concatenate([np.column_stack([lo, hi]), rec])
        codes = np.concatenate(
            [np.where(pure[:, 0] < pure[:, 1], 0, 1), np.full(len(rec), 2)]
        )
        return cls.from_pair_relations(n, pairs, codes, labels=labels)

    @classmethod
    def from_adjacency(cls, a, labels=None) -> "DirectedGraph":
        """Build from a square 0/1 adjacency matrix (dense or sparse)."""
        if hasattr(a, "tocoo"):
            coo = a.tocoo()
            rows, cols, vals = coo.row, coo.col, coo.data
            rows, cols = rows[vals != 0], cols[vals != 0]
            shape = a.shape
        else:
            a = np.asarray(a)
            if a.ndim != 2:
                raise InputError("adjacency matrix must be 2-dimensional")
            rows, cols = np.nonzero(a)
            shape = a.shape
        if shape[0] != shape[1]:
            raise InputError("adjacency matrix must be square")
        return cls.from_arcs(np.column_stack([rows, cols]), n=shape[0], labels=labels)

    # -- inspection ---------------------------------------------------

    @property
    def out_degrees(self) -> np.ndarray:
        return np.diff(self.out_ptr)

    @property
    def in_degrees(self) -> np.ndarray:
        return np.diff(self.in_ptr)

    @property
    def recip_degrees(self) -> np.ndarray:
        return np.diff(self.rec_ptr)

    @property
    def num_pure_arcs(self) -> int:
        return len(self.out_idx)

    @property
    def num_recip_pairs(self) -> int:
        return len(self.rec_idx) // 2

    @property
    def num_connected_pairs(self) -> int:
        return self.num_pure_arcs + self.num_recip_pairs

    def kind_arrays(self, kind: str):
        """CSR (indptr, indices) for one relation: '+', '-' or 'o'."""
        if kind == "+":
            return self.out_ptr, self.out_idx
        if kind == "-":
            return self.in_ptr, self.in_idx
        if kind == "o":
            return self.rec_ptr, self.rec_idx
        raise InputError(f"unknown edge kind {kind!r}")

    def neighbors(self, i: int, kind: str) -> np.ndarray:
        ptr, idx = self.kind_arrays(kind)
        return idx[ptr[i] : ptr[i + 1]]

    def pair_relation(self, i: int, j: int) -> str:
        """Relation of j seen from i: 'out', 'in', 'recip' or 'none'."""
        if i == j:
            raise InputError("pair_relation needs two distinct vertices")
        for kind, name in (("+", "out"), ("-", "in"), ("o", "recip")):
            row = self.neighbors(i, kind)
            k = np.searchsorted(row, j)
            if k < len(row) and row[k] == j:
                return name
        return "none"

    def connected_pairs(self):
        """All connected pairs in ascending (lo, hi) order.

        Returns
        -------
        pairs : (k, 2) int64 array with lo < hi
        codes : (k,) int64 array, 0 lo->hi, 1 hi->lo, 2 reciprocal
        """
        src = _row_ids(self.out_ptr)
        dst = self.out_idx
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        code = np.where(src < dst, 0, 1).astype(np.int64)
        rs = _row_ids(self.rec_ptr)
        rd = self.rec_idx
        keep = rs < rd
        lo = np.concatenate([lo, rs[keep]])
        hi = np.concatenate([hi, rd[keep]])
        code = np.concatenate([code, np.full(keep.sum(), 2, dtype=np.int64)])
        order = np.lexsort((hi, lo))
        return np.column_stack([lo[order], hi[order]]), code[order]

    def arcs(self):
        """All arcs as (src, dst) arrays, reciprocal edges contributing
        both directions, sorted by (src, dst)."""
        src = np.concatenate([_row_ids(self.out_ptr), _row_ids(self.rec_ptr)])
        dst = np.concatenate([self.out_idx, self.rec_idx])
        order = np.lexsort((dst, src))
        return src[order], dst[order]

    # -- consistency --------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants, raising InvariantError on failure."""
        for kind in EDGE_KINDS:
            ptr, idx = self.kind_arrays(kind)
            if len(ptr) != self.n + 1 or ptr[0] != 0 or ptr[-1] != len(idx):
                raise InvariantError(f"bad indptr for kind {kind!r}")
            if (np.diff(ptr) < 0).any():
                raise InvariantError(f"indptr not monotone for kind {kind!r}")
            if len(idx) and (idx.min() < 0 or idx.max() >= self.n):
                raise InvariantError(f"neighbor index out of range for {kind!r}")
            rows = _row_ids(ptr)
            if (rows == idx).any():
                raise InvariantError("self-loop stored")
            same_row = rows[1:] == rows[:-1]
            if (np.diff(idx)[same_row] <= 0).any():
                raise InvariantError(f"row not strictly sorted for kind {kind!r}")
        n = self.n
        out_keys = _row_ids(self.out_ptr) * n + self.out_idx
        in_keys = self.in_idx * n + _row_ids(self.in_ptr)
        if not np.array_equal(np.sort(out_keys), np.sort(in_keys)):
            raise InvariantError("out and in adjacency disagree")
        rec_keys = _row_ids(self.rec_ptr) * n + self.rec_idx
        rev_keys = self.rec_idx * n + _row_ids(self.rec_ptr)
        if not np.array_equal(np.sort(rec_keys), np.sort(rev_keys)):
            raise InvariantError("reciprocal adjacency not symmetric")
        both = np.concatenate([out_keys, rec_keys])
        if len(np.unique(both)) != len(both):
            raise InvariantError("pure and reciprocal relations overlap")

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.labels == other.labels
            and all(
                np.array_equal(*pair)
                for pair in (
                    (self.out_ptr, other.out_ptr),
                    (self.out_idx, other.out_idx),
                    (self.in_ptr, other.in_ptr),
                    (self.in_idx, other.in_idx),
                    (self.rec_ptr, other.rec_ptr),
                    (self.rec_idx, other.rec_idx),
                )
            )
        )

    # -- serialization ------------------------------------------------

    def to_edge_list_text(self) -> str:
        lines = [f"{_VERTEX_PREFIX} {lab}" for lab in self.labels]
        src, dst = self.arcs()
        lines.extend(f"{self.labels[s]} {self.labels[d]}" for s, d in zip(src, dst))
        return "\n".join(lines) + "\n"


def parse_edge_list(text: str, fmt: str = "auto") -> DirectedGraph:
    """Parse edge-list text into a DirectedGraph.

    ``fmt`` selects the arc-line token separator: 'whitespace', 'csv',
    or 'auto' (per line: comma if present, else whitespace).  Vertex
    declaration lines fix the label-to-index mapping; without them,
    vertices are the distinct endpoint labels in order of first
    appearance.  Self-loops and duplicate arcs are dropped with a
    warning.  Malformed lines raise InputError with the line number.
    """
    if fmt not in ("auto", "whitespace", "csv"):
        raise InputError(f"unknown edge-list format {fmt!r}")
    declared: dict[str, int] = {}
    label_of: dict[str, int] = {}
    arcs: list[tuple[int, int]] = []
    loops = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith(_VERTEX_PREFIX):
            lab = line[len(_VERTEX_PREFIX) :].strip()
            if not lab:
                raise InputError(f"line {lineno}: empty vertex label")
            if arcs or label_of:
                raise InputError(
                    f"line {lineno}: vertex declarations must precede arcs"
                )
            if lab in declared:
                raise InputError(f"line {lineno}: duplicate vertex label {lab!r}")
            declared[lab] = len(declared)
            continue
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if fmt == "csv" or (fmt == "auto" and "," in line):
            tokens = [t.strip() for t in line.split(",")]
        else:
            tokens = line.split()
        if len(tokens) != 2 or not tokens[0] or not tokens[1]:
            raise InputError(f"line {lineno}: expected two vertex tokens, got {raw!r}")
        ends = []
        for tok in tokens:
            if declared:
                if tok not in declared:
                    raise InputError(f"line {lineno}: undeclared vertex {tok!r}")
                ends.append(declared[tok])
            else:
                ends.append(label_of.setdefault(tok, len(label_of)))
        if ends[0] == ends[1]:
            loops += 1
            continue
        arcs.append((ends[0], ends[1]))
    if loops:
        warnings.warn(f"dropped {loops} self-loop(s)", stacklevel=2)
    dupes = len(arcs) - len(set(arcs))
    if dupes:
        warnings.warn(f"collapsed {dupes} duplicate arc(s)", stacklevel=2)
    names = declared or label_of
    if not names:
        raise InputError("edge list declares no vertices and no arcs")
    labels = tuple(names)
    return DirectedGraph.from_arcs(
        np.array(arcs, dtype=np.int64).reshape(-1, 2), n=len(labels), labels=labels
    )


def load_edge_list(path, fmt: str = "auto") -> DirectedGraph:
    """Read an edge-list file; IO and parse problems name the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_edge_list(text, fmt=fmt)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def save_edge_list(graph: DirectedGraph, path) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(graph.to_edge_list_text())
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def randomize_directions(graph: DirectedGraph, seed=None) -> DirectedGraph:
    """Resample every connected pair's relation uniformly at random.

    The skeleton (which pairs touch) is preserved exactly; each pair
    independently becomes lo->hi, hi->lo, or reciprocal with probability
    1/3 each.  Pairs are visited in ascending (lo, hi) order, so a fixed
    seed gives a reproducible graph.
    """
    pairs, _ = graph.connected_pairs()
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 3, size=len(pairs))
    return DirectedGraph.from_pair_relations(
        graph.n, pairs, codes, labels=graph.labels
    )


def random_digraph(n, p, seed=None, recip_prob=1 / 3) -> DirectedGraph:
    """Sample a digraph whose skeleton is Erdos-Renyi G(n, p).

    Each unordered pair is connected with probability ``p``; a connected
    pair is reciprocal with probability ``recip_prob`` and otherwise a
    single arc with uniform random direction.
    """
    n = int(n)
    if n <= 0:
        raise InputError("graph needs at least one vertex")
    if not 0 <= p <= 1:
        raise InputError("edge probability must be in [0, 1]")
    if not 0 <= recip_prob <= 1:
        raise InputError("recip_prob must be in [0, 1]")
    rng = np.random.default_rng(seed)
    cols = np.arange(n, dtype=np.int64)
    block = max(1, (1 << 22) // max(n, 1))
    lo_parts, hi_parts = [], []
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        u = rng.random((i1 - i0, n))
        mask = (u < p) & (cols[None, :] > np.arange(i0, i1)[:, None])
        r, c = np.nonzero(mask)
        lo_parts.append(r + i0)
        hi_parts.append(c)
    lo = np.concatenate(lo_parts)
    hi = np.concatenate(hi_parts)
    u2 = rng.random(len(lo))
    codes = np.full(len(lo), 2, dtype=np.int64)
    codes[u2 < 1 - recip_prob] = 1
    codes[u2 < (1 - recip_prob) / 2] = 0
    return DirectedGraph.from_pair_relations(n, np.column_stack([lo, hi]), codes)
