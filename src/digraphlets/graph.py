"""Directed graphs with pure and reciprocal adjacency.

A pair of mutual arcs i->j and j->i is collapsed into one reciprocal
edge, so every connected vertex pair sits in exactly one of three
relations: pure out, pure in, or reciprocal.  Self-loops are not
representable.  Only the out and reciprocal relations are stored, each
in CSR layout (indptr plus column indices sorted within each row); the
in relation is the transpose of the out one and is derived where it is
read.

The edge-list text format is line oriented.  Lines of the form
``# vertex: LABEL`` declare vertices in index order (this is how
isolated vertices survive a round trip); every other ``#`` starts a
comment.  Remaining lines name one arc each, ``SRC DST``, separated by
whitespace or a comma.  A reciprocal edge is written as its two arcs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import compress, count, repeat

import numpy as np

from .errors import InputError, InvariantError
from .fileio import read_parsed, write_text

_VERTEX_PREFIX = "# vertex:"
_BLOCK_LINES = 1 << 16  # lines split at once; bounds the parser's working set


def _csr(n: int, keys: np.ndarray):
    """CSR indptr/indices of sorted, distinct arc keys ``src * n + dst``."""
    rows, cols = np.divmod(keys, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols


def _from_pairs(n: int, pairs: np.ndarray, codes: np.ndarray, labels) -> DirectedGraph:
    """Graph of distinct canonical pairs (lo < hi) and their codes as
    ``connected_pairs`` gives them: 0 lo->hi, 1 hi->lo, 2 reciprocal.
    The callers draw valid pairs and pass checked labels, so nothing
    here is checked again."""
    lo, hi = pairs[:, 0], pairs[:, 1]
    up, down = lo * n + hi, hi * n + lo
    rec = codes == 2
    out_keys = np.sort(np.where(codes == 0, up, down)[~rec])
    rec_keys = np.sort(np.concatenate([up[rec], down[rec]]))
    return DirectedGraph(n, labels, *_csr(n, out_keys), *_csr(n, rec_keys))


def _default_labels(n: int) -> tuple[str, ...]:
    return tuple(map(str, range(n)))


def _row_ids(indptr: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr))


def _check_labels(labels, n: int) -> tuple[str, ...]:
    labels = tuple(str(x) for x in labels)
    if len(labels) != n:
        raise InputError(f"expected {n} labels, got {len(labels)}")
    if len(set(labels)) != n:
        raise InputError("vertex labels must be unique")
    # One split gives the labels back iff none is empty or holds whitespace.
    joined = "\n".join(labels)
    if joined.split() != list(labels) or "," in joined or "#" in joined:
        bad = next(x for x in labels if x.split() != [x] or "," in x or "#" in x)
        raise InputError(f"invalid vertex label {bad!r}")
    return labels


@dataclass(eq=False)
class DirectedGraph:
    """Vertex-labelled digraph split into out / in / reciprocal adjacency.

    Only the out and reciprocal relations are stored, as CSR components:
    ``out_idx[out_ptr[i]:out_ptr[i+1]]`` are the pure out-neighbors of
    vertex ``i``, sorted ascending, and likewise for ``rec_*``.  The in
    relation is the transpose of the out one; ``kind_arrays('-')`` and
    ``in_degrees`` derive it on each call.  Graphs are built by
    ``from_arcs``, the one public constructor, which checks its input and
    keeps the relations disjoint and the reciprocal one symmetric; the
    random generators below pack pairs they drew themselves.
    """

    n: int
    labels: tuple[str, ...]
    out_ptr: np.ndarray
    out_idx: np.ndarray
    rec_ptr: np.ndarray
    rec_idx: np.ndarray

    # -- construction -------------------------------------------------

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
        # An arc is mutual when its key is among the reversed keys; both
        # sides sorted keep the binary searches cache-friendly.
        src, dst = np.divmod(keys, n)
        reverse = np.sort(dst * n + src)
        mutual = np.take(reverse, np.searchsorted(reverse, keys), mode="clip") == keys
        labels = _default_labels(n) if labels is None else _check_labels(labels, n)
        return cls(n, labels, *_csr(n, keys[~mutual]), *_csr(n, keys[mutual]))

    # -- inspection ---------------------------------------------------

    @property
    def out_degrees(self) -> np.ndarray:
        return np.diff(self.out_ptr)

    @property
    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.out_idx, minlength=self.n)

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
        """CSR (indptr, indices) for one relation: '+', '-' or 'o'; '-' is
        the transpose of '+', rebuilt by one sort on each call."""
        if kind == "+":
            return self.out_ptr, self.out_idx
        if kind == "-":
            return _csr(self.n, np.sort(self.out_idx * self.n + _row_ids(self.out_ptr)))
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
        # j is an in-neighbor of i when i is an out-neighbor of j
        for name, kind, a, b in (
            ("out", "+", i, j), ("in", "+", j, i), ("recip", "o", i, j)
        ):
            row = self.neighbors(a, kind)
            k = np.searchsorted(row, b)
            if k < len(row) and row[k] == b:
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
        order = np.argsort(lo * self.n + hi)  # keys are unique
        return np.column_stack([lo[order], hi[order]]), code[order]

    def arcs(self):
        """All arcs as (src, dst) arrays, reciprocal edges contributing
        both directions, sorted by (src, dst)."""
        src = np.concatenate([_row_ids(self.out_ptr), _row_ids(self.rec_ptr)])
        dst = np.concatenate([self.out_idx, self.rec_idx])
        order = np.argsort(src * self.n + dst)  # keys are unique
        return src[order], dst[order]

    # -- consistency --------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants of the stored out and reciprocal
        relations, raising InvariantError on failure."""
        keys = {}
        for kind in ("+", "o"):
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
            keys[kind] = rows * self.n + idx
        rev_keys = self.rec_idx * self.n + _row_ids(self.rec_ptr)
        if not np.array_equal(keys["o"], np.sort(rev_keys)):
            raise InvariantError("reciprocal adjacency not symmetric")
        both = np.sort(np.concatenate([keys["+"], keys["o"]]))
        if (both[1:] == both[:-1]).any():
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
                    (self.rec_ptr, other.rec_ptr),
                    (self.rec_idx, other.rec_idx),
                )
            )
        )

    # -- serialization ------------------------------------------------

    def to_edge_list_text(self) -> str:
        """Declarations in index order, then one ``src dst`` line per
        arc in ascending (src, dst) order."""
        head = "".join(map(f"{_VERTEX_PREFIX} {{}}\n".format, self.labels))
        labels = np.array(self.labels, dtype=object)
        src, dst = self.arcs()
        cells = np.empty(2 * len(src), dtype=object)
        cells[0::2] = (labels + " ")[src]
        cells[1::2] = (labels + "\n")[dst]
        return head + "".join(cells.tolist())


def parse_edge_list(text: str) -> DirectedGraph:
    """Parse edge-list text into a DirectedGraph.

    An arc line that holds a comma splits on it, each field stripped of
    surrounding whitespace; any other arc line splits on whitespace.
    Vertex declaration lines fix the label-to-index mapping; without
    them, vertices are the distinct endpoint labels in order of first
    appearance.  Declarations must come before the first arc between
    two different vertices, and none may follow an arc read before any
    declaration.  Self-loops and duplicate arcs are dropped with a
    warning.  Malformed lines raise InputError with the line number.
    ``to_edge_list_text`` writes the declarations followed by the arcs
    in ascending (src, dst) order.

    A regular text is read in blocks of ``_BLOCK_LINES`` lines, each
    split and mapped in bulk: every declaration comes before every arc
    line, declared labels are unique and non-empty, every arc line holds
    two tokens free of whitespace, and with declarations every token is
    declared.  Saved edge lists are regular.  Any other text is read
    again, one line at a time, up to its first faulty line.
    """
    lines = text.splitlines()
    names, ends = _read_blocks(lines) or _read_lines(lines)
    del lines  # the graph build below needs none of the line strings
    src, dst = ends[0::2], ends[1::2]
    loop = src == dst
    loops = int(np.count_nonzero(loop))
    if loops:
        warnings.warn(f"dropped {loops} self-loop(s)", stacklevel=2)
    n = len(names)
    src, dst = src[~loop], dst[~loop]
    keys = np.sort(src * n + dst)
    dupes = int(np.count_nonzero(keys[1:] == keys[:-1]))
    if dupes:
        warnings.warn(f"collapsed {dupes} duplicate arc(s)", stacklevel=2)
    if not names:
        raise InputError("edge list declares no vertices and no arcs")
    return DirectedGraph.from_arcs(
        np.column_stack([src, dst]), n=n, labels=tuple(names)
    )


def _read_blocks(lines: list[str]):
    """Labels and arc ends (src, dst, src, dst, ...) of a regular text,
    read in blocks of ``_BLOCK_LINES`` lines; False for any other text."""
    declared: dict[str, int] = {}
    label_of: dict[str, int] = {}  # first-appearance ids, no declarations
    ends: list[np.ndarray] = []  # one array per block
    arc_read = False
    for start in range(0, len(lines), _BLOCK_LINES):
        block = lines[start : start + _BLOCK_LINES]
        content = [line.partition("#")[0].strip() for line in block]
        has = np.fromiter(map(bool, content), bool, len(content))
        at = np.flatnonzero(has)
        decl_at = [
            i
            for i in np.flatnonzero(~has).tolist()
            if block[i].lstrip().startswith(_VERTEX_PREFIX)
        ]
        if decl_at:
            if arc_read or (len(at) and at[0] < decl_at[-1]):
                return False
            n0 = len(declared)
            labels = [block[i].strip()[len(_VERTEX_PREFIX) :].strip() for i in decl_at]
            declared.update(zip(labels, count(n0)))
            if len(declared) != n0 + len(labels) or "" in declared:
                return False
        arc_read = arc_read or len(at) > 0
        tokens = _arc_tokens(list(compress(content, has.tolist())))
        if tokens is None:
            return False
        if declared:
            ids = np.fromiter(map(declared.get, tokens, repeat(-1)), np.int64, len(tokens))
            if (ids < 0).any():
                return False
        else:
            fresh = [t for t in dict.fromkeys(tokens) if t not in label_of]
            label_of.update(zip(fresh, count(len(label_of))))
            ids = np.fromiter(map(label_of.__getitem__, tokens), np.int64, len(tokens))
        ends.append(ids)
    return declared or label_of, np.concatenate([np.empty(0, np.int64), *ends])


def _arc_tokens(body: list[str]):
    """Flat token list of arc lines (comments and surrounding whitespace
    removed), or None unless every line holds two tokens and every comma
    line splits alike on its comma and on whitespace."""
    joined = "\n".join(body)
    if "," in joined:
        # one comma between two non-empty fields acts as a space
        framed = f"\n{joined}\n"
        if (
            "\n," in framed
            or ",\n" in framed
            or max(map(str.count, body, repeat(","))) > 1
        ):
            return None
        joined = joined.replace(",", " ")
        body = joined.split("\n")
    if not set(map(len, map(str.split, body))) <= {2}:
        return None
    return joined.split()


def _read_lines(lines: list[str]):
    """Labels and arc ends of any text, read one line at a time; the
    first faulty line raises InputError with its line number."""
    declared: dict[str, int] = {}
    label_of: dict[str, int] = {}
    ends: list[int] = []
    moved = False  # an arc between two different vertices was read
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line.startswith(_VERTEX_PREFIX):
            label = line[len(_VERTEX_PREFIX) :].strip()
            if not label:
                message = "empty vertex label"
            elif moved or label_of:
                message = "vertex declarations must precede arcs"
            elif label in declared:
                message = f"duplicate vertex label {label!r}"
            else:
                declared[label] = len(declared)
                continue
            raise InputError(f"line {lineno}: {message}")
        line = line.partition("#")[0].strip()
        if not line:
            continue
        tokens = [t.strip() for t in line.split(",")] if "," in line else line.split()
        if len(tokens) != 2 or "" in tokens:
            raise InputError(f"line {lineno}: expected two vertex tokens, got {raw!r}")
        names = declared or label_of
        for token in tokens:
            if declared and token not in declared:
                raise InputError(f"line {lineno}: undeclared vertex {token!r}")
            ends.append(names.setdefault(token, len(names)))
        moved = moved or ends[-2] != ends[-1]
    return declared or label_of, np.array(ends, dtype=np.int64)


def load_edge_list(path) -> DirectedGraph:
    """Read an edge-list file; IO and parse problems name the file."""
    return read_parsed(path, parse_edge_list)


def save_edge_list(graph: DirectedGraph, path) -> None:
    write_text(path, graph.to_edge_list_text())


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
    return _from_pairs(graph.n, pairs, codes, graph.labels)


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
    return _from_pairs(n, np.column_stack([lo, hi]), codes, _default_labels(n))
