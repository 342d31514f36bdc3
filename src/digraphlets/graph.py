"""Directed graphs stored as their connected pairs and relations.

A pair of mutual arcs i->j and j->i is collapsed into one reciprocal
edge, so every connected vertex pair lo < hi sits in exactly one of
three relations: lo->hi, hi->lo or reciprocal.  A graph stores just
that: the ascending keys ``lo * n + hi`` of its connected pairs and one
relation code per pair.  Self-loops are not representable.  Seen from
one vertex, its neighbors split into pure out, pure in and reciprocal
ones; these relations, their CSR layout, the degrees and the arcs are
derived from the pairs where they are read.

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
# Per edge kind, the codes of the pairs whose arc lo->hi and whose arc
# hi->lo is an entry (tail, head) of that relation.
_KIND_CODES = {"+": (0, 1), "-": (1, 0), "o": (2, 2)}
# A pair's code is the kind of hi seen from lo; this maps it to the kind
# of lo seen from hi.
_MIRROR_CODE = np.array([1, 0, 2])


def _csr(n: int, keys: np.ndarray):
    """CSR indptr/indices of sorted, distinct arc keys ``src * n + dst``."""
    rows, cols = np.divmod(keys, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols


def _default_labels(n: int) -> tuple[str, ...]:
    return tuple(map(str, range(n)))


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
    """Vertex-labelled digraph as its connected pairs.

    ``keys[k] = lo * n + hi`` (lo < hi) names the k-th connected pair,
    the keys ascending, and ``codes[k]`` is its relation: 0 lo->hi,
    1 hi->lo, 2 reciprocal.  Each vertex's neighbors fall into three
    kinds, pure out '+', pure in '-' and reciprocal 'o';
    ``kind_arrays`` and the degree properties read them off the pairs
    on each call.  Graphs are built by ``from_arcs``, the one public
    constructor, which checks its input; the random generators below
    store pairs they drew themselves.
    """

    n: int
    labels: tuple[str, ...]
    keys: np.ndarray
    codes: np.ndarray

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
        src, dst = arcs[:, 0], arcs[:, 1]
        # Twice each arc's pair key, plus 1 for an arc hi->lo: once sorted,
        # a pair's first and last entry differ iff it holds both arcs.
        keys, side = np.divmod(
            np.sort((np.minimum(src, dst) * n + np.maximum(src, dst)) * 2 + (src > dst)), 2
        )
        first = np.diff(keys, prepend=-1) != 0
        last = np.diff(keys, append=n * n) != 0
        codes = np.where(side[first] == side[last], side[first], 2)
        labels = _default_labels(n) if labels is None else _check_labels(labels, n)
        return cls(n, labels, keys[first], codes)

    # -- inspection ---------------------------------------------------

    @property
    def out_degrees(self) -> np.ndarray:
        return self._degrees()[:, 0]

    @property
    def in_degrees(self) -> np.ndarray:
        return self._degrees()[:, 1]

    @property
    def recip_degrees(self) -> np.ndarray:
        return self._degrees()[:, 2]

    @property
    def num_pure_arcs(self) -> int:
        return int(np.count_nonzero(self.codes != 2))

    @property
    def num_recip_pairs(self) -> int:
        return int(np.count_nonzero(self.codes == 2))

    @property
    def num_connected_pairs(self) -> int:
        return len(self.keys)

    # perfbench/child.py reads these two in traced runs; they go when
    # ROADMAP item 3 step 2 moves the bench onto the package's records.
    @property
    def out_idx(self) -> np.ndarray:
        return self.kind_arrays("+")[1]

    @property
    def rec_idx(self) -> np.ndarray:
        return self.kind_arrays("o")[1]

    def _degrees(self) -> np.ndarray:
        """(n, 3) counts of each vertex's '+', '-' and 'o' neighbors."""
        lo, hi = np.divmod(self.keys, self.n)
        slots = np.concatenate([lo * 3 + self.codes, hi * 3 + _MIRROR_CODE[self.codes]])
        return np.bincount(slots, minlength=3 * self.n).reshape(self.n, 3)

    def _arc_ends(self, ahead: np.ndarray, back: np.ndarray):
        """Tails and heads, unsorted, of the arcs lo->hi of the pairs in
        mask ``ahead`` and hi->lo of the pairs in mask ``back``."""
        lo, hi = np.divmod(self.keys, self.n)
        return np.concatenate([lo[ahead], hi[back]]), np.concatenate([hi[ahead], lo[back]])

    def _check_vertices(self, *vertices) -> None:
        for i in vertices:
            if not 0 <= i < self.n:
                raise InputError(f"vertex index {i} out of range")

    def kind_arrays(self, kind: str):
        """CSR (indptr, indices) for one relation: '+', '-' or 'o',
        built by one sort on each call."""
        if kind not in _KIND_CODES:
            raise InputError(f"unknown edge kind {kind!r}")
        ahead, back = _KIND_CODES[kind]
        tails, heads = self._arc_ends(self.codes == ahead, self.codes == back)
        return _csr(self.n, np.sort(tails * self.n + heads))

    def neighbors(self, i: int, kind: str) -> np.ndarray:
        self._check_vertices(i)
        ptr, idx = self.kind_arrays(kind)
        return idx[ptr[i] : ptr[i + 1]]

    def pair_relation(self, i: int, j: int) -> str:
        """Relation of j seen from i: 'out', 'in', 'recip' or 'none'."""
        self._check_vertices(i, j)
        if i == j:
            raise InputError("pair_relation needs two distinct vertices")
        key = min(i, j) * self.n + max(i, j)
        k = np.searchsorted(self.keys, key)
        if k == len(self.keys) or self.keys[k] != key:
            return "none"
        return (("out", "in", "recip") if i < j else ("in", "out", "recip"))[self.codes[k]]

    def connected_pairs(self):
        """All connected pairs in ascending (lo, hi) order.

        Returns
        -------
        pairs : (k, 2) int64 array with lo < hi
        codes : (k,) int64 array, 0 lo->hi, 1 hi->lo, 2 reciprocal
        """
        return np.column_stack(np.divmod(self.keys, self.n)), self.codes.copy()

    def arcs(self):
        """All arcs as (src, dst) arrays, reciprocal edges contributing
        both directions, sorted by (src, dst)."""
        tails, heads = self._arc_ends(self.codes != 1, self.codes != 0)
        return np.divmod(np.sort(tails * self.n + heads), self.n)

    # -- consistency --------------------------------------------------

    def validate(self) -> None:
        """Check the stored pairs, raising InvariantError on failure."""
        keys, codes, n = self.keys, self.codes, self.n
        if len(keys) != len(codes):
            raise InvariantError("keys and codes differ in length")
        if (np.diff(keys) <= 0).any():
            raise InvariantError("pair keys not strictly ascending")
        if ((keys < 0) | (keys >= n * n)).any():
            raise InvariantError("vertex index out of range")
        lo, hi = np.divmod(keys, n)
        if (lo >= hi).any():
            raise InvariantError("pair key with lo >= hi")
        if ((codes < 0) | (codes > 2)).any():
            raise InvariantError("relation code outside 0..2")

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.labels == other.labels
            and np.array_equal(self.keys, other.keys)
            and np.array_equal(self.codes, other.codes)
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
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 3, size=len(graph.keys))
    return DirectedGraph(graph.n, graph.labels, graph.keys, codes)


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
    parts = []  # keys lo * n + hi, ascending: blocks of rows, row-major
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        u = rng.random((i1 - i0, n))
        mask = (u < p) & (cols[None, :] > np.arange(i0, i1)[:, None])
        r, c = np.nonzero(mask)
        parts.append((r + i0) * n + c)
    keys = np.concatenate(parts)
    u2 = rng.random(len(keys))
    codes = np.full(len(keys), 2, dtype=np.int64)
    codes[u2 < 1 - recip_prob] = 1
    codes[u2 < (1 - recip_prob) / 2] = 0
    return DirectedGraph(n, _default_labels(n), keys, codes)
