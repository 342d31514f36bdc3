"""Directed graphs stored as their connected pairs and relations.

A pair of mutual arcs i->j and j->i is collapsed into one reciprocal
edge, so every connected vertex pair lo < hi sits in exactly one of
three relations: lo->hi, hi->lo or reciprocal.  A graph stores just
that: the ascending keys ``lo * n + hi`` of its connected pairs and one
relation code per pair.  Self-loops are not representable.  Everything
else is read off the half-edges, each pair seen from both ends as
(vertex, kind, neighbor): kind 0 '+', 1 '-' or 2 'o' says the neighbor
is pure out, pure in or reciprocal.  A code is the kind of hi seen from
lo, and its mirror (taxonomy.MIRROR) that of lo seen from hi.

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
from .taxonomy import EDGE_KINDS, MIRROR

_VERTEX_PREFIX = "# vertex:"
_BLOCK_LINES = 1 << 16  # lines split at once; bounds the parser's working set
# a pair's code, the kind of hi seen from lo -> the kind of lo seen from hi
_MIRROR_CODE = np.array([EDGE_KINDS.index(MIRROR[k]) for k in EDGE_KINDS])


def _whole_numbers(values, message: str) -> np.ndarray:
    """``values`` as int64; InputError(message) unless all are whole numbers."""
    try:
        a = np.asarray(values)
    except ValueError:  # ragged nesting
        raise InputError(message) from None
    if a.dtype.kind == "f" and ((np.trunc(a) == a) & (abs(a) < 2.0**63)).all():
        a = a.astype(np.int64)
    if a.dtype.kind not in "iu":
        raise InputError(message)
    return a.astype(np.int64, copy=False)


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
    1 hi->lo, 2 reciprocal.  ``degrees`` and ``arcs`` each select from
    ``half_edges`` on each call.  Graphs are built by ``from_arcs``, the
    one public constructor, which checks its input; the random
    generators below store pairs they drew themselves.
    """

    n: int
    labels: tuple[str, ...]
    keys: np.ndarray
    codes: np.ndarray

    # -- construction -------------------------------------------------

    @classmethod
    def from_arcs(cls, arcs, n=None, labels=None) -> "DirectedGraph":
        """Build from a (k, 2) array of whole-number arcs.

        Mutual arcs become reciprocal, duplicates collapse silently and
        self-loops are rejected.  The vertex count defaults to max + 1.
        """
        arcs = _whole_numbers(arcs, "arc entries must be whole numbers")
        arcs = arcs.reshape(0, 2) if arcs.size == 0 else arcs
        if arcs.ndim != 2 or arcs.shape[1] != 2:
            raise InputError(f"arcs must have shape (k, 2), got {arcs.shape}")
        if labels is not None:
            labels = tuple(labels)
            if n is None:
                n = len(labels)
        if n is None:
            if len(arcs) == 0:
                raise InputError("cannot infer vertex count from an empty arc list")
            n = int(arcs.max()) + 1
        n = _whole_numbers(n, "the vertex count must be a whole number")
        if n.ndim:
            raise InputError("the vertex count must be a whole number")
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

    def half_edges(self):
        """(vertex, kind, neighbor) int64 arrays of each pair seen from
        lo, then of each seen from hi; kind 0 '+', 1 '-' or 2 'o'
        (EDGE_KINDS order) is the neighbor seen from the vertex."""
        lo, hi = np.divmod(self.keys, self.n)
        kind = np.concatenate([self.codes, _MIRROR_CODE[self.codes]])
        return np.concatenate([lo, hi]), kind, np.concatenate([hi, lo])

    @property
    def degrees(self) -> np.ndarray:
        """(n, 3) int64 counts of each vertex's '+', '-' and 'o' neighbors."""
        vertex, kind, _ = self.half_edges()
        return np.bincount(vertex * 3 + kind, minlength=3 * self.n).reshape(self.n, 3)

    @property
    def num_pure_arcs(self) -> int:
        return int(np.count_nonzero(self.codes != 2))

    @property
    def num_recip_pairs(self) -> int:
        return int(np.count_nonzero(self.codes == 2))

    @property
    def num_connected_pairs(self) -> int:
        return len(self.keys)

    # perfbench/child.py reads the lengths of these two in traced runs;
    # they go when ROADMAP item 3 step 2 moves the bench onto the
    # package's records.
    @property
    def out_idx(self) -> np.ndarray:
        _, kind, neighbor = self.half_edges()
        return neighbor[kind == EDGE_KINDS.index("+")]

    @property
    def rec_idx(self) -> np.ndarray:
        _, kind, neighbor = self.half_edges()
        return neighbor[kind == EDGE_KINDS.index("o")]

    def connected_pairs(self):
        """(k, 2) int64 pairs lo < hi in ascending order and their int64
        codes: 0 lo->hi, 1 hi->lo, 2 reciprocal."""
        return np.column_stack(np.divmod(self.keys, self.n)), self.codes.copy()

    def arcs(self):
        """All arcs as (src, dst) arrays, reciprocal edges contributing
        both directions, sorted by (src, dst)."""
        vertex, kind, neighbor = self.half_edges()
        out = kind != EDGE_KINDS.index("-")  # the arc vertex->neighbor exists
        return np.divmod(np.sort(vertex[out] * self.n + neighbor[out]), self.n)

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

    Each unordered pair is connected with probability ``p``: the number
    of connected pairs is drawn from Binomial(n(n-1)/2, p), then that
    many distinct pairs uniformly, by their row-major index.  A
    connected pair is reciprocal with probability ``recip_prob`` and
    otherwise a single arc with uniform random direction.
    """
    n = int(n)
    if n <= 0:
        raise InputError("graph needs at least one vertex")
    if not 0 <= p <= 1:
        raise InputError("edge probability must be in [0, 1]")
    if not 0 <= recip_prob <= 1:
        raise InputError("recip_prob must be in [0, 1]")
    rng = np.random.default_rng(seed)
    total = n * (n - 1) // 2
    index = np.sort(rng.choice(total, rng.binomial(total, p), replace=False, shuffle=False))
    rows = np.arange(n, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2  # starts[i]: index of the pair (i, i + 1)
    lo = np.searchsorted(starts, index, side="right") - 1
    keys = lo * n + lo + 1 + index - starts[lo]  # ascending, as the index is
    u2 = rng.random(len(keys))
    codes = np.full(len(keys), 2, dtype=np.int64)
    codes[u2 < 1 - recip_prob] = 1
    codes[u2 < (1 - recip_prob) / 2] = 0
    return DirectedGraph(n, _default_labels(n), keys, codes)
