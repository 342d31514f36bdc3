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
from collections import defaultdict
from dataclasses import dataclass
from itertools import count

import numpy as np

from .errors import InputError
from .fileio import _joined, read_parsed, write_text
from .taxonomy import EDGE_KINDS, MIRROR

_VERTEX_PREFIX = "# vertex:"
_BLOCK_LINES = 1 << 16  # lines read at once; bounds the parser's working set
_PREFIX = np.frombuffer(_VERTEX_PREFIX.encode(), np.uint8)
# bulk reader byte kinds: 0 token, 1 whitespace, 2 '#', 3 declines the text
_KINDS = b"\t\n\x1f ", b"#", b"\r\v\f\x1c\x1d\x1e,"
_BYTE_KIND = bytes(sum(k * (c in s) for k, s in enumerate(_KINDS, 1)) for c in range(256))
# a pair's code, the kind of hi seen from lo -> the kind of lo seen from hi
_MIRROR_CODE = np.array([EDGE_KINDS.index(MIRROR[k]) for k in EDGE_KINDS])
_DIGITS = 18  # the longest canonical decimal label; 10**18 - 1 fits int64
_POWERS = 10 ** np.arange(_DIGITS, dtype=np.int64)


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


def _vertex_count(n) -> int:
    """``n`` as an int; InputError unless it is one whole number >= 1."""
    count = _whole_numbers(n, "the vertex count must be a whole number")
    if count.ndim:
        raise InputError("the vertex count must be a whole number")
    if count <= 0:
        raise InputError("graph needs at least one vertex")
    return int(count)


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


def _pack(n: int, src, dst):
    """Ascending pair keys lo * n + hi and codes of loop-free arcs in 0..n-1."""
    # Twice each arc's pair key, plus 1 for an arc hi->lo: once sorted,
    # a pair's first and last entry differ iff it holds both arcs.
    packed = np.sort((np.minimum(src, dst) * n + np.maximum(src, dst)) * 2 + (src > dst))
    keys, side = np.divmod(packed, 2)
    first = np.diff(keys, prepend=-1) != 0
    last = np.diff(keys, append=n * n) != 0
    return keys[first], 2 * side[last] - side[first]  # (0, 1) is the one mixed pair


@dataclass(eq=False)
class DirectedGraph:
    """Vertex-labelled digraph as its connected pairs.

    ``keys[k] = lo * n + hi`` (lo < hi) names the k-th connected pair,
    the keys ascending, and ``codes[k]`` is its relation: 0 lo->hi,
    1 hi->lo, 2 reciprocal.  ``degrees`` and ``arcs`` are derived on
    each call.  Graphs are built by ``from_arcs``, the one public
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
        n = _vertex_count(n)
        if len(arcs):
            if arcs.min() < 0 or arcs.max() >= n:
                raise InputError("vertex index out of range")
            if (arcs[:, 0] == arcs[:, 1]).any():
                raise InputError("self-loops are not allowed")
        labels = tuple(map(str, range(n))) if labels is None else _check_labels(labels, n)
        return cls(n, labels, *_pack(n, arcs[:, 0], arcs[:, 1]))

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

    # perfbench/child.py reads the lengths of these two in traced runs;
    # they go when ROADMAP item 1 step 2 moves the bench onto the
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
        lo, hi = np.divmod(self.keys[self.codes != 0], self.n)  # the pairs with hi->lo
        keys = np.sort(np.concatenate([self.keys[self.codes != 1], hi * self.n + lo]))
        src = keys // self.n
        return src, keys - src * self.n

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
        head = "".join([f"{_VERTEX_PREFIX} {label}\n" for label in self.labels])
        words = [label + " " for label in self.labels] + [label + "\n" for label in self.labels]
        tokens = np.stack(self.arcs(), axis=1)  # raveled: src, dst, src, dst, ...
        tokens[:, 1] += self.n
        return head + _joined(words, tokens.ravel())


def parse_edge_list(text: str) -> DirectedGraph:
    """Parse edge-list text into a DirectedGraph.

    An arc line that holds a comma splits on it, each field stripped of
    surrounding whitespace; any other arc line splits on whitespace.
    Vertices are numbered by first appearance; declarations, which must
    come first, fix that order.  First means before the first arc
    between two different vertices, and not after an arc read before
    any declaration; given declarations, every arc token must be
    declared.  Self-loops and duplicate arcs are dropped with a
    warning.  Malformed lines raise InputError with the line number.
    ``to_edge_list_text`` writes the declarations followed by the arcs
    in ascending (src, dst) order.

    A text in the form ``to_edge_list_text`` writes is read in bulk, as
    bytes in blocks of ``_BLOCK_LINES`` lines: ASCII, ``\\n`` line ends,
    whitespace between tokens and no comma, each ``#`` in column 0 opening
    a declaration of one unique label, all declarations before the first
    arc line, two tokens on each arc line and, with declarations, only
    declared tokens, so its labels are valid as read.  Any other text is
    read again, one line at a time, up to its first faulty line, and its
    labels are checked.  A bulk text whose labels are all canonical
    decimal (ASCII digits, no sign, no leading zero but in ``0``, at most
    18 digits) maps them to indices through a table indexed by value,
    not a dict of label strings, while the largest value read stays
    below 4 * tokens read + 2**16; the result is the same.
    """
    bulk = _read_blocks(text)
    names, ends = bulk or _read_lines(text.splitlines())
    src, dst = ends[0::2], ends[1::2]
    loop = src == dst
    loops = int(np.count_nonzero(loop))
    if loops:
        warnings.warn(f"dropped {loops} self-loop(s)", stacklevel=2)
    if not names:  # then there are no arcs either, so no warning is due
        raise InputError("edge list declares no vertices and no arcs")
    n = len(names)
    keys, codes = _pack(n, src[~loop], dst[~loop])
    dupes = len(src) - loops - len(keys) - int(np.count_nonzero(codes == 2))
    if dupes:
        warnings.warn(f"collapsed {dupes} duplicate arc(s)", stacklevel=2)
    # the line reader's labels are checked after both warnings
    return DirectedGraph(n, tuple(names) if bulk else _check_labels(names, n), keys, codes)


def _read_blocks(text: str, decimal: bool = True):
    """Labels and arc ends (src, dst, src, dst, ...) of a text in the form
    ``to_edge_list_text`` writes, read as bytes in blocks of ``_BLOCK_LINES``
    lines; False for any other text.  That form is ASCII, with ``\\n`` line
    ends, whitespace between tokens and no comma, and each ``#`` opens a
    ``# vertex:`` declaration in column 0.

    Vertices are numbered by first appearance; declarations, which must
    come first, fix that order.  With ``decimal``, a text whose tokens
    are all canonical decimal (``_decimal_values``), each block's largest
    value so far below ``4 * tokens read + 2**16``, maps them at its end
    through one table indexed by value.  Any other text goes through one
    dict from the block that breaks the rule on, from the first if an
    earlier block was read as numbers.
    """
    if not text.isascii():
        return False
    data = np.frombuffer(text.encode(), np.uint8)
    # line i lies between newlines[i] and newlines[i + 1]
    newlines = np.concatenate([[-1], np.flatnonzero(data == 10), [len(data)]])
    # label -> id by first appearance; each block's ids or (decimal) values; largest value
    names, ends, decls, top = defaultdict(count().__next__), [], 0, 0
    for first in range(0, len(newlines) - 1, _BLOCK_LINES):
        nl = newlines[first : first + _BLOCK_LINES + 1]
        b, nl = data[nl[0] + 1 : nl[-1]], nl - nl[0] - 1
        kind = np.frombuffer(b.tobytes().translate(_BYTE_KIND), np.uint8)
        hashes = np.flatnonzero(kind == 2)
        decl_at = np.searchsorted(nl, hashes) - 1  # the line of each '#'
        prefix = np.minimum(hashes[:, None] + np.arange(len(_VERTEX_PREFIX)), len(b) - 1)
        blank = kind != 0
        blank[prefix] = True  # hide each declaration's prefix
        starts = np.flatnonzero(~blank & np.append(True, blank[:-1]))
        per_line = np.diff(np.searchsorted(starts, nl))  # tokens that start on each line
        if (
            (kind == 3).any()
            # each '#' opens a declaration in column 0
            or (nl[decl_at] + 1 != hashes).any()
            or (b[prefix] != _PREFIX).any()
            or (per_line > 2).any()
            or not np.array_equal(np.flatnonzero(per_line == 1), decl_at)
            # no declaration after an arc line
            or len(decl_at) and (sum(map(len, ends)) > decls or 2 in per_line[: decl_at[-1]])
        ):
            return False
        numbers = _decimal_values(b, starts, blank) if decimal else None
        if numbers is not None:
            top = max(top, numbers.max(initial=0))
            if top < 4 * (sum(map(len, ends)) + len(numbers)) + (1 << 16):  # table in O(text)
                ends.append(numbers)
                decls += len(decl_at)
                continue
        if decimal and ends:  # earlier blocks were read as numbers
            return _read_blocks(text, decimal=False)
        decimal = False
        words = b.tobytes().decode().replace(_VERTEX_PREFIX, "").split()
        k = len(decl_at)
        ids = np.fromiter(map(names.__getitem__, words), np.int64, len(words))
        if (ids[:k] != np.arange(decls, decls + k)).any():  # a label declared twice
            return False
        decls += k
        if 0 < decls < len(names):  # a label past the declarations: an undeclared token
            return False
        ends.append(ids)
    values, ends = np.split(np.concatenate(ends), [decls])
    if not decimal:
        return names, ends
    if not len(values):  # number the values by first appearance
        seen_at = np.full(top + 1, len(ends))
        np.minimum.at(seen_at, ends, np.arange(len(ends)))
        values = np.flatnonzero(seen_at < len(ends))
        values = values[np.argsort(seen_at[values])]
    table, ids = np.full(top + 1, -1), np.arange(len(values))
    table[values] = ids
    ends = table[ends]
    # a label declared twice reads back another id, an undeclared token -1
    if (table[values] != ids).any() or (ends < 0).any():
        return False
    return list(map(str, values.tolist())), ends


def _decimal_values(b, starts, blank):
    """int64 values of the tokens of block ``b`` that start at ``starts``
    and run up to the next ``blank`` byte, or None unless each is
    canonical decimal: ASCII digits alone, at most ``_DIGITS`` of them and
    no leading zero but in ``0``, so that ``str`` gives the token back."""
    lead = b[starts] - np.uint8(ord("0"))
    if (lead > 9).any():  # the cheap test that turns most other labels away
        return None
    last = np.flatnonzero(~blank & np.append(blank[1:], True))
    size = last - starts + 1
    width = size.max(initial=0)
    if width > _DIGITS or ((lead == 0) & (size > 1)).any():
        return None
    # row j holds each token's digit of 10**j, and 0 left of its first
    # digit, where the index may wrap but never below -len(b)
    place = np.arange(width)[:, None]
    digits = (b[last - place] - np.uint8(ord("0"))) * (place < size)
    if (digits > 9).any():
        return None
    return _POWERS[:width] @ digits


def _read_lines(lines: list[str]):
    """Labels and arc ends of any text, read one line at a time; the
    first faulty line raises InputError with its line number.  Vertices
    are numbered by first appearance; declarations, which must come
    first, fix that order."""
    names, ends, decls = {}, [], 0  # label -> id by first appearance; declarations so far
    moved = False  # an arc between two different vertices was read
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line.startswith(_VERTEX_PREFIX):
            label = line[len(_VERTEX_PREFIX) :].strip()
            if not label:
                message = "empty vertex label"
            elif moved or len(names) > decls:  # or an arc named a label before any declaration
                message = "vertex declarations must precede arcs"
            elif label in names:
                message = f"duplicate vertex label {label!r}"
            else:
                names[label], decls = decls, decls + 1
                continue
            raise InputError(f"line {lineno}: {message}")
        line = line.partition("#")[0].strip()
        if not line:
            continue
        tokens = [t.strip() for t in line.split(",")] if "," in line else line.split()
        if len(tokens) != 2 or "" in tokens:
            raise InputError(f"line {lineno}: expected two vertex tokens, got {raw!r}")
        for token in tokens:
            if decls and token not in names:
                raise InputError(f"line {lineno}: undeclared vertex {token!r}")
            ends.append(names.setdefault(token, len(names)))
        moved = moved or ends[-2] != ends[-1]
    return names, np.array(ends, dtype=np.int64)


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
    n = _vertex_count(n)
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
    return DirectedGraph(n, tuple(map(str, range(n))), keys, codes)
