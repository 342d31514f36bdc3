import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import digraphlets as dg
from digraphlets import graph as graph_module
from digraphlets.errors import InputError, InvariantError
from digraphlets.graph import _BLOCK_LINES

from conftest import dense_relations, digraphs, graph_of_pairs, kind_arcs

_VERTEX_PREFIX = "# vertex:"


def reference_parse(text: str) -> dg.DirectedGraph:
    """Line-by-line edge-list parser: the reference that the block-wise
    ``parse_edge_list`` must match in graphs, warnings and errors."""
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
        if "," in line:
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
    return dg.DirectedGraph.from_arcs(
        np.array(arcs, dtype=np.int64).reshape(-1, 2), n=len(labels), labels=labels
    )


def reference_text(g: dg.DirectedGraph) -> str:
    """Line-by-line edge-list writer with a two-key sort, the reference
    for ``to_edge_list_text``."""
    lines = [f"{_VERTEX_PREFIX} {lab}" for lab in g.labels]
    kinds = kind_arcs(g)
    src, dst = np.concatenate([kinds["+"], kinds["o"]]).T
    order = np.lexsort((dst, src))
    lines.extend(f"{g.labels[s]} {g.labels[d]}" for s, d in zip(src[order], dst[order]))
    return "\n".join(lines) + "\n"


def parse_outcome(parse, text):
    """(graph or error message, warning messages) of one parse."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(text)
        except InputError as exc:
            result = f"InputError: {exc}"
    return result, [str(w.message) for w in caught]


def assert_parses_like_reference(text):
    got = parse_outcome(dg.parse_edge_list, text)
    want = parse_outcome(reference_parse, text)
    if isinstance(want[0], str):
        assert got[0] == want[0]
    else:
        assert isinstance(got[0], dg.DirectedGraph) and got[0] == want[0]
    assert got[1] == want[1]
    return got[0]


def arc_list(g) -> list[tuple[int, int]]:
    return list(zip(*(x.tolist() for x in g.arcs())))


def test_single_arc():
    g = dg.parse_edge_list("a b\n")
    assert g.n == 2
    assert arc_list(g) == [(0, 1)]
    assert g.degrees.tolist() == [[1, 0, 0], [0, 1, 0]]
    assert g.labels == ("a", "b")


def test_reciprocal_collapse():
    g = dg.parse_edge_list("a b\nb a\n")
    assert arc_list(g) == [(0, 1), (1, 0)]
    assert g.connected_pairs()[1].tolist() == [2]
    assert g.num_pure_arcs == 0
    assert g.num_recip_pairs == 1


def test_self_loop_and_duplicate_policy():
    with pytest.warns(UserWarning):
        g = dg.parse_edge_list("a a\na b\na b\n")
    assert g.n == 2
    assert arc_list(g) == [(0, 1)]
    assert g.num_pure_arcs == 1


def test_labels_first_appearance_order():
    g = dg.parse_edge_list("z y\nx z\n")
    assert g.labels == ("z", "y", "x")
    assert arc_list(g) == [(0, 1), (2, 0)]


def test_csv_and_comment_lines():
    g = dg.parse_edge_list("# header\na,b\nb,c # trailing\n\n")
    assert g.labels == ("a", "b", "c")
    assert arc_list(g) == [(0, 1), (1, 2)]
    same = dg.parse_edge_list("a,b\nb,c\n")
    assert same == g


def test_malformed_line_reports_number():
    with pytest.raises(InputError, match="line 2"):
        dg.parse_edge_list("a b\na b c\n")


def test_empty_input_rejected():
    with pytest.raises(InputError):
        dg.parse_edge_list("# nothing here\n")
    with pytest.raises(InputError):
        dg.parse_edge_list("")


def test_vertex_declarations_keep_isolated():
    text = "# vertex: a\n# vertex: lonely\n# vertex: b\na b\n"
    g = dg.parse_edge_list(text)
    assert g.n == 3
    assert g.labels == ("a", "lonely", "b")
    assert arc_list(g) == [(0, 2)]
    assert g.degrees[1].tolist() == [0, 0, 0]


def test_undeclared_label_rejected():
    with pytest.raises(InputError, match="undeclared"):
        dg.parse_edge_list("# vertex: a\na b\n")


def test_round_trip_with_isolated(three_cycle):
    g = dg.DirectedGraph.from_arcs([(0, 1), (1, 0), (2, 3)], n=5)
    back = dg.parse_edge_list(g.to_edge_list_text())
    assert back == g
    assert dg.parse_edge_list(three_cycle.to_edge_list_text()) == three_cycle


@settings(deadline=None, max_examples=60)
@given(digraphs(max_n=9))
def test_round_trip_property(g):
    assert dg.parse_edge_list(g.to_edge_list_text()) == g


@settings(deadline=None, max_examples=60)
@given(digraphs(max_n=9))
def test_structural_invariants(g):
    g.validate()
    # the three relations partition each vertex's neighbors
    vertex, _, neighbor = g.half_edges()
    seen = list(zip(vertex.tolist(), neighbor.tolist()))
    assert len(set(seen)) == len(seen)
    assert not (vertex == neighbor).any()


@settings(deadline=None, max_examples=80)
@given(digraphs(max_n=9))
def test_in_relation_is_transpose_of_out(g):
    vertex, kind, neighbor = g.half_edges()
    half = {k: set(zip(vertex[kind == c].tolist(), neighbor[kind == c].tolist()))
            for c, k in enumerate(dg.EDGE_KINDS)}
    assert half["-"] == {(j, i) for i, j in half["+"]}
    assert half["o"] == {(j, i) for i, j in half["o"]}
    mats = dense_relations(g)
    degrees = g.degrees
    assert degrees.dtype == np.int64 and degrees.shape == (g.n, 3)
    for c, kind in enumerate(dg.EDGE_KINDS):
        assert np.array_equal(degrees[:, c], mats[kind].sum(axis=1))
        assert half[kind] == set(zip(*np.nonzero(mats[kind])))


def test_validate_rejects_broken_graphs():
    def graph(keys, codes):
        return dg.DirectedGraph(
            3, ("a", "b", "c"), np.array(keys, dtype=np.int64), np.array(codes, dtype=np.int64)
        )

    def check(keys, codes, message):
        with pytest.raises(InvariantError, match=message):
            graph(keys, codes).validate()

    check([1, 2], [0], "differ in length")
    check([2, 1], [0, 0], "not strictly ascending")
    check([1, 1], [0, 0], "not strictly ascending")
    check([-1, 1], [0, 0], "out of range")  # key -1 is the pair (-1, 2)
    check([1, 9], [0, 0], "out of range")  # key 9 is the pair (3, 0)
    check([3], [0], "lo >= hi")  # the pair (1, 0)
    check([4], [2], "lo >= hi")  # the self-loop (1, 1)
    check([1, 2], [0, 3], "outside 0..2")
    check([1], [-1], "outside 0..2")
    valid = graph([1, 2, 5], [0, 2, 1])
    valid.validate()
    arcs = [(0, 1), (0, 2), (2, 0), (2, 1)]
    assert valid == dg.DirectedGraph.from_arcs(arcs, labels=("a", "b", "c"))


def _first_bad_label(labels):
    """The per-character label rule that ``_check_labels`` must match."""
    for lab in labels:
        if not lab or any(c.isspace() for c in lab) or "," in lab or "#" in lab:
            return lab
    return None


@pytest.mark.parametrize(
    "bad", ["a b", "a\tb", "a\xa0b", "a\x1fb", "a\nb", "a,b", "a#b", "", " a", "b\u2003"]
)
def test_invalid_vertex_label_is_named(bad):
    for labels in (["x", bad, "y"], ["x", bad, "a b c,d"]):
        with pytest.raises(InputError) as info:
            dg.DirectedGraph.from_arcs([(0, 1)], labels=labels)
        assert str(info.value) == f"invalid vertex label {bad!r}"
    # one token per label overall, yet '' and 'a b' are both invalid
    with pytest.raises(InputError, match="^invalid vertex label ''$"):
        graph_of_pairs(3, [(0, 1)], [2], labels=("x", "", "a b"))


def test_label_count_and_uniqueness_messages():
    with pytest.raises(InputError, match="^expected 3 labels, got 2$"):
        dg.DirectedGraph.from_arcs([(0, 1)], n=3, labels=("a", "b"))
    with pytest.raises(InputError, match="^vertex labels must be unique$"):
        dg.DirectedGraph.from_arcs([(0, 1)], labels=("a", "b", "a"))
    g = dg.DirectedGraph.from_arcs([(0, 1)], labels=("é", "a-b", "[1]"))
    assert g.labels == ("é", "a-b", "[1]")


@settings(deadline=None, max_examples=300)
@given(st.lists(st.text(max_size=4), min_size=1, max_size=6, unique=True))
def test_label_check_matches_per_character_rule(labels):
    bad = _first_bad_label(labels)
    if bad is None:
        g = dg.DirectedGraph.from_arcs([], n=len(labels), labels=labels)
        assert g.labels == tuple(labels)
    else:
        with pytest.raises(InputError) as info:
            dg.DirectedGraph.from_arcs([], n=len(labels), labels=labels)
        assert str(info.value) == f"invalid vertex label {bad!r}"


def test_connected_pairs_sorted():
    g = dg.DirectedGraph.from_arcs([(3, 0), (1, 2), (2, 1)], n=4)
    pairs, codes = g.connected_pairs()
    assert pairs.tolist() == [[0, 3], [1, 2]]
    assert codes.tolist() == [1, 2]


def test_from_arcs_validation():
    with pytest.raises(InputError):
        dg.DirectedGraph.from_arcs([(0, 0)], n=2)
    with pytest.raises(InputError):
        dg.DirectedGraph.from_arcs([(0, 5)], n=3)
    with pytest.raises(InputError):
        dg.DirectedGraph.from_arcs([], n=None)
    with pytest.raises(InputError):
        dg.DirectedGraph.from_arcs([(0, 1)], labels=("dup", "dup"))
    with pytest.raises(InputError):
        dg.DirectedGraph.from_arcs([(0, 1)], labels=("a b", "c"))
    # non-integral, non-finite or non-numeric entries and vertex counts
    for arcs, n in (
        ([(0.7, 1.2), (2.9, 0)], None),
        ([(0.5, 1)], 3),
        ([(0, float("nan"))], 2),
        ([(0, float("inf"))], None),
        ([("a", "b")], None),
        ([("0", "1")], 2),
        ([(0, 1)], 2.9),
        ([(0, 1)], "2"),
        ([(0, 1)], [2]),
    ):
        with pytest.raises(InputError, match="whole number"):
            dg.DirectedGraph.from_arcs(arcs, n=n)
    # anything but a (k, 2) array, unless it is empty
    for arcs in ([(0, 1, 2)], [0, 1], [[(0, 1)]], np.zeros((2, 3), dtype=np.int64)):
        with pytest.raises(InputError, match="shape"):
            dg.DirectedGraph.from_arcs(arcs, n=3)
    with pytest.raises(InputError):
        dg.DirectedGraph.from_arcs([(0, 1), (2,)], n=3)
    # whole numbers given as floats are taken at their value
    g = dg.DirectedGraph.from_arcs([(0.0, 1.0), (2.0, 0.0)], n=3.0)
    assert g == dg.DirectedGraph.from_arcs([(0, 1), (2, 0)], n=3)
    for empty in ([], [[]], np.empty((0, 2)), np.empty(0, dtype=np.int64)):
        assert dg.DirectedGraph.from_arcs(empty, n=2) == dg.DirectedGraph.from_arcs([], n=2)


def test_randomize_preserves_skeleton():
    g = dg.random_digraph(40, 0.2, seed=11)
    r = dg.randomize_directions(g, seed=99)
    assert np.array_equal(g.connected_pairs()[0], r.connected_pairs()[0])
    assert r == dg.randomize_directions(g, seed=99)
    assert r != dg.randomize_directions(g, seed=100)


def test_randomize_edgeless_identity():
    g = dg.DirectedGraph.from_arcs([], n=4)
    assert dg.randomize_directions(g, seed=1) == g


def test_randomize_uniform_over_states():
    g = dg.DirectedGraph.from_arcs([(0, 1)], n=2)
    counts = np.zeros(3)
    for seed in range(30000):
        (code,) = dg.randomize_directions(g, seed=seed).connected_pairs()[1]
        counts[code] += 1
    freq = counts / counts.sum()
    assert np.abs(freq - 1 / 3).max() < 0.01


def test_random_digraph_extremes():
    g0 = dg.random_digraph(5, 0.0, seed=1)
    assert g0.num_connected_pairs == 0
    g1 = dg.random_digraph(4, 1.0, seed=1)
    assert g1.num_connected_pairs == 6
    pure = dg.random_digraph(30, 0.5, seed=2, recip_prob=0.0)
    assert pure.num_recip_pairs == 0
    allrec = dg.random_digraph(30, 0.5, seed=2, recip_prob=1.0)
    assert allrec.num_pure_arcs == 0
    assert dg.random_digraph(20, 0.3, seed=3) == dg.random_digraph(20, 0.3, seed=3)
    with pytest.raises(InputError):
        dg.random_digraph(5, 1.5, seed=1)


def test_random_digraph_edge_count_concentrates():
    n, p = 300, 0.2
    g = dg.random_digraph(n, p, seed=42)
    mean = p * n * (n - 1) / 2
    sd = (mean * (1 - p)) ** 0.5
    assert abs(g.num_connected_pairs - mean) < 4 * sd


def test_save_and_load(tmp_path):
    g = dg.random_digraph(12, 0.4, seed=3)
    path = tmp_path / "g.edgelist"
    dg.save_edge_list(g, path)
    assert dg.load_edge_list(path) == g


def test_load_error_names_file(tmp_path):
    bad = tmp_path / "bad.edgelist"
    bad.write_text("a b c\n")
    with pytest.raises(InputError, match="bad.edgelist"):
        dg.load_edge_list(bad)
    with pytest.raises(InputError, match="nope"):
        dg.load_edge_list(tmp_path / "nope.edgelist")


@st.composite
def arc_lists(draw, max_n=9):
    """(arcs, n): each vertex pair absent, one arc either way or both
    arcs, some arcs repeated, all in shuffled order."""
    n = draw(st.integers(1, max_n))
    arcs = []
    for i in range(n):
        for j in range(i + 1, n):
            arcs += ([], [(i, j)], [(j, i)], [(i, j), (j, i)])[draw(st.integers(0, 3))]
    if arcs:
        arcs += draw(st.lists(st.sampled_from(arcs), max_size=len(arcs)))
    return draw(st.permutations(arcs)), n


def assert_builds_like_reference(arcs, n):
    """``from_arcs(arcs, n)`` must store the (lo, hi, code) triples of a
    set-based build, and give back the arc set and the pure and
    reciprocal relations of the arc list's 0/1 matrix."""
    arcs = np.array(arcs, dtype=np.int64).reshape(-1, 2)
    built = dg.DirectedGraph.from_arcs(arcs, n=n)
    built.validate()
    arc_set = set(map(tuple, arcs.tolist()))
    want = {
        (min(s, d), max(s, d), 2 if (d, s) in arc_set else int(s > d)) for s, d in arc_set
    }
    pairs, codes = built.connected_pairs()
    assert [(lo, hi, c) for (lo, hi), c in zip(pairs.tolist(), codes.tolist())] == sorted(want)
    assert list(zip(*(x.tolist() for x in built.arcs()))) == sorted(arc_set)
    a = np.zeros((n, n), dtype=bool)
    a[arcs[:, 0], arcs[:, 1]] = True
    mats = dense_relations(built)
    assert np.array_equal(mats["+"], a & ~a.T)
    assert np.array_equal(mats["-"], (a & ~a.T).T)
    assert np.array_equal(mats["o"], a & a.T)
    return built


@settings(deadline=None, max_examples=60)
@given(arc_lists())
def test_from_arcs_shuffled_with_duplicates_matches_a_set_based_build(case):
    assert_builds_like_reference(*case)


@settings(deadline=None, max_examples=60)
@given(arc_lists())
def test_half_edges_match_a_set_based_derivation(case):
    """Each pair seen from lo, then each seen from hi, ascending (lo,
    hi); a kind is '+', '-' or 'o' by which of its two arcs exist."""
    g = dg.DirectedGraph.from_arcs(*case)
    arc_set = set(zip(*(x.tolist() for x in g.arcs())))
    pairs = sorted({(min(s, d), max(s, d)) for s, d in arc_set})

    def seen(i, j):
        ahead, back = (i, j) in arc_set, (j, i) in arc_set
        return dg.EDGE_KINDS.index("o" if ahead and back else "+" if ahead else "-")

    want = [(lo, seen(lo, hi), hi) for lo, hi in pairs]
    want += [(hi, seen(hi, lo), lo) for lo, hi in pairs]
    got = g.half_edges()
    assert all(x.dtype == np.int64 for x in got)
    assert list(zip(*(x.tolist() for x in got))) == want


def test_from_arcs_empty_list():
    for arcs in ([], np.empty((0, 2), dtype=np.int64)):
        g = dg.DirectedGraph.from_arcs(arcs, n=3)
        assert g == graph_of_pairs(3, [], [])
        assert g == dg.random_digraph(3, 0.0, seed=0)
        assert g.num_connected_pairs == 0
        g.validate()


@settings(deadline=None, max_examples=100)
@given(
    digraphs(max_n=9),
    st.sampled_from(["as drawn", "edgeless", "all reciprocal"]),
    st.integers(0, 2**32 - 1),
    st.floats(0, 1),
    st.sampled_from([0.0, 1 / 3, 1.0]),
)
def test_generators_build_what_from_arcs_builds(g, shape, seed, p, recip):
    """randomize_directions and random_digraph pack their pairs without
    from_arcs' checks; each graph must still be valid and equal to
    from_arcs of its own arcs and labels."""
    labels = [f"v{i}" for i in reversed(range(g.n))]
    pairs, codes = g.connected_pairs()
    if shape == "edgeless":
        pairs, codes = pairs[:0], codes[:0]
    elif shape == "all reciprocal":
        codes = np.full(len(codes), 2)
    g = graph_of_pairs(g.n, pairs, codes, labels=labels)
    drawn = dg.random_digraph(g.n, p, seed, recip)
    for made in (dg.randomize_directions(g, seed), drawn):
        made.validate()
        rebuilt = dg.DirectedGraph.from_arcs(
            np.column_stack(made.arcs()), n=made.n, labels=made.labels
        )
        assert made == rebuilt
    assert dg.randomize_directions(g, seed).labels == tuple(labels)


_LABEL = st.sampled_from(["a", "b", "c", "d"])
_PAD = st.sampled_from(["", " ", "\t", "  "])
_DECLARATION = st.builds(
    "{0}# vertex:{1}{2}{0}".format,
    _PAD,
    st.sampled_from(["", " ", "  "]),
    st.sampled_from(["a", "b", "c", "d", "e", "", "a b", "x,y", "f # g"]),
)
_COMMENT = st.sampled_from(["# note", "#", "  # vertex", "#vertex: a", "# vertex a", "##"])
_BLANK = st.sampled_from(["", "   ", "\t"])
_TAIL = st.sampled_from(["", " # tail", "#x", "\t#"])
_WHITESPACE_ARC = st.builds(
    "{0}{1}{2}{3}{0}{4}".format, _PAD, _LABEL, st.sampled_from([" ", "\t", "  "]), _LABEL, _TAIL
)
_COMMA_ARC = st.builds("{0}{1}{2},{3}{4}{5}".format, _PAD, _LABEL, _PAD, _PAD, _LABEL, _TAIL)
_MALFORMED = st.sampled_from(
    ["a", "a b c", "a,b,c", "a,", ",b", " , ", "a b, c", "a,b c", "a, b c", "a,,b", "x,y z", "a b,a b"]
)


@st.composite
def edge_list_texts(draw):
    """Edge-list text mixing declarations (often a leading run of them),
    comments, blank lines, whitespace and comma arcs with padding,
    self-loops, duplicates and, in about half the texts, malformed lines."""
    lines = []
    if draw(st.booleans()):
        order = draw(st.permutations(["a", "b", "c", "d"]))
        lines += [f"# vertex: {lab}" for lab in order[: draw(st.integers(0, 4))]]
    kinds = [_DECLARATION, _COMMENT, _BLANK, _WHITESPACE_ARC, _WHITESPACE_ARC, _COMMA_ARC]
    if draw(st.booleans()):
        kinds.append(_MALFORMED)
    lines += draw(st.lists(st.one_of(kinds), max_size=14))
    sep = draw(st.sampled_from(["\n", "\r\n"]))
    return sep.join(lines) + draw(st.sampled_from(["", sep]))


@settings(deadline=None, max_examples=400)
@given(edge_list_texts())
def test_parser_matches_line_by_line_reference(text):
    assert_parses_like_reference(text)


def _separated(text, style):
    """``text`` with the content before each ``#`` split by whitespace
    (``whitespace``) or by single commas (``csv``); ``auto`` keeps it."""
    if style == "auto":
        return text
    lines = []
    for line in text.split("\n"):
        body, hash_, comment = line.partition("#")
        if style == "whitespace":
            body = body.replace(",", " ")
        else:
            body = re.sub(r"\s*,\s*|\s+", ",", body.strip())
        lines.append(body + hash_ + comment)
    return "\n".join(lines)


@pytest.mark.parametrize("text", [
    # a late declaration is accepted while every arc so far is a self-loop
    "# vertex: a\na a\n# vertex: b\na b\n",
    "# vertex: a\na a\n# vertex: b\nb a\n# vertex: c\n",
    # ...but not once the file has indexed a vertex by first appearance
    "a a\n# vertex: b\n",
    "# note\n\n# vertex: a\n# vertex: b\nb b\na b\n",
    # a label used before its declaration line is undeclared there
    "# vertex: a\na a\nb b\n# vertex: b\n",
    # one line, several faults: the first in reading order wins
    "# vertex:\n# vertex: a\n",
    "a b\n# vertex:\n",
    "# vertex: a\n# vertex: b\na b\n# vertex: a\n",
    "# vertex: a\n# vertex: a\n",
    "# vertex: a\nb a\n",
    # labels the graph rejects only once every line is read
    "a b, c\nd e\n",
    "# vertex: a b\n# vertex: c\na b, c\n",
    "# vertex: f # g\n",
    "a b\nb a\na b\na a\nb b\n",
    "a , b\n b ,a # x\n",
    "",
    "# only a comment\n",
])
@pytest.mark.parametrize("style", ["auto", "whitespace", "csv"])
def test_parser_matches_reference_on_corner_cases(text, style):
    """Each case as written, with its commas turned to spaces, and with
    the separators of its content turned to commas, so that both
    splitting rules meet every case."""
    assert_parses_like_reference(_separated(text, style))


def _long_text(head, body_line, tail):
    """``head`` lines, ``body_line`` repeated past the first block, the
    ``tail`` lines and one more ``body_line``; returns the text and the
    line number of tail[0]."""
    lines = head + [body_line] * (_BLOCK_LINES + 2) + tail + [body_line]
    assert len(lines) >= _BLOCK_LINES + 3
    return "\n".join(lines) + "\n", len(head) + _BLOCK_LINES + 3


@pytest.mark.parametrize("head, body_line, tail, message", [
    ([], "u v", ["x y z"], "expected two vertex tokens, got 'x y z'"),
    (["# vertex: a", "# vertex: b"], "a b", ["a c"], "undeclared vertex 'c'"),
    (["# vertex: a", "# vertex: b"], "a b", ["# vertex: c"],
     "vertex declarations must precede arcs"),
])
def test_errors_past_the_first_block_report_absolute_lines(head, body_line, tail, message):
    text, lineno = _long_text(head, body_line, tail)
    with pytest.raises(InputError, match=f"^line {lineno}: {message}$"):
        dg.parse_edge_list(text)
    assert_parses_like_reference(text)


@pytest.mark.parametrize("head, body_line", [
    (["# vertex: a", "# vertex: b"], "a b"),
    ([], "a b"),
])
def test_declaration_opening_the_second_block_is_late(head, body_line):
    lines = head + [body_line] * (_BLOCK_LINES - len(head)) + ["# vertex: c", "a b"]
    text = "\n".join(lines) + "\n"
    message = f"^line {_BLOCK_LINES + 1}: vertex declarations must precede arcs$"
    with pytest.raises(InputError, match=message):
        dg.parse_edge_list(text)
    assert_parses_like_reference(text)


def test_state_carries_across_blocks():
    # self-loops fill the first block, so a declaration in the second is
    # still accepted; duplicates span the boundary
    text, _ = _long_text(
        ["# vertex: a", "# vertex: b"], "a a", ["# vertex: c", "a c", "b a", "a c"]
    )
    g = assert_parses_like_reference(text)
    assert g.labels == ("a", "b", "c")
    text, _ = _long_text([], "p q", ["q p", "p q", "r p"])
    g = assert_parses_like_reference(text)
    assert g.labels == ("p", "q", "r") and g.num_recip_pairs == 1


@settings(deadline=None, max_examples=60)
@given(digraphs(max_n=9), st.randoms(use_true_random=False))
def test_writer_and_sorts_match_references(g, rnd):
    labels = [f"v{i}" for i in range(g.n)]
    rnd.shuffle(labels)
    g = graph_of_pairs(g.n, *g.connected_pairs(), labels=labels)
    assert g.to_edge_list_text() == reference_text(g)
    src, dst = g.arcs()
    order = np.lexsort((dst, src))
    assert np.array_equal(src, src[order]) and np.array_equal(dst, dst[order])
    pairs, _ = g.connected_pairs()
    assert np.array_equal(pairs, pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))])


def test_regular_texts_are_read_in_bulk(monkeypatch):
    """Texts whose declarations all come first, with unique labels,
    two tokens per arc line and (given declarations) only declared
    tokens never reach the line-by-line reader."""
    def fail(lines):
        raise AssertionError("the line-by-line reader ran")

    saved = dg.random_digraph(500, 0.5, seed=2).to_edge_list_text()
    assert saved.count("\n") > _BLOCK_LINES
    texts = [
        saved,
        saved.split("\n", 500)[-1] + "p q\nq p\np q\nq q\n",
        "# vertex: a\n\n# a comment\r\n# vertex: b\r\n# vertex: c\na b\r\nc c\n",
        "# header\r\n a , b \r\n\r\nb,c # tail\r\n  \r\nc,a\r\nc ,  a\r\n",
    ]
    monkeypatch.setattr(graph_module, "_read_lines", fail)
    for text in texts:
        assert isinstance(assert_parses_like_reference(text), dg.DirectedGraph)


@pytest.mark.parametrize("line", [
    "a b,", ", a b", "a,,b", "a , b ,", "a,b,c", "a b, c", "a,b c", "a\tb ,c",
])
@pytest.mark.parametrize("head", ["", "# vertex: a\n# vertex: b\n"])
def test_comma_lines_that_split_unlike_whitespace(head, line):
    """A comma line with an empty field, a second comma or whitespace
    inside a field splits differently on its comma than on whitespace;
    each must parse as the line-by-line reference does, before a
    regular line and after one."""
    assert_parses_like_reference(f"{head}{line}\nb a\n")
    assert_parses_like_reference(f"{head}b a\n{line}\n")
