import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import digraphlets as dg
from digraphlets import fileio
from digraphlets import graph as graph_module
from digraphlets.errors import InputError, InvariantError
from digraphlets.graph import _BLOCK_LINES

from conftest import dense_relations, digraphs, graph_of_pairs, kind_arcs, validate_graph

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
    validate_graph(g)
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
            validate_graph(graph(keys, codes))

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
    validate_graph(valid)
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
        ([(0, 1)], True),
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
    assert len(g0.keys) == 0
    g1 = dg.random_digraph(4, 1.0, seed=1)
    assert len(g1.keys) == 6
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
    assert abs(len(g.keys) - mean) < 4 * sd


def test_random_digraph_takes_its_vertex_count_as_from_arcs_does():
    for n in (2.5, "5", True, [3]):
        with pytest.raises(InputError, match="^the vertex count must be a whole number$"):
            dg.random_digraph(n, 0.1, seed=0)
    for n in (0, -3, 0.0):
        with pytest.raises(InputError, match="^graph needs at least one vertex$"):
            dg.random_digraph(n, 0.1, seed=0)
    # whole numbers draw the graphs they always drew, given as floats too
    g = dg.random_digraph(5, 0.6, seed=1)
    assert g.keys.tolist() == [1, 2, 4, 8, 13, 19]
    assert g.codes.tolist() == [0, 1, 2, 1, 1, 0]
    assert dg.random_digraph(5.0, 0.6, seed=1) == g
    g = dg.random_digraph(np.int64(12), 0.4, seed=3)
    assert g.keys.tolist() == [3, 5, 8, 9, 10, 14, 18, 20, 29, 31, 33, 34, 35, 44,
                               54, 56, 58, 59, 68, 94, 106]
    assert g.codes.tolist() == [1, 1, 2, 2, 0, 1, 2, 0, 0, 2, 0, 0, 2, 1, 1, 2, 0, 2,
                                1, 0, 1]
    assert dg.random_digraph(12.0, 0.4, seed=3) == g


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
    validate_graph(built)
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
        assert len(g.keys) == 0
        validate_graph(g)


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
        validate_graph(made)
        rebuilt = dg.DirectedGraph.from_arcs(
            np.column_stack(made.arcs()), n=made.n, labels=made.labels
        )
        assert made == rebuilt
    assert dg.randomize_directions(g, seed).labels == tuple(labels)


_ASCII_PAD = ["", " ", "\t", "  ", "\x1f"]
_COMMENT = st.sampled_from(["# note", "#", "  # vertex", "#vertex: a", "# vertex a", "##"])
_BLANK = st.sampled_from(["", "   ", "\t"])
_TAIL = st.sampled_from(["", " # tail", "#x", "\t#"])
_MALFORMED = st.sampled_from(
    ["a", "a b c", "a,b,c", "a,", ",b", " , ", "a b, c", "a,b c", "a, b c", "a,,b", "x,y z", "a b,a b"]
)
# canonical decimal labels, which the bulk reader maps by value, and
# tokens that only look like them, which send a whole text to the dict
_DECIMALS = ["0", "1", "7", "10", "90", "123456789012345678", "999999999999999999"]
_NEAR_DECIMALS = ["01", "00", "+1", "-1", "1234567890123456789", "\u0663", "1a", "a1"]


@st.composite
def edge_list_texts(draw):
    """Edge-list text mixing declarations (often a leading run of them),
    comments, blank lines, whitespace and comma arcs with padding,
    self-loops and duplicates; about half the texts also hold malformed
    lines, and about half pad with U+00A0.  The five labels are letters,
    canonical decimals, or canonical decimals with one token that only
    looks like one among the four that arcs use."""
    pad = st.sampled_from(_ASCII_PAD + draw(st.sampled_from([[], ["\xa0"]])))
    pool = draw(st.sampled_from(["letters", "decimal", "near decimal"]))
    if pool == "letters":
        labels = ["a", "b", "c", "d", "e"]
    else:
        labels = draw(st.lists(st.sampled_from(_DECIMALS), min_size=5, max_size=5, unique=True))
        if pool == "near decimal":
            labels[draw(st.integers(0, 3))] = draw(st.sampled_from(_NEAR_DECIMALS))
    label = st.sampled_from(labels[:4])
    declaration = st.builds(
        "{0}# vertex:{1}{2}{0}".format,
        pad,
        st.sampled_from(["", " ", "  "]),
        st.sampled_from(labels + ["", "a b", "x,y", "f # g"]),
    )
    whitespace_arc = st.builds(
        "{0}{1}{2}{3}{0}{4}".format, pad, label, st.sampled_from([" ", "\t", "  "]), label, _TAIL
    )
    comma_arc = st.builds("{0}{1}{2},{3}{4}{5}".format, pad, label, pad, pad, label, _TAIL)
    lines = []
    if draw(st.booleans()):
        order = draw(st.permutations(labels[:4]))
        lines += [f"# vertex: {lab}" for lab in order[: draw(st.integers(0, 4))]]
    kinds = [declaration, _COMMENT, _BLANK, whitespace_arc, whitespace_arc, comma_arc]
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
    "# vertex: a b\n# vertex: c\na b, c\na b, c\n",
    "# vertex: f # g\n",
    "a b\nb a\na b\na a\nb b\n",
    "a , b\n b ,a # x\n",
    "",
    "# only a comment\n",
    # texts the byte reader must decline or read as str.splitlines and
    # str.split do: a comma before a '#', a '#' or ',' in a declared
    # label, line breaks other than \n and \r\n, whitespace that is not
    # ASCII or no line break, non-ASCII labels and lone surrogates
    ", # vertex: a\n",
    "# vertex: a#b\n",
    "# vertex: ,a\n",
    "a\rb\n",
    "a\vb c\n",
    "a\fb c\n",
    "a\x1cb c\n",
    "a\x1fb\nb\x1f\x1fc # x\n",
    "a\xa0b c\n",
    "a\u2028b c\n",
    "a\x85b c\n",
    "# vertex: Région\n# vertex: b\nRégion b # é\n",
    "\ud800 b\nb \udfff\n",
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
    # self-loops index a by first appearance, so no declaration may follow
    ([], "a a", ["# vertex: b"], "vertex declarations must precede arcs"),
])
def test_errors_past_the_first_block_report_absolute_lines(head, body_line, tail, message):
    text, lineno = _long_text(head, body_line, tail)
    with pytest.raises(InputError, match=f"^line {lineno}: {message}$"):
        dg.parse_edge_list(text)
    assert_parses_like_reference(text)


@pytest.mark.parametrize("head, body_line", [
    (["# vertex: a", "# vertex: b"], "a b"),
    ([], "a b"),
    # no arc before it, so the declaration is in time, but c is declared twice
    (["# vertex: a", "# vertex: b", "# vertex: c"], "# a comment"),
])
def test_declaration_opening_the_second_block_is_late(head, body_line):
    """A declaration that opens the second block is checked against what
    the first block read: after an arc it is late, after its own label's
    declaration a duplicate."""
    lines = head + [body_line] * (_BLOCK_LINES - len(head)) + ["# vertex: c", "a b"]
    text = "\n".join(lines) + "\n"
    late = "# vertex: c" not in head
    fault = "vertex declarations must precede arcs" if late else "duplicate vertex label 'c'"
    message = f"^line {_BLOCK_LINES + 1}: {fault}$"
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


def _decimal_arcs(count, start=0):
    """``count`` arc lines between decimal labels, in an order that is
    not numeric order, from line ``start`` on."""
    return [f"{i * 7919 % 1009} {i * 104729 % 997}" for i in range(start, start + count)]


@pytest.mark.parametrize("odd", ["01", "v1", "+1", "1234567890123456789", "\u0663"])
def test_one_rule_per_text_across_blocks(odd):
    """A text that is canonical decimal in its first block and holds some
    other token in a later one, and the reverse, parse as the reference
    does; only a text decimal throughout is mapped by value."""
    head = _decimal_arcs(_BLOCK_LINES + 5)
    texts = {
        "later": head + [f"{odd} 3"] + _decimal_arcs(9, len(head)),
        "first": [f"3 {odd}"] + head,
        "declared later": [f"# vertex: {i}" for i in range(_BLOCK_LINES + 5)]
        + [f"# vertex: {odd}", f"{odd} 3", "5 6"],
    }
    for lines in texts.values():
        text = "\n".join(lines) + "\n"
        read = graph_module._read_blocks(text)
        # a text that is not ASCII is left to the line reader
        assert isinstance(read[0], dict) if odd.isascii() else read is False
        assert_parses_like_reference(text)
    text = "\n".join(head) + "\n"
    assert isinstance(graph_module._read_blocks(text)[0], list)
    assert_parses_like_reference(text)


@pytest.mark.parametrize("text", [
    "# vertex: 900000000000000000\n# vertex: 5\n# vertex: 123456789012345678\n"
    "5 900000000000000000\n123456789012345678,5\n900000000000000000 5\n",
    "# vertex: 900000000000000000\n# vertex: 0\n0 900000000000000001\n",
    "900000000000000000 5\n123456789012345678 900000000000000000\n5 5\n",
    "# vertex: 10\n# vertex: 2\n# vertex: 10\n2 10\n",
    "# vertex: 0\n\n# 0 1\n",
])
def test_decimal_labels_far_above_the_vertex_count(text):
    """Labels far above n, declared or not, lie past the value table's
    bound and go through the label dict; a text with an undeclared value
    or a label declared twice goes to the line reader."""
    assert_parses_like_reference(text)


@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("declared", [True, False])
def test_value_table_bound(declared, blocks):
    """A decimal text maps through the value table while, after each
    block, its largest value stays below 4 * tokens read + 2**16, and
    through the label dict once a block reaches that, the first or a
    later one."""
    if declared:
        head = [f"# vertex: {i}" for i in range(_BLOCK_LINES if blocks == 2 else 2)]
    else:
        head = _decimal_arcs(_BLOCK_LINES) if blocks == 2 else []
    tail = ["# vertex: {0}"] * declared + ["0 {0}", "{0} 1"]
    bound = 4 * sum(1 if line[0] == "#" else 2 for line in head + tail) + 2**16
    for top, path in ((bound - 1, list), (bound, dict)):
        text = "\n".join(head + [line.format(top) for line in tail]) + "\n"
        assert isinstance(graph_module._read_blocks(text)[0], path)
        assert str(top) in assert_parses_like_reference(text).labels


@pytest.mark.parametrize("label", [7, _BLOCK_LINES + 1])
def test_decimal_label_declared_twice_across_blocks(label):
    """Declarations of 0 .. _BLOCK_LINES + 1, which cross into the second
    block, then ``label`` (first declared in the first block or in the
    second) once more."""
    lines = [f"# vertex: {i}" for i in range(_BLOCK_LINES + 2)] + [f"# vertex: {label}", "7 0"]
    text = "\n".join(lines) + "\n"
    assert graph_module._read_blocks(text) is False
    message = f"^line {_BLOCK_LINES + 3}: duplicate vertex label '{label}'$"
    with pytest.raises(InputError, match=message):
        dg.parse_edge_list(text)
    assert_parses_like_reference(text)


@pytest.mark.parametrize("token", ["11", "7", "0"])
def test_undeclared_decimal_token(token):
    """A token above every declared value, one inside their range and
    one below it are each undeclared."""
    text = f"# vertex: 5\n# vertex: 10\n# vertex: 2\n10 5\n5 {token}\n"
    assert graph_module._read_blocks(text) is False
    with pytest.raises(InputError, match=f"^line 5: undeclared vertex '{token}'$"):
        dg.parse_edge_list(text)
    assert_parses_like_reference(text)


def test_undeclared_decimal_labels_number_by_first_appearance_across_blocks():
    """Values new in the second block, below those new at the end of the
    first, come after them: the order is first appearance, not value."""
    lines = _decimal_arcs(_BLOCK_LINES - 1) + ["9000 8000", "2000 9000", "1500 8000"]
    text = "\n".join(lines) + "\n"
    assert isinstance(graph_module._read_blocks(text)[0], list)
    g = assert_parses_like_reference(text)
    assert g.labels[-4:] == ("9000", "8000", "2000", "1500")


@settings(deadline=None, max_examples=60)
@given(digraphs(max_n=9), st.randoms(use_true_random=False))
def test_writer_and_sorts_match_references(g, rnd):
    labels = [f"{rnd.choice(['v', 'é', '°', '東'])}{i}" for i in range(g.n)]
    rnd.shuffle(labels)
    g = graph_of_pairs(g.n, *g.connected_pairs(), labels=labels)
    text = g.to_edge_list_text()
    assert text == reference_text(g) and dg.parse_edge_list(text) == g
    src, dst = g.arcs()
    order = np.lexsort((dst, src))
    assert np.array_equal(src, src[order]) and np.array_equal(dst, dst[order])
    pairs, _ = g.connected_pairs()
    assert np.array_equal(pairs, pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))])


def test_writer_crosses_gather_blocks_and_writes_arcless_graphs():
    big = dg.random_digraph(400, 0.5, seed=3)
    assert 2 * len(big.arcs()[0]) > fileio._BLOCK  # two tokens an arc
    for g in (big, dg.DirectedGraph.from_arcs(np.empty((0, 2), np.int64), n=3)):
        g = graph_of_pairs(g.n, *g.connected_pairs(), labels=[f"東{i}°" for i in range(g.n)])
        text = g.to_edge_list_text()
        assert text == reference_text(g) and dg.parse_edge_list(text) == g


def test_regular_texts_are_read_in_bulk(monkeypatch):
    """Texts in the written form, whose declarations all come first, with
    unique labels, two tokens per arc line and (given declarations) only
    declared tokens never reach the line-by-line reader."""
    def fail(lines):
        raise AssertionError("the line-by-line reader ran")

    saved = dg.random_digraph(500, 0.5, seed=2).to_edge_list_text()
    assert saved.count("\n") > _BLOCK_LINES
    texts = [
        saved,
        # no declarations, a self-loop and duplicates
        saved.split("\n", 500)[-1] + "p q\nq p\np q\nq q\n",
    ]
    monkeypatch.setattr(graph_module, "_read_lines", fail)
    for text in texts:
        assert isinstance(assert_parses_like_reference(text), dg.DirectedGraph)


@pytest.mark.parametrize("text", [
    "# vertex: a\n\n# a comment\r\n# vertex: b\r\n# vertex: c\na b\r\nc c\n",
    "# vertex: a\n# vertex: b\na b # vertex: c\nb,a # vertex: d\n",
    "# header\r\n a , b \r\n\r\nb,c # tail\r\n  \r\nc,a\r\nc ,  a\r\n",
    # non-ASCII labels and comments, with no Unicode whitespace
    "# vertex: Région\n# vertex: Zürich\n# vertex: 東京\nRégion Zürich\n東京,Région # ü\n",
    # past one block: comma arcs with trailing comments
    "".join(f"v{i % 97} ,v{i * 7 % 101} # arc {i}\n" for i in range(_BLOCK_LINES + 9)),
    # one departure from the written form each
    "# note\na b\n",
    "a b # note\n",
    " # vertex: a\n# vertex: b\na b\n",
    "a b\r\nb a\r\n",
    "a,b\n",
    "é b\n",
])
def test_texts_outside_the_written_form_go_to_the_line_reader(text):
    """Comments, ``\\r\\n`` line ends, commas and text that is not ASCII
    leave the bulk reader; the line reader parses them as the reference."""
    assert graph_module._read_blocks(text) is False
    assert isinstance(assert_parses_like_reference(text), dg.DirectedGraph)


def test_bulk_byte_kinds_cover_what_str_breaks_on():
    """The bulk reader splits on its kind 1 bytes alone: every ASCII
    character that str.split or str.splitlines breaks on is kind 1 or
    declines the text."""
    kind = graph_module._BYTE_KIND
    breaks = [chr(i) for i in range(128) if len(f"a{chr(i)}b".split()) == 2
              or len(f"a{chr(i)}b".splitlines()) == 2]
    assert {i for i in range(256) if kind[i] == 1} == set(b"\t\n\x1f ") <= set(map(ord, breaks))
    for c in breaks:
        text = f"a{c}b\n"
        assert kind[ord(c)] == 1 or graph_module._read_blocks(text) is False, repr(c)
        assert_parses_like_reference(text)


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
