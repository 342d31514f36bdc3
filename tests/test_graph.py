import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import digraphlets as dg
from digraphlets.errors import InputError

from conftest import digraphs


def test_single_arc():
    g = dg.parse_edge_list("a b\n")
    assert g.n == 2
    assert g.neighbors(0, "+").tolist() == [1]
    assert g.neighbors(1, "-").tolist() == [0]
    assert g.neighbors(0, "o").tolist() == []
    assert g.labels == ("a", "b")


def test_reciprocal_collapse():
    g = dg.parse_edge_list("a b\nb a\n")
    assert g.neighbors(0, "o").tolist() == [1]
    assert g.neighbors(1, "o").tolist() == [0]
    assert g.num_pure_arcs == 0
    assert g.num_recip_pairs == 1


def test_self_loop_and_duplicate_policy():
    with pytest.warns(UserWarning):
        g = dg.parse_edge_list("a a\na b\na b\n")
    assert g.n == 2
    assert g.pair_relation(0, 1) == "out"
    assert g.num_pure_arcs == 1


def test_labels_first_appearance_order():
    g = dg.parse_edge_list("z y\nx z\n")
    assert g.labels == ("z", "y", "x")
    assert g.pair_relation(2, 0) == "out"


def test_csv_and_comment_lines():
    g = dg.parse_edge_list("# header\na,b\nb,c # trailing\n\n")
    assert g.labels == ("a", "b", "c")
    assert g.pair_relation(1, 2) == "out"
    same = dg.parse_edge_list("a,b\nb,c\n", fmt="csv")
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
    assert g.pair_relation(0, 2) == "out"
    assert g.out_degrees[1] == 0 and g.in_degrees[1] == 0


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
    for i in range(g.n):
        sets = [set(g.neighbors(i, k).tolist()) for k in ("+", "-", "o")]
        assert not (sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2])
        assert i not in sets[0] | sets[1] | sets[2]


def test_pair_relation_views():
    g = dg.DirectedGraph.from_arcs([(0, 1), (2, 1), (1, 3), (3, 1)], n=5)
    assert g.pair_relation(0, 1) == "out"
    assert g.pair_relation(1, 0) == "in"
    assert g.pair_relation(1, 3) == "recip"
    assert g.pair_relation(3, 1) == "recip"
    assert g.pair_relation(0, 4) == "none"
    with pytest.raises(InputError):
        g.pair_relation(2, 2)


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


def test_from_adjacency_matches_from_arcs():
    a = np.zeros((4, 4), dtype=int)
    a[0, 1] = a[1, 0] = a[2, 3] = 1
    g = dg.DirectedGraph.from_adjacency(a)
    assert g == dg.DirectedGraph.from_arcs([(0, 1), (1, 0), (2, 3)], n=4)
    from scipy import sparse
    assert dg.DirectedGraph.from_adjacency(sparse.csr_matrix(a)) == g
    with pytest.raises(InputError):
        dg.DirectedGraph.from_adjacency(np.eye(3))


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
        r = dg.randomize_directions(g, seed=seed)
        rel = r.pair_relation(0, 1)
        counts[("out", "in", "recip").index(rel)] += 1
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


@settings(deadline=None, max_examples=60)
@given(digraphs(max_n=9), st.integers(0, 2**32 - 1))
def test_from_arcs_shuffled_with_duplicates_matches_pair_relations(g, seed):
    # g comes from from_pair_relations; rebuild it from its arcs, some
    # repeated, in random order (mutual pairs appear as two arcs)
    src, dst = g.arcs()
    arcs = np.column_stack([src, dst])
    rng = np.random.default_rng(seed)
    extra = arcs[rng.integers(0, len(arcs), size=len(arcs))] if len(arcs) else arcs
    arcs = np.concatenate([arcs, extra])
    arcs = arcs[rng.permutation(len(arcs))]
    assert dg.DirectedGraph.from_arcs(arcs, n=g.n) == g


def test_from_arcs_empty_list():
    for arcs in ([], np.empty((0, 2), dtype=np.int64)):
        g = dg.DirectedGraph.from_arcs(arcs, n=3)
        assert g == dg.DirectedGraph.from_pair_relations(3, [], [])
        assert g.num_connected_pairs == 0
        g.validate()


def test_from_pair_relations_validation():
    build = dg.DirectedGraph.from_pair_relations
    with pytest.raises(InputError, match="duplicate pair"):
        build(4, [(0, 1), (1, 2), (2, 3), (0, 1)], [0, 1, 2, 2])
    with pytest.raises(InputError, match="duplicate pair"):
        build(3, [(0, 2), (0, 2)], [0, 0])
    with pytest.raises(InputError, match="lo < hi"):
        build(3, [(1, 0)], [0])
    with pytest.raises(InputError, match="out of range"):
        build(3, [(0, 3)], [0])
    with pytest.raises(InputError, match="relation codes"):
        build(3, [(0, 1)], [3])
    with pytest.raises(InputError, match="length mismatch"):
        build(3, [(0, 1)], [0, 1])
