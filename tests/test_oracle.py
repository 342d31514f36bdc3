import numpy as np
import pytest
from hypothesis import given, settings

import digraphlets as dg
from digraphlets.errors import InputError

from conftest import dense_relations, digraphs, graph_of_pairs, seeded_graph


def test_oracle_three_cycle(three_cycle):
    ref = dg.oracle_census(three_cycle)
    # independent route to the documented counts
    assert ref.degrees.tolist() == [[1, 1, 0]] * 3
    nonzero = np.nonzero(ref.triangles[0])[0].tolist()
    assert len(nonzero) == 2 and ref.triangles[0].sum() == 2
    assert not ref.wedges.any()


def test_oracle_edgeless():
    g = dg.DirectedGraph.from_arcs([], n=5)
    ref = dg.oracle_census(g)
    assert not ref.degrees.any()
    assert not ref.wedges.any() and not ref.triangles.any()


def test_oracle_cap():
    g = dg.DirectedGraph.from_arcs([(0, 1)], n=30)
    with pytest.raises(InputError):
        dg.oracle_census(g, max_n=20)
    dg.oracle_census(g, max_n=30)


@settings(deadline=None, max_examples=80)
@given(digraphs(max_n=10))
def test_oracle_equals_census_property(g):
    assert dg.oracle_census(g) == dg.raw_census(g)


def test_oracle_equals_census_seeded_corpus():
    for k in range(30):
        g = seeded_graph(k, lo=3, hi=25)
        assert dg.oracle_census(g) == dg.raw_census(g), f"graph {k}"


def _skeleton_graph(n, p, seed, codes_from):
    """G(n, p) skeleton whose pair relations are drawn from codes_from."""
    rng = np.random.default_rng(seed)
    lo, hi = np.triu_indices(n, k=1)
    keep = rng.random(len(lo)) < p
    pairs = np.column_stack([lo[keep], hi[keep]])
    codes = rng.choice(codes_from, size=len(pairs))
    return graph_of_pairs(n, pairs, codes)


def _wheel(spokes):
    """Hub 0 joined to a rim cycle 1..spokes; spoke and rim relations
    cycle through the three codes at different strides, so the hub's
    row sums and the rim's column sums of each product differ."""
    pairs, codes = [], []
    for k in range(1, spokes + 1):
        pairs.append((0, k))
        codes.append(k % 3)
        nxt = k % spokes + 1
        pairs.append((min(k, nxt), max(k, nxt)))
        codes.append((2 * k // 3) % 3)
    return graph_of_pairs(spokes + 1, pairs, codes)


@pytest.mark.parametrize("name, g", [
    ("all reciprocal", _skeleton_graph(14, 0.5, 1, [2])),
    ("pure arcs only", _skeleton_graph(14, 0.5, 2, [0, 1])),
    ("forward arcs only", _skeleton_graph(14, 0.5, 3, [0])),
    ("pure out and reciprocal", _skeleton_graph(14, 0.5, 4, [0, 2])),
    ("edgeless", dg.DirectedGraph.from_arcs([], n=6)),
    ("single vertex", dg.DirectedGraph.from_arcs([], n=1)),
    ("mixed wheel", _wheel(11)),
])
def test_census_equals_oracle_with_empty_kinds(name, g):
    assert dg.oracle_census(g) == dg.raw_census(g), name


def _complete_but_one(n):
    """Complete reciprocal graph on n vertices with pair (0, 1) a pure arc."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    codes = [0 if (i, j) == (0, 1) else 2 for i, j in pairs]
    return graph_of_pairs(n, pairs, codes)


def _books(pages, to_lo, to_hi):
    """Two disjoint books of `pages` triangles on one spine pair each: an
    arc spine, then a reciprocal one; every page relates to the spine's
    low end by code to_lo and to its high end by code to_hi."""
    pairs, codes = [], []
    for start, spine in ((0, 0), (pages + 2, 2)):
        lo, hi = start, start + 1
        pairs.append((lo, hi))
        codes.append(spine)
        for page in range(start + 2, start + 2 + pages):
            pairs += [(lo, page), (hi, page)]
            codes += [to_lo, to_hi]
    return graph_of_pairs(2 * pages + 4, pairs, codes)


@pytest.mark.parametrize("name, g", [
    ("complete K4 but one", _complete_but_one(4)),
    ("complete K9 but one", _complete_but_one(9)),
    ("complete K30 but one", _complete_but_one(30)),
    ("reciprocal pages", _books(12, 2, 2)),
    ("2-path pages", _books(12, 0, 1)),
    ("arcs into the spine", _books(7, 1, 1)),
])
def test_census_equals_oracle_at_the_decode_boundary(name, g):
    # for every closing kind g, some edge of kind g closes dmax - 1
    # triangles whose two other edges have the same kinds: the most an
    # edge can, so the top of the c * B^g decode in
    # test_census.spgemm_census, the reference above the oracle's cap
    dmax = g.degrees.sum(axis=1).max()
    a = dense_relations(g)
    products = [a[x] @ a[y].T for x in dg.EDGE_KINDS for y in dg.EDGE_KINDS]
    for gamma in dg.EDGE_KINDS:
        assert max(p[a[gamma] > 0].max() for p in products) == dmax - 1, name
    assert dg.oracle_census(g) == dg.raw_census(g), name
