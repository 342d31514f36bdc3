"""Shared fixtures, strategies, and independent counting helpers."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import strategies as st

import digraphlets as dg


@pytest.fixture
def three_cycle():
    return dg.DirectedGraph.from_arcs([(0, 1), (1, 2), (2, 0)])

@pytest.fixture
def reciprocal_triangle():
    return dg.DirectedGraph.from_arcs(
        [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]
    )

@pytest.fixture
def directed_path():
    return dg.DirectedGraph.from_arcs([(0, 1), (1, 2)], n=3)


@st.composite
def digraphs(draw, min_n=1, max_n=10):
    """Random small digraph: each pair absent or in one of 3 relations."""
    n = draw(st.integers(min_n, max_n))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    states = draw(st.lists(
        st.integers(-1, 2), min_size=len(all_pairs), max_size=len(all_pairs)))
    kept = [(p, c) for p, c in zip(all_pairs, states) if c >= 0]
    pairs = np.array([p for p, _ in kept], dtype=np.int64).reshape(-1, 2)
    codes = np.array([c for _, c in kept], dtype=np.int64)
    return graph_of_pairs(n, pairs, codes)


def graph_of_pairs(n, pairs, codes, labels=None) -> dg.DirectedGraph:
    """``from_arcs`` of connected pairs (lo, hi) and their relation codes:
    0 lo->hi, 1 hi->lo, 2 reciprocal (both arcs)."""
    arcs = []
    pairs = np.reshape(pairs, (-1, 2)).tolist()
    for (lo, hi), code in zip(pairs, np.ravel(codes).tolist()):
        if code != 1:
            arcs.append((lo, hi))
        if code != 0:
            arcs.append((hi, lo))
    return dg.DirectedGraph.from_arcs(arcs, n=n, labels=labels)


def seeded_graph(k: int, lo=3, hi=40) -> dg.DirectedGraph:
    """Deterministic random graph number k for corpus-style tests."""
    rng = np.random.default_rng(900_000 + k)
    n = int(rng.integers(lo, hi + 1))
    p = float(rng.uniform(0.05, 0.9))
    recip = float(rng.uniform(0.0, 1.0))
    return dg.random_digraph(n, p, seed=int(rng.integers(2**32)), recip_prob=recip)


def kind_arcs(g) -> dict[str, np.ndarray]:
    """(k, 2) int64 (vertex, neighbor) rows of each edge kind, read off
    ``connected_pairs``: the pair (lo, hi) with code 0 holds the arc
    lo->hi, code 1 the arc hi->lo and code 2 both."""
    pairs, codes = g.connected_pairs()
    ahead, back, both = (pairs[codes == c] for c in range(3))
    out = np.concatenate([ahead, back[:, ::-1]])
    return {"+": out, "-": out[:, ::-1], "o": np.concatenate([both, both[:, ::-1]])}


def dense_relations(g) -> dict[str, np.ndarray]:
    """0/1 float64 matrix of each edge kind, read off kind_arcs."""
    mats = {}
    for kind, arcs in kind_arcs(g).items():
        a = np.zeros((g.n, g.n))
        a[arcs[:, 0], arcs[:, 1]] = 1.0
        mats[kind] = a
    return mats


def skeleton_counts(g) -> tuple[int, int]:
    """Triangles and induced wedges of the undirected skeleton, counted
    by direct triple enumeration (no shared logic with the census)."""
    adj = [set() for _ in range(g.n)]
    pairs, _ = g.connected_pairs()
    for i, j in pairs.tolist():
        adj[i].add(j)
        adj[j].add(i)
    triangles = wedges = 0
    for a, b, c in combinations(range(g.n), 3):
        edges = (b in adj[a]) + (c in adj[a]) + (c in adj[b])
        if edges == 3:
            triangles += 1
        elif edges == 2:
            wedges += 1
    return triangles, wedges
