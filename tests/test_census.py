import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import digraphlets as dg
from digraphlets import census, taxonomy
from digraphlets.errors import InputError, InvariantError
from digraphlets.taxonomy import EDGE_KINDS, MIRROR, TRIANGLE_INDEX, WEDGE_INDEX

from conftest import (
    dense_relations,
    digraphs,
    graph_of_pairs,
    kind_arcs,
    seeded_graph,
    skeleton_counts,
)

CYCLE_ROW = [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0]
RECIP_ROW = [0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2]


def test_three_cycle_signature(three_cycle):
    sig = dg.signature_matrix(three_cycle)
    assert sig.values.tolist() == [CYCLE_ROW] * 3


def test_three_cycle_raw_types(three_cycle):
    raw = dg.raw_census(three_cycle)
    t = {ty: raw.triangles[0, k] for ty, k in taxonomy.TRIANGLE_INDEX.items()}
    assert t[("+", "-", "-")] == 1 and t[("-", "+", "+")] == 1
    assert sum(t.values()) == 2
    assert not raw.wedges.any()


def test_reciprocal_triangle(reciprocal_triangle):
    raw = dg.raw_census(reciprocal_triangle)
    assert raw.degrees.tolist() == [[0, 0, 2]] * 3
    assert raw.triangles[:, taxonomy.TRIANGLE_INDEX[("o", "o", "o")]].tolist() == [2, 2, 2]
    assert raw.wedge_totals[:, taxonomy.WEDGE_INDEX[("o", "o")]].tolist() == [2, 2, 2]
    assert not raw.wedges.any()
    assert dg.aggregate(raw).values.tolist() == [RECIP_ROW] * 3


def test_directed_path(directed_path):
    raw = dg.raw_census(directed_path)
    w = taxonomy.WEDGE_INDEX
    assert raw.wedges[0, w[("+", "-")]] == 1
    assert raw.wedges[2, w[("-", "+")]] == 1
    assert not raw.wedges[1].any()
    assert raw.degrees[1].tolist() == [1, 1, 0]
    assert not raw.triangles.any()


@settings(deadline=None, max_examples=80)
@given(digraphs(max_n=10))
def test_sum_identities(g):
    raw = dg.raw_census(g)
    assert raw.degrees[:, 0].sum() == raw.degrees[:, 1].sum() == g.num_pure_arcs
    assert raw.degrees[:, 2].sum() == 2 * g.num_recip_pairs
    triangles, wedges = skeleton_counts(g)
    assert raw.triangles.sum() == 6 * triangles
    assert raw.wedges.sum() == 2 * wedges
    assert (raw.wedges >= 0).all()
    assert np.array_equal(
        raw.wedge_totals,
        raw.wedges + raw.triangles.reshape(g.n, 9, 3).sum(axis=2),
    )


def test_aggregate_is_linear():
    g = seeded_graph(1)
    raw = dg.raw_census(g)
    double = dg.aggregate(dg.RawCensus(
        raw.labels, 2 * raw.degrees, 2 * raw.wedge_totals, 2 * raw.wedges, 2 * raw.triangles
    ))
    assert np.array_equal(double.values, 2 * dg.aggregate(raw).values)


def test_relabeling_permutes_rows():
    g = seeded_graph(2, lo=8, hi=14)
    rng = np.random.default_rng(0)
    perm = rng.permutation(g.n)
    pairs, codes = g.connected_pairs()
    mapped = perm[pairs]
    lo = mapped.min(axis=1)
    hi = mapped.max(axis=1)
    flipped = mapped[:, 0] > mapped[:, 1]
    codes = codes.copy()
    swap = flipped & (codes < 2)
    codes[swap] = 1 - codes[swap]
    h = graph_of_pairs(g.n, np.column_stack([lo, hi]), codes)
    a = dg.signature_matrix(g).values
    b = dg.signature_matrix(h).values
    assert np.array_equal(b[perm], a)


def test_class_tables_cover_types_once():
    wedge_members = [t for c in taxonomy.WEDGE_CLASS_MEMBERS.values() for t in c]
    tri_members = [t for c in taxonomy.TRIANGLE_CLASS_MEMBERS.values() for t in c]
    assert sorted(wedge_members) == sorted(taxonomy.WEDGE_TYPES)
    assert sorted(tri_members) == sorted(taxonomy.TRIANGLE_TYPES)
    assert len(set(wedge_members)) == 9 and len(set(tri_members)) == 27
    assert len(taxonomy.WEDGE_CLASS_MEMBERS) == 6
    assert len(taxonomy.TRIANGLE_CLASS_MEMBERS) == 7


def test_orbit_type_total():
    assert taxonomy.orbit_type_total() == 1695
    assert 1695 == 3 + 2 * 3**2 + 5 * 3**3 + 4 * 3**4 + 2 * 3**5 + 3**6


def test_normalize_blocks(three_cycle):
    norm = dg.normalize(dg.signature_matrix(three_cycle))
    assert np.allclose(norm.values[0, :3], [0.5, 0.5, 0.0])
    assert not norm.values[0, 3:9].any()
    assert norm.values[0, 10] == 1.0
    assert norm.zero_blocks[0].tolist() == [False, True, False]


def test_normalize_zero_vertex_flagged():
    g = dg.DirectedGraph.from_arcs([(0, 1), (1, 2)], n=4)
    norm = dg.normalize(dg.signature_matrix(g))
    assert not norm.values[3].any()
    assert norm.isolated.tolist() == [False, False, False, True]


@settings(deadline=None, max_examples=50)
@given(digraphs(max_n=8))
def test_normalize_block_sums(g):
    for mode in ("balanced", "plain"):
        norm = dg.normalize(dg.signature_matrix(g), mode=mode)
        for sl in (slice(0, 3), slice(3, 9), slice(9, 16)):
            sums = norm.values[:, sl].sum(axis=1)
            assert np.all((np.abs(sums - 1) < 1e-12) | (sums == 0))


def test_normalize_modes_differ():
    # vertex 0 sees one w_path wedge (via 1 to 2) and one w_in wedge
    # (via 1 to 3); plain splits the block 50/50, balanced first divides
    # w_path by its class multiplicity 2 so it gets a 1/3 share
    g = dg.DirectedGraph.from_arcs([(0, 1), (1, 2), (3, 1)], n=4)
    sig = dg.signature_matrix(g)
    plain = dg.normalize(sig, mode="plain")
    balanced = dg.normalize(sig, mode="balanced")
    col = sig.columns.index("w_path")
    assert plain.values[0, col] == pytest.approx(0.5)
    assert balanced.values[0, col] == pytest.approx(1 / 3)
    with pytest.raises(InputError):
        dg.normalize(sig, mode="weird")


def test_triangle_ratio(reciprocal_triangle, directed_path):
    assert dg.triangle_ratio(reciprocal_triangle, 0, "o", "o", "o") == 1.0
    assert dg.triangle_ratio(directed_path, 0, "+", "-", "+") == 0.0
    assert dg.triangle_ratio(directed_path, 0, "-", "-", "-") == 0.0  # L = 0
    raw = dg.raw_census(reciprocal_triangle)
    assert dg.triangle_ratio(reciprocal_triangle, 1, "o", "o", "o", raw=raw) == 1.0
    for kind in ("x", "out", "", "+-", None):
        with pytest.raises(InputError, match="^unknown edge kind"):
            dg.triangle_ratio(directed_path, 0, "+", "-", kind)
    for i in (-1, 3, 9):
        with pytest.raises(InputError, match=f"^vertex index {i} out of range$"):
            dg.triangle_ratio(directed_path, i, "+", "-", "+")


def test_triangle_ratio_rejects_a_census_of_another_graph():
    g = dg.DirectedGraph.from_arcs([(0, 1), (1, 2), (2, 0), (3, 4)], n=5)
    small = dg.raw_census(dg.DirectedGraph.from_arcs([(0, 1), (1, 2), (2, 0)], n=3))
    relabelled = dg.raw_census(dg.DirectedGraph.from_arcs([(0, 1)], labels="abcde"))
    for raw in (small, relabelled):
        for i in (0, 4):
            with pytest.raises(InputError, match="another graph"):
                dg.triangle_ratio(g, i, "+", "-", "+", raw=raw)
    assert dg.triangle_ratio(g, 0, "+", "-", "-", raw=dg.raw_census(g)) == 1.0


def test_overflow_guard_trips(monkeypatch):
    # a real out-degree of 2^31 would take about 2^31 stored pairs
    huge = np.array([[1 << 31, 0, 0], [0, 0, 0], [0, 0, 0]], dtype=np.int64)
    monkeypatch.setattr(dg.DirectedGraph, "degrees", property(lambda g: huge))
    g = dg.DirectedGraph.from_arcs([(0, 1)], n=3)
    with pytest.raises(InvariantError):
        dg.raw_census(g)


def test_signature_columns_order():
    assert dg.SIGNATURE_COLUMNS == (
        "d_out", "d_in", "d_recip",
        "w_path", "w_in", "w_out", "w_in_plus", "w_out_plus", "w_recip",
        "t_acyclic", "t_cycles", "t_out_plus", "t_cycles_plus",
        "t_in_plus", "t_cycles_2plus", "t_recip",
    )


# Holland-Leinhardt MAN code of each non-trivial signature class.
TRIAD_CODES = {
    "w_path": "021C", "w_in": "021U", "w_out": "021D",
    "w_in_plus": "111D", "w_out_plus": "111U", "w_recip": "201",
    "t_acyclic": "030T", "t_cycles": "030C", "t_out_plus": "120D",
    "t_in_plus": "120U", "t_cycles_plus": "120C", "t_cycles_2plus": "210",
    "t_recip": "300",
}


def test_triad_census_identity_above_oracle_cap():
    # an independent check at a size the O(n^3) oracle refuses: each
    # wedge is seen from its 2 ends, each triangle from 3 vertices x 2
    # orderings of the other two
    nx = pytest.importorskip("networkx")
    g = dg.random_digraph(2000, 0.01, seed=1)
    totals = dg.signature_matrix(g).values.sum(axis=0)
    src, dst = g.arcs()
    h = nx.DiGraph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(zip(src.tolist(), dst.tolist()))
    expected = nx.triadic_census(h)
    got = {}
    for col, name in enumerate(dg.SIGNATURE_COLUMNS):
        if name in TRIAD_CODES:
            per = 2 if name.startswith("w_") else 6
            assert totals[col] % per == 0, name
            got[TRIAD_CODES[name]] = int(totals[col]) // per
    assert got == {code: expected[code] for code in got}
    assert all(got.values())  # every class is exercised


def test_per_type_columns_above_oracle_cap():
    # every T(a, b, g) and L(a, b) column against a dense recount straight
    # from the definitions, at a size the oracle refuses: a decode that
    # swapped two kinds inside one class keeps the triad totals but fails
    g = dg.random_digraph(400, 0.5, seed=4)
    raw = dg.raw_census(g)
    assert raw.degrees.sum(axis=1).max() > 200
    a = dense_relations(g)
    degrees = np.column_stack([a[k].sum(axis=1) for k in dg.EDGE_KINDS])
    assert np.array_equal(raw.degrees, degrees)
    for (alpha, beta), w_col in taxonomy.WEDGE_INDEX.items():
        # p[i, j] = |S_i^alpha intersect S_j^beta|
        p = a[alpha] @ a[beta].T
        assert np.array_equal(raw.wedge_totals[:, w_col], p.sum(axis=1) - np.diag(p))
        for gamma in dg.EDGE_KINDS:
            t_col = taxonomy.TRIANGLE_INDEX[(alpha, beta, gamma)]
            assert np.array_equal(raw.triangles[:, t_col], (p * a[gamma]).sum(axis=1))


def spgemm_census(g) -> dg.RawCensus:
    """The census by kind-masked sparse matrix products, written apart
    from the triangle listing: the reference above the oracle's cap.

    With P_ab = A_a @ A_mirror(b), entry (i, j) is |S_i^a intersect S_j^b|
    and P_ba is its transpose.  Masking P_ab by the kind-coded skeleton
    A_+ + B A_- + B^2 A_o, B = dmax + 1, keeps the entries of adjacent
    pairs as c B^g, g the kind of (i, j) and c <= dmax < B; its row sums
    fill T(a, b, g) and its column sums T(b, a, mirror(g)).
    """
    n = g.n
    mats = {}
    for kind, arcs in kind_arcs(g).items():
        ones = np.ones(len(arcs), dtype=np.int64)
        mats[kind] = sparse.csr_matrix((ones, (arcs[:, 0], arcs[:, 1])), shape=(n, n))
    degrees = np.column_stack([np.diff(mats[kind].indptr) for kind in EDGE_KINDS]).astype(np.int64)
    base = int(degrees.sum(axis=1).max(initial=0)) + 1
    coded = sum(base**k * mats[kind] for k, kind in enumerate(EDGE_KINDS))
    far = degrees[:, [EDGE_KINDS.index(MIRROR[beta]) for beta in EDGE_KINDS]]
    wedge_totals = np.zeros((n, 9), dtype=np.int64)
    triangles = np.zeros((n, 27), dtype=np.int64)
    for alpha in EDGE_KINDS:
        wedge_totals[:, [WEDGE_INDEX[(alpha, beta)] for beta in EDGE_KINDS]] = mats[alpha] @ far
    wedge_totals[:, [WEDGE_INDEX[(k, k)] for k in EDGE_KINDS]] -= degrees
    for (alpha, beta), w_col in WEDGE_INDEX.items():
        if w_col > WEDGE_INDEX[(beta, alpha)]:
            continue  # its product is the transpose of the (beta, alpha) one
        closed = coded.multiply(mats[alpha] @ mats[MIRROR[beta]]).tocoo()
        gamma = (closed.data >= base).astype(np.int64) + (closed.data >= base**2)
        count = closed.data // base**gamma
        rows = [TRIANGLE_INDEX[(alpha, beta, k)] for k in EDGE_KINDS]
        cols = [TRIANGLE_INDEX[(beta, alpha, MIRROR[k])] for k in EDGE_KINDS]
        triangles[:, rows] = np.bincount(closed.row * 3 + gamma, count, 3 * n).reshape(n, 3)
        triangles[:, cols] = np.bincount(closed.col * 3 + gamma, count, 3 * n).reshape(n, 3)
    wedges = wedge_totals - triangles.reshape(n, 9, 3).sum(axis=2)
    return dg.RawCensus(g.labels, degrees, wedge_totals, wedges, triangles)


@st.composite
def census_graphs(draw):
    """G(n, p), heavy-tailed (Chung-Lu with Pareto weights) or
    all-reciprocal graphs, n up to 300, past the oracle's cap."""
    n = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["gnp", "heavy", "reciprocal"]))
    mean_degree = draw(st.floats(0.0, 10.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "heavy":
        w = rng.pareto(1.5, n) + 1.0
        p = np.outer(w, w) * mean_degree / (w.sum() * w.mean())
    else:
        p = np.full((n, n), mean_degree / max(n - 1, 1))
    lo, hi = np.nonzero(np.triu(rng.random((n, n)) < p, 1))
    codes = np.full(len(lo), 2) if kind == "reciprocal" else rng.integers(0, 3, len(lo))
    return graph_of_pairs(n, np.column_stack([lo, hi]), codes)


def assert_census_like_reference(g):
    want = spgemm_census(g)
    with pytest.MonkeyPatch.context() as mp:
        for block in (1, 7, census.BLOCK):
            mp.setattr(census, "BLOCK", block)
            got = dg.raw_census(g)
            assert got == want, block
            assert {a.dtype for a in (got.degrees, got.wedge_totals, got.wedges,
                                      got.triangles)} == {np.dtype(np.int64)}


@settings(deadline=None, max_examples=60)
@given(census_graphs())
def test_census_matches_spgemm_reference(g):
    assert_census_like_reference(g)


def test_star_is_linear():
    # an out-star's 2-path products would hold (n - 1)^2 entries; here
    # every leaf ranks below the hub, so no pair of edges is tried at all
    n = 200_001
    hub = np.zeros(n - 1, dtype=np.int64)
    raw = dg.raw_census(dg.DirectedGraph.from_arcs(np.column_stack([hub, np.arange(1, n)]), n=n))
    assert not raw.triangles.any()
    assert not raw.wedge_totals[0].any()
    assert (raw.wedge_totals[1:, WEDGE_INDEX[("-", "-")]] == n - 2).all()
    assert np.array_equal(raw.wedges, raw.wedge_totals)
