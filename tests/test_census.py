from itertools import product

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
    table = taxonomy.RAW_CLASSES
    assert table.shape == (39, 16) and table.dtype == np.int64
    assert np.array_equal(table[:3, :3], np.eye(3)) and not table[:3, 3:].any()
    for rows, block in ((slice(3, 12), taxonomy.WEDGE_BLOCK),
                        (slice(12, 39), taxonomy.TRIANGLE_BLOCK)):
        assert (table[rows].sum(axis=1) == 1).all()
        assert (table[rows, block].sum(axis=1) == 1).all()
    assert taxonomy.CLASS_SIZES.tolist() == [1, 1, 1, 2, 1, 1, 2, 2, 1, 6, 2, 3, 6, 3, 6, 1]
    # aggregate sums the member columns that the class dicts name
    rng = np.random.default_rng(0)
    n = 7
    raw = dg.RawCensus(tuple("abcdefg"), *(rng.integers(0, 1000, (n, k)) for k in (3, 9, 9, 27)))
    want = np.zeros((n, 16), dtype=np.int64)
    want[:, :3] = raw.degrees
    for members, counts, index in (
            (taxonomy.WEDGE_CLASS_MEMBERS, raw.wedges, WEDGE_INDEX),
            (taxonomy.TRIANGLE_CLASS_MEMBERS, raw.triangles, TRIANGLE_INDEX)):
        for name, types in members.items():
            col = taxonomy.SIGNATURE_COLUMNS.index(name)
            want[:, col] = counts[:, [index[t] for t in types]].sum(axis=1)
    got = dg.aggregate(raw)
    assert got.labels == raw.labels and np.array_equal(got.values, want)


def test_orbit_type_total():
    assert taxonomy.orbit_type_total() == 1695
    assert 1695 == 3 + 2 * 3**2 + 5 * 3**3 + 4 * 3**4 + 2 * 3**5 + 3**6


def test_normalize_blocks(three_cycle):
    norm = dg.normalize(dg.signature_matrix(three_cycle))
    assert np.allclose(norm.values[0, :3], [0.5, 0.5, 0.0])
    assert not norm.values[0, 3:9].any()
    assert norm.values[0, 10] == 1.0
    assert isinstance(norm, dg.SignatureMatrix) and norm.labels == three_cycle.labels
    zero = [not norm.values[0, sl].any() for sl in (slice(0, 3), slice(3, 9), slice(9, 16))]
    assert zero == [False, True, False]


def test_normalize_zero_vertex_flagged():
    g = dg.DirectedGraph.from_arcs([(0, 1), (1, 2)], n=4)
    norm = dg.normalize(dg.signature_matrix(g))
    assert not norm.values[3].any()
    assert (norm.values == 0).all(axis=1).tolist() == [False, False, False, True]


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


def test_overflow_guard_trips(monkeypatch):
    # a real out-degree of 2^31 would take about 2^31 stored pairs, so the
    # degree count, raw_census's first bincount, is faked
    real, faked = np.bincount, []

    def bincount(*args, **kwargs):
        counts = real(*args, **kwargs)
        if not faked:
            faked.append(True)
            counts[0] = 1 << 31
        return counts

    g = dg.DirectedGraph.from_arcs([(0, 1)], n=3)
    monkeypatch.setattr(np, "bincount", bincount)
    with pytest.raises(InvariantError, match="exact range of float64"):
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
        # one filter slot sends every closing pair on to the search
        for block, slots in product((1, 7, census.BLOCK), (1, census.FILTER)):
            mp.setattr(census, "BLOCK", block)
            mp.setattr(census, "FILTER", slots)
            got = dg.raw_census(g)
            assert got == want, (block, slots)
            assert {a.dtype for a in (got.degrees, got.wedge_totals, got.wedges,
                                      got.triangles)} == {np.dtype(np.int64)}


@settings(deadline=None, max_examples=60)
@given(census_graphs())
def test_census_matches_spgemm_reference(g):
    assert_census_like_reference(g)


def test_blocks_span_sinks_and_the_filter_aliases():
    # 3071 leaves of degree 2 point into hubs a and b only; the hubs rank
    # top and are not adjacent, so their rows are empty and no leaf edge is
    # expanded.  The leaves interleave by id with degree-2 cycle vertices,
    # so every block spans many such zero-probe tails.  With n = FILTER / 64
    # a key's slot is (tail rank mod 64, head rank): a cycle vertex t next to
    # a gate u (u - a) probes (t, a), whose slot a leaf's pair with a sets
    n = census.FILTER // 64
    a, b = n - 1, n - 2
    rng = np.random.default_rng(7)
    ids = np.arange(n - 2)
    leaves, middle = ids[ids % 4 != 0], rng.permutation(ids[ids % 4 == 0])
    pairs = [(v, hub) for v in leaves for hub in (a, b)]
    start = 0
    for length in np.resize([3, 4, 5], len(middle)):
        cycle = middle[start:start + length]
        if len(cycle) < 3:
            break
        pairs += zip(cycle, np.roll(cycle, 1))
        start += length
    pairs += [(v, a) for v in middle[::10]]
    g = graph_of_pairs(n, pairs, rng.integers(0, 3, len(pairs)))
    raw = dg.raw_census(g)
    assert raw.triangles.any() and raw.wedges[leaves].any()
    assert_census_like_reference(g)


def test_star_is_linear():
    # an out-star's 2-path products would hold (n - 1)^2 entries; here
    # every leaf ranks below the hub, whose row is then empty, so no edge
    # is expanded at all
    n = 200_001
    hub = np.zeros(n - 1, dtype=np.int64)
    raw = dg.raw_census(dg.DirectedGraph.from_arcs(np.column_stack([hub, np.arange(1, n)]), n=n))
    assert not raw.triangles.any()
    assert not raw.wedge_totals[0].any()
    assert (raw.wedge_totals[1:, WEDGE_INDEX[("-", "-")]] == n - 2).all()
    assert np.array_equal(raw.wedges, raw.wedge_totals)


def test_every_pair_kept_as_seen_from_hi_with_degree_ties():
    # hubs 0 and 1 and leaves 2..k + 1: every pair's hi end has the lower
    # total degree, so each is kept as seen from hi, and leaves 2..k tie
    k = 12
    pairs = [(0, 1)] + [(0, v) for v in range(2, k + 2)] + [(1, v) for v in range(2, k + 1)]
    g = graph_of_pairs(k + 2, pairs, np.random.default_rng(5).integers(0, 3, len(pairs)))
    total = g.degrees.sum(axis=1)
    lo, hi = g.connected_pairs()[0].T
    assert (total[hi] < total[lo]).all() and (total[2:k + 1] == 2).all()
    raw = dg.raw_census(g)
    assert raw.triangles.any() and raw == dg.oracle_census(g)
    assert_census_like_reference(g)
