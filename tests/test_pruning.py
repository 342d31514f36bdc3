import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import digraphlets as dg
from digraphlets.errors import InputError, UnprunableError
from digraphlets.pruning import parse_weighted_csv, skeleton_summary


def _uniform(n, value=1.0):
    w = np.full((n, n), value)
    np.fill_diagonal(w, 0.0)
    return dg.weighted_matrix(w)


def test_uniform_weights_keep_everything():
    w = _uniform(116)
    g, t = dg.prune_weighted(w)
    assert t == 0.0
    assert g.num_pure_arcs + 2 * g.num_recip_pairs == 116 * 115
    degree = g.degrees.sum(axis=1)
    assert degree.min() >= 2 * math.log(116)


def _dense_feasible(w, t):
    """Both pruning criteria on the dense skeleton kept at threshold t."""
    n = len(w)
    arcs = np.abs(w) > t
    skel = arcs | arcs.T
    if not (skel.sum(axis=1) >= 2.0 * math.log(n)).all():
        return False
    return _largest_component(skel) >= 0.99 * n


def _reference_threshold(w):
    """The largest of 0 and the distinct |w_ij| that passes both criteria
    on the dense skeleton, or None when none does."""
    strength = np.abs(w)
    candidates = np.concatenate([[0.0], np.unique(strength[strength > 0])])
    return next((c for c in candidates[::-1] if _dense_feasible(w, c)), None)


def assert_prunes_like_reference(w):
    want = _reference_threshold(w)
    if want is None:
        with pytest.raises(UnprunableError):
            dg.prune_weighted(w)
    else:
        assert dg.prune_weighted(w)[1] == want


def test_threshold_is_maximal():
    # a strong core on 12 vertices plus weaker ring arcs; the maximal
    # threshold must sit at the largest weight whose removal would
    # disconnect or starve a vertex
    n = 12
    rng = np.random.default_rng(0)
    w = rng.uniform(0.8, 1.0, size=(n, n))
    np.fill_diagonal(w, 0.0)
    weak = 0.3
    w[0, 1] = weak
    g, t = dg.prune_weighted(w)
    assert t == _reference_threshold(w)
    later = np.abs(w)[np.abs(w) > t]
    if len(later):
        assert not _dense_feasible(w, later.min())


@st.composite
def weight_matrices(draw):
    """Zero-diagonal weight matrices: normal, integer with heavy ties,
    sparse, or two blocks joined by weak pairs; the sizes include
    12/13, 20/21 and 33/34, where 2 ln n crosses an integer."""
    n = draw(st.one_of(st.integers(3, 24), st.sampled_from([12, 13, 20, 21, 33, 34])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "ties", "sparse", "blocks"]))
    if kind == "ties":
        w = rng.integers(-3, 4, size=(n, n)).astype(float)
    else:
        w = rng.normal(size=(n, n))
    if kind == "sparse":
        w *= rng.random((n, n)) < draw(st.sampled_from([0.1, 0.25, 0.5]))
    if kind == "blocks":
        block = rng.integers(0, 2, size=n)
        weak = rng.uniform(0, 0.01, (n, n)) * (rng.random((n, n)) < draw(
            st.sampled_from([0.0, 0.3, 1.0])))
        w = np.where(block[:, None] == block[None, :], w, weak)
    np.fill_diagonal(w, 0.0)
    return w


@settings(deadline=None, max_examples=60)
@given(weight_matrices())
def test_threshold_matches_dense_reference(w):
    assert_prunes_like_reference(w)


def _largest_component(skel):
    n = len(skel)
    seen = [False] * n
    best = 0
    for s in range(n):
        if seen[s]:
            continue
        stack, size = [s], 0
        seen[s] = True
        while stack:
            v = stack.pop()
            size += 1
            for u in np.nonzero(skel[v])[0]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(int(u))
        best = max(best, size)
    return best


def test_unprunable_isolated_clique():
    n = 20
    w = np.zeros((n, n))
    w[:5, :5] = 1.0
    np.fill_diagonal(w, 0.0)
    with pytest.raises(UnprunableError):
        dg.prune_weighted(dg.weighted_matrix(w))


def test_postconditions_on_random_instances():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = 30
        w = rng.normal(0.0, 1.0, size=(n, n))
        np.fill_diagonal(w, 0.0)
        try:
            g, t = dg.prune_weighted(dg.weighted_matrix(w))
        except UnprunableError:
            continue
        summary = skeleton_summary(g)
        assert summary["largest_component_fraction"] >= 0.99
        assert summary["min_total_degree"] >= 2 * math.log(n)
        kept = np.abs(w) > t
        np.fill_diagonal(kept, False)
        src, dst = g.arcs()
        assert kept.sum() == len(src)
        assert kept[src, dst].all()


def test_reciprocal_formed_from_surviving_pair():
    n = 6
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                w[i, j] = 1.0
    w[0, 1] = 2.0
    w[1, 0] = 2.0
    g, t = dg.prune_weighted(dg.weighted_matrix(w))
    pairs, codes = g.connected_pairs()
    assert pairs[0].tolist() == [0, 1] and codes[0] == 2


def test_validation_errors():
    with pytest.raises(InputError):
        dg.prune_weighted(_uniform(2))
    with pytest.raises(InputError):
        dg.weighted_matrix(np.ones((3, 4)))
    with pytest.raises(InputError):
        dg.weighted_matrix(np.full((3, 3), np.nan))
    with pytest.warns(UserWarning):
        w = dg.weighted_matrix(np.ones((3, 3)))
    assert (np.diag(w.values) == 0).all()


def test_weighted_matrix_checks_labels():
    w = np.ones((3, 3)) - np.eye(3)
    assert dg.weighted_matrix(w).labels == ("0", "1", "2")
    assert dg.weighted_matrix(w, labels=[7, 8, 9]).labels == ("7", "8", "9")
    for labels, message in [
        (["a", "b"], "expected 3 labels, got 2"),
        (["a", "b", "a"], "vertex labels must be unique"),
        (["a", "b c", "d"], "invalid vertex label 'b c'"),
        (["a", "b,", "d"], "invalid vertex label 'b,'"),
    ]:
        with pytest.raises(InputError, match=message):
            dg.weighted_matrix(w, labels=labels)
    with pytest.raises(InputError, match="invalid vertex label 'r 0'"):
        parse_weighted_csv("r 0,r 1,r 2\n0,1,1\n1,0,1\n1,1,0\n")


def test_parse_weighted_csv_variants():
    body = "0,1.5,2\n1.5,0,3\n2,3,0\n"
    plain = parse_weighted_csv(body)
    assert plain.labels == ("0", "1", "2")
    assert plain.values[0, 1] == 1.5

    headered = parse_weighted_csv(",a,b,c\na,0,1.5,2\nb,1.5,0,3\nc,2,3,0\n")
    assert headered.labels == ("a", "b", "c")
    assert np.array_equal(headered.values, plain.values)

    rows_only = parse_weighted_csv("a,0,1.5,2\nb,1.5,0,3\nc,2,3,0\n")
    assert rows_only.labels == ("a", "b", "c")

    header_only = parse_weighted_csv("a,b,c\n0,1.5,2\n1.5,0,3\n2,3,0\n")
    assert header_only.labels == ("a", "b", "c")

    with pytest.raises(InputError):
        parse_weighted_csv("0,1\n2,3\n4,5\n")
    with pytest.raises(InputError):
        parse_weighted_csv("")
    with pytest.raises(InputError):
        parse_weighted_csv("a,b\n1,oops\n")


@pytest.mark.parametrize("text, message", [
    ("a,b,c\n0,1,2\n1,0\n2,1,0\n", "row 3: expected 3 cells, got 2"),
    ("0,1,2\n\n1,0,2,3\n2,1,0\n", "row 2: expected 3 cells, got 4"),
    (",a,b\na,0,1\nb,1\n", "row 3: expected 3 cells, got 2"),
])
def test_parse_weighted_csv_names_a_ragged_row(text, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        parse_weighted_csv(text)


@pytest.mark.parametrize("cell", [
    " 1 ", "1_000", "nan", "-inf", "1e400", "+.5", "\t2\n", "\u0661\u0662", "", "x",
    "1,5", "0x10",
])
def test_weight_cells_convert_like_float(cell):
    # the matrix is converted in one call, which must accept, reject and
    # word its error exactly as float() does cell by cell
    out = io.StringIO()
    csv.writer(out).writerows([["", "a", "b"], ["a", "0", cell], ["b", "1", "0"]])
    try:
        value = float(cell)
    except ValueError as exc:
        with pytest.raises(InputError) as info:
            parse_weighted_csv(out.getvalue())
        assert str(info.value) == f"non-numeric cell in weight matrix: {exc}"
        return
    if not math.isfinite(value):
        with pytest.raises(InputError, match="^weight matrix entries must be finite$"):
            parse_weighted_csv(out.getvalue())
    else:
        assert parse_weighted_csv(out.getvalue()).values.tolist() == [[0.0, value], [1.0, 0.0]]


def test_load_weighted_csv(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("0,2\n2,0\n")
    w = dg.load_weighted_csv(path)
    assert w.n == 2
    with pytest.raises(InputError):
        dg.load_weighted_csv(tmp_path / "missing.csv")


def _dense_summary(g):
    """skeleton_summary from a dense n x n skeleton, as a reference."""
    skel = np.zeros((g.n, g.n), dtype=bool)
    src, dst = g.arcs()
    skel[src, dst] = skel[dst, src] = True
    return {
        "largest_component_fraction": _largest_component(skel) / g.n,
        "min_total_degree": int(skel.sum(axis=1).min()),
        "degree_floor": 2.0 * math.log(g.n),
    }


def test_skeleton_summary_matches_dense_reference():
    graphs = []
    for seed in range(6):  # the instances of the postcondition test
        rng = np.random.default_rng(seed)
        w = rng.normal(0.0, 1.0, size=(30, 30))
        np.fill_diagonal(w, 0.0)
        graphs.append(dg.prune_weighted(dg.weighted_matrix(w))[0])
    graphs.append(dg.prune_weighted(_uniform(12))[0])
    # several components and isolated vertices, which pruned graphs lack
    graphs.append(dg.random_digraph(60, 0.03, seed=4))
    graphs.append(dg.DirectedGraph.from_arcs([(0, 1), (2, 3), (3, 2)], n=7))
    graphs.append(dg.DirectedGraph.from_arcs([], n=5))
    for g in graphs:
        assert skeleton_summary(g) == _dense_summary(g)
    fractions = {skeleton_summary(g)["largest_component_fraction"] for g in graphs}
    assert min(fractions) < 0.99
