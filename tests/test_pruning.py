import math

import numpy as np
import pytest

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
    degree = g.out_degrees + g.in_degrees + g.recip_degrees
    assert degree.min() >= 2 * math.log(116)


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
    strengths = np.abs(w)[np.abs(w) > 0]
    candidates = np.concatenate([[0.0], np.unique(strengths)])
    feasible = []
    floor = 2.0 * math.log(n)
    for cand in candidates:
        arcs = np.abs(w) > cand
        skel = arcs | arcs.T
        ok_deg = (skel.sum(axis=1) >= floor).all()
        comp = _largest_component(skel)
        feasible.append(ok_deg and comp >= 0.99 * n)
    best = candidates[max(i for i, f in enumerate(feasible) if f)]
    assert t == best
    later = candidates[candidates > t]
    if len(later):
        idx = int(np.searchsorted(candidates, later[0]))
        assert not feasible[idx]


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
    assert g.pair_relation(0, 1) == "recip"


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
