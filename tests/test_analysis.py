import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.cluster import hierarchy
from scipy.stats import rankdata

import digraphlets as dg
from digraphlets.analysis import _newick_label, _rank_columns
from digraphlets.errors import InputError


def _table(values, columns=None):
    values = np.asarray(values, dtype=np.float64)
    cols = tuple(columns) if columns else tuple(f"c{k}" for k in range(values.shape[1]))
    labels = tuple(map(str, range(len(values))))
    return type("T", (), {"values": values, "columns": cols, "labels": labels})()


def test_gcm_identical_and_negated_columns():
    rng = np.random.default_rng(0)
    base = rng.normal(size=20)
    x = np.column_stack([base, base, -3 * base + 7])
    m = dg.gcm(_table(x))
    assert m.values[0, 1] == pytest.approx(1.0)
    assert m.values[0, 2] == pytest.approx(-1.0)


def test_gcm_constant_column_flagged():
    x = np.column_stack([np.arange(10.0), np.zeros(10)])
    m = dg.gcm(_table(x))
    assert m.constant.tolist() == [False, True]
    assert m.values[0, 1] == 0.0 and m.values[1, 0] == 0.0
    assert m.values[1, 1] == 1.0


def test_gcm_shape_properties():
    rng = np.random.default_rng(1)
    x = rng.poisson(4.0, size=(50, 16)).astype(float)
    m = dg.gcm(_table(x))
    v = m.values
    assert v.shape == (16, 16)
    assert np.array_equal(v, v.T)
    assert np.allclose(np.diag(v), 1.0)
    assert (np.abs(v) <= 1.0).all()


def test_gcm_row_permutation_invariant():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(30, 5))
    m1 = dg.gcm(_table(x)).values
    m2 = dg.gcm(_table(x[rng.permutation(30)])).values
    assert np.allclose(m1, m2, atol=1e-12)


def test_gcm_affine_invariant():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 6))
    scaled = x * rng.uniform(0.5, 4.0, size=6) + rng.normal(size=6)
    d = np.abs(dg.gcm(_table(x)).values - dg.gcm(_table(scaled)).values)
    assert d.max() < 1e-9


def test_gcm_needs_three_rows():
    with pytest.raises(InputError):
        dg.gcm(_table(np.ones((2, 4))))
    with pytest.raises(InputError):
        dg.gcm(_table(np.ones((5, 4))), method="kendall")


def test_spearman_monotone_invariance():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(25, 3))
    cubed = x.copy()
    cubed[:, 0] = cubed[:, 0] ** 3
    s1 = dg.gcm(_table(x), method="spearman").values
    s2 = dg.gcm(_table(cubed), method="spearman").values
    assert np.allclose(s1, s2, atol=1e-12)
    p1 = dg.gcm(_table(x)).values
    p2 = dg.gcm(_table(cubed)).values
    assert not np.allclose(p1, p2, atol=1e-6)


def _gcm_of(values):
    return dg.GraphletCorrelationMatrix(
        np.asarray(values, dtype=float),
        tuple(f"c{k}" for k in range(len(values))),
        np.zeros(len(values), dtype=bool),
    )


def test_significance_mask_strict_threshold():
    v = np.eye(3)
    v[0, 1] = v[1, 0] = 0.71
    v[0, 2] = v[2, 0] = 0.70
    v[1, 2] = v[2, 1] = -0.9
    mask = dg.significance_mask(_gcm_of(v), 0.7)
    assert mask[0, 1] == 1
    assert mask[0, 2] == 0
    assert mask[1, 2] == -1
    assert (np.diag(mask) == 0).all()
    with pytest.raises(InputError):
        dg.significance_mask(_gcm_of(v), 0.0)
    with pytest.raises(InputError):
        dg.significance_mask(_gcm_of(v), 1.0)


def test_significance_mask_antisymmetric_under_negation():
    rng = np.random.default_rng(5)
    v = rng.uniform(-1, 1, size=(8, 8))
    v = (v + v.T) / 2
    np.fill_diagonal(v, 1.0)
    neg = -v
    np.fill_diagonal(neg, 1.0)
    assert np.array_equal(dg.significance_mask(_gcm_of(neg)),
                          -dg.significance_mask(_gcm_of(v)))


def test_cohort_identical_members():
    v = np.eye(4)
    v[0, 1] = v[1, 0] = 0.8
    v[2, 3] = v[3, 2] = -0.75
    stats = dg.cohort_stats([_gcm_of(v)] * 10, theta=0.7)
    assert set(np.unique(stats.pos_pct)) <= {0.0, 100.0}
    assert stats.pos_pct[0, 1] == 100.0
    assert stats.neg_pct[2, 3] == 100.0
    assert (np.diag(stats.pos_pct) == 100.0).all()
    assert (np.diag(stats.neg_pct) == 0.0).all()
    assert stats.count == 10
    mask = dg.significance_mask(_gcm_of(v), 0.7)
    assert np.array_equal(stats.pos_pct, 100.0 * (mask == 1) + 100.0 * np.eye(4))


def test_cohort_mixed_fractions():
    pos = np.eye(2)
    pos[0, 1] = pos[1, 0] = 0.8
    neg = np.eye(2)
    neg[0, 1] = neg[1, 0] = -0.8
    stats = dg.cohort_stats([_gcm_of(pos)] * 3 + [_gcm_of(neg)], theta=0.7)
    assert stats.pos_pct[0, 1] == 75.0
    assert stats.neg_pct[0, 1] == 25.0
    assert (stats.pos_pct + stats.neg_pct <= 100.0).all()


def test_cohort_validation():
    with pytest.raises(InputError):
        dg.cohort_stats([], theta=0.7)
    a = _gcm_of(np.eye(3))
    b = dg.GraphletCorrelationMatrix(
        np.eye(3), ("x", "y", "z"), np.zeros(3, bool))
    with pytest.raises(InputError):
        dg.cohort_stats([a, b])


def _planted(seed=0, spread=0.05):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0] * 6, [10.0] * 6, [40.0] * 6])
    rows = np.vstack([
        centers[i] + rng.normal(0, spread, size=(5, 6)) for i in range(3)
    ])
    return rows, np.repeat(np.arange(3), 5)


def _tied_rows():
    """Small-integer rows with duplicates, so many Ward distances tie."""
    base = np.array([[0, 0, 1], [0, 1, 1], [2, 2, 0], [2, 2, 1], [5, 5, 5]], float)
    return base[[0, 1, 0, 2, 3, 2, 2, 4, 1, 4, 3, 0]]


def _ess(rows):
    return ((rows - rows.mean(axis=0)) ** 2).sum()


def _cut_by_label_scan(tree, k):
    """The former ``Dendrogram.cut``: pointer jumping, then one scan per label."""
    n = tree.n
    parent = np.arange(2 * n - 1)
    for s in range(n - k):
        a, b = int(tree.merges[s, 0]), int(tree.merges[s, 1])
        parent[a] = parent[b] = n + s
    roots = np.arange(n)
    for _ in range(n):
        nxt = parent[roots]
        if (nxt == roots).all():
            break
        roots = nxt
    assignment = np.zeros(n, dtype=np.int64)
    for rank, root in enumerate(sorted(set(roots.tolist()), key=lambda r: int(np.argmax(roots == r)))):
        assignment[roots == root] = rank
    return assignment


def _leaf_order_by_dfs(tree):
    """The former ``Dendrogram.leaf_order``: a depth-first, left-first
    walk from the root."""
    n = tree.n
    out, stack = [], [2 * n - 2]
    while stack:
        node = stack.pop()
        if node < n:
            out.append(node)
        else:
            a, b = tree.merges[node - n, 0], tree.merges[node - n, 1]
            stack.append(int(b))
            stack.append(int(a))
    return out


def _random_tree(rng, n):
    """A linkage matrix merging random pairs of the current clusters."""
    active, size = list(range(n)), [1] * n
    merges = []
    for s in range(n - 1):
        a, b = (active.pop(int(rng.integers(len(active)))) for _ in range(2))
        size.append(size[a] + size[b])
        merges.append((a, b, float(s), size[-1]))
        active.append(n + s)
    return dg.Dendrogram(np.array(merges, dtype=np.float64), tuple(map(str, range(n))))


def test_leaf_order_matches_dfs_reference():
    rng = np.random.default_rng(13)
    trees = [_random_tree(rng, n) for n in (2, 3, 5, 17, 64) for _ in range(4)]
    coarse = rng.integers(0, 3, size=(60, 4))
    trees += [dg.ward_cluster(_table(rows), standardize=False)
              for rows in (_tied_rows(), coarse, rng.normal(size=(40, 3)))]
    for tree in trees:
        assert tree.leaf_order() == _leaf_order_by_dfs(tree)


def test_rank_columns_matches_scipy_rankdata():
    rng = np.random.default_rng(11)
    for levels in (1, 2, 3, 5, 40):
        x = rng.integers(0, levels, size=(37, 6)).astype(float)
        assert np.array_equal(_rank_columns(x), rankdata(x, axis=0))
    x[3, 2] = np.nan
    assert np.array_equal(_rank_columns(x), rankdata(x, axis=0), equal_nan=True)


def test_cut_matches_label_scan_on_ties():
    coarse = np.random.default_rng(12).integers(0, 3, size=(60, 4))
    for rows in (_tied_rows(), coarse):
        tree = dg.ward_cluster(_table(rows), standardize=False)
        for k in range(1, tree.n + 1):
            got = tree.cut(k)
            assert got.dtype == np.int64
            assert np.array_equal(got, _cut_by_label_scan(tree, k))


def test_ward_rejects_non_finite():
    x = _tied_rows()
    x[4, 1] = np.inf
    with pytest.raises(InputError):
        dg.ward_cluster(_table(x))


def test_ward_recovers_planted_clusters():
    rows, truth = _planted()
    tree = dg.ward_cluster(_table(rows), standardize=False)
    got = tree.cut(3)
    # same partition up to relabeling
    mapping = {}
    for a, b in zip(got.tolist(), truth.tolist()):
        mapping.setdefault(a, b)
        assert mapping[a] == b
    assert len(mapping) == 3
    assert np.all(np.diff(tree.merges[:, 2]) >= -1e-9)


def test_ward_two_rows():
    x = np.array([[0.0, 0.0], [3.0, 4.0]])
    tree = dg.ward_cluster(_table(x), standardize=False)
    assert tree.merges.shape == (1, 4)
    assert tree.merges[0, 2] == pytest.approx(5.0)
    assert tree.leaf_order() in ([0, 1], [1, 0])


def test_ward_zero_distance_groups_stay_contiguous():
    x = np.vstack([np.zeros((3, 4)), np.ones((3, 4))])
    tree = dg.ward_cluster(_table(x), standardize=False)
    order = tree.leaf_order()
    assert sorted(order[:3]) in ([0, 1, 2], [3, 4, 5])
    assert tree.merges[-1, 3] == 6
    assert tree.cut(2).tolist() in ([0, 0, 0, 1, 1, 1], [1, 1, 1, 0, 0, 0])


def test_ward_matches_scipy_reference():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(24, 5))
    tree = dg.ward_cluster(_table(x), standardize=False)
    z = hierarchy.linkage(x, method="ward")
    assert np.allclose(np.sort(tree.merges[:, 2]), np.sort(z[:, 2]), atol=1e-9)
    for k in (2, 3, 5):
        ours = tree.cut(k)
        theirs = hierarchy.fcluster(z, t=k, criterion="maxclust")
        pairs = {(a, b) for a, b in zip(ours.tolist(), theirs.tolist())}
        assert len(pairs) == k  # bijective relabeling

    tied = _tied_rows()
    tied_tree = dg.ward_cluster(_table(tied), standardize=False)
    tied_z = hierarchy.linkage(tied, method="ward")
    assert len(np.unique(tied_z[:, 2])) < len(tied_z)  # the fixture really has ties
    assert np.allclose(np.sort(tied_tree.merges[:, 2]), np.sort(tied_z[:, 2]), atol=1e-12)
    n = len(tied)
    members = [[i] for i in range(n)]
    for a, b, h, size in tied_tree.merges:
        a, b = int(a), int(b)
        assert a < b < len(members)
        assert members[a] is not None and members[b] is not None  # merged once
        merged = members[a] + members[b]
        assert size == len(merged)
        # ward.D2: the squared height is twice the rise in within-cluster SS
        rise = _ess(tied[merged]) - _ess(tied[members[a]]) - _ess(tied[members[b]])
        assert h * h == pytest.approx(2 * rise, abs=1e-9)
        members[a] = members[b] = None
        members.append(merged)
    assert sorted(members[-1]) == list(range(n))
    again = dg.ward_cluster(_table(tied.copy()), standardize=False)
    assert again.newick().encode() == tied_tree.newick().encode()


def test_ward_standardize_evens_scales():
    rng = np.random.default_rng(8)
    base = np.vstack([rng.normal(0, 1, (6, 3)), rng.normal(4, 1, (6, 3))])
    stretched = base.copy()
    stretched[:, 0] *= 1000.0
    raw_tree = dg.ward_cluster(_table(stretched), standardize=False)
    std_tree = dg.ward_cluster(_table(stretched), standardize=True)
    want = dg.ward_cluster(_table(base), standardize=True).cut(2)
    assert np.array_equal(std_tree.cut(2), want)
    constant = np.column_stack([base, np.full(12, 3.0)])
    dg.ward_cluster(_table(constant))  # constant column must not blow up


def test_dendrogram_shape_and_newick():
    rows, _ = _planted(seed=3)
    tree = dg.ward_cluster(_table(rows))
    order = tree.leaf_order()
    assert sorted(order) == list(range(15))
    text = tree.newick()
    assert text.endswith(";")
    assert text.count("(") == text.count(")") == 14
    for lab in map(str, range(15)):
        assert f"{lab}:" in text
    assert tree.cut(1).tolist() == [0] * 15
    assert tree.cut(15).tolist() == list(range(15))
    with pytest.raises(InputError):
        tree.cut(0)
    with pytest.raises(InputError):
        dg.ward_cluster(_table(np.ones((1, 3))))


def test_newick_quotes_labels_that_would_break_the_tree():
    labels = ("v(1)", "[2]", "a:b", "x;y", "it's", "a b", "v-2.5")
    merges = np.array([
        [0, 1, 2.45, 2],
        [2, 7, 2.71, 3],
        [3, 8, 4.32, 4],
        [4, 5, 1.0, 2],
        [10, 9, 5.0, 6],
        [6, 11, 6.0, 7],
    ])
    tree = dg.Dendrogram(merges, labels)
    assert tree.newick() == (
        "(v-2.5:6,(('it''s':1,'a b':1):4,"
        "('x;y':4.32,('a:b':2.71,('v(1)':2.45,'[2]':2.45):0.26):1.61):0.68):1);"
    )


def _newick_keeping_every_text(tree):
    """The former ``Dendrogram.newick``: every cluster's text stays in
    ``texts`` until the end."""
    n = tree.n
    height = np.concatenate([np.zeros(n), tree.merges[:, 2]])
    texts = list(map(_newick_label, tree.labels))
    for s in range(n - 1):
        a, b = int(tree.merges[s, 0]), int(tree.merges[s, 1])
        h = tree.merges[s, 2]
        la = f"{texts[a]}:{max(h - height[a], 0.0):.9g}"
        lb = f"{texts[b]}:{max(h - height[b], 0.0):.9g}"
        texts.append(f"({la},{lb})")
    return texts[-1] + ";"


def caterpillar(n):
    """Tree on leaves ``v0``..: each merge adds one leaf, so it is n - 1 deep."""
    merges = np.column_stack([
        np.r_[0, np.arange(n, 2 * n - 2)], np.arange(1, n),
        np.arange(1.0, n), np.arange(2, n + 1),
    ]).astype(np.float64)
    return dg.Dendrogram(merges, tuple(f"v{i}" for i in range(n)))


def test_newick_of_a_deep_tree_holds_linear_text():
    tree = caterpillar(3000)
    tracemalloc.start()
    try:
        text = tree.newick()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) == 42774
    assert peak < 10 * len(text)  # every cluster's text kept: ~1450x
    assert text == _newick_keeping_every_text(tree)


@settings(deadline=None, max_examples=25)
@given(arrays(np.float64, (7, 4), elements=st.floats(-50, 50)))
def test_ward_heights_monotone_property(x):
    tree = dg.ward_cluster(_table(x), standardize=False)
    h = tree.merges[:, 2]
    assert np.all(np.diff(h) >= -1e-9 * np.maximum(h[1:], 1.0))
