import csv
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components
from test_fileio import _BLANK_ROW, _NUMBER, _ODD_CELL, _ODD_LABEL, _cell_text

import digraphlets as dg
from digraphlets import pruning
from digraphlets.errors import InputError, UnprunableError
from digraphlets.fileio import parse_signature_csv
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
    """The reference threshold, and the arcs ``|w_ij| > t`` off the diagonal."""
    want = _reference_threshold(w)
    if want is None:
        with pytest.raises(UnprunableError):
            dg.prune_weighted(dg.weighted_matrix(w))
        return
    g, t = dg.prune_weighted(dg.weighted_matrix(w))
    assert t == want
    kept = np.abs(w) > want
    np.fill_diagonal(kept, False)
    src, dst = g.arcs()
    assert np.array_equal(src, np.nonzero(kept)[0]) and np.array_equal(dst, np.nonzero(kept)[1])


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
    g, t = dg.prune_weighted(dg.weighted_matrix(w))
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


def _pruned(w):
    """Threshold and arcs of ``prune_weighted``, or the error it raises."""
    try:
        g, t = dg.prune_weighted(dg.weighted_matrix(w))
    except UnprunableError as exc:
        return str(exc)
    return t, g.keys.tobytes()


@settings(deadline=None, max_examples=40)
@given(weight_matrices(), st.integers(1, 9))
def test_any_tile_size_prunes_alike(w, tile):
    # below 35 vertices one tile covers the matrix; smaller tiles, the last
    # one ragged, must read the same blocks of W and of its transpose
    want = _pruned(w)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pruning, "TILE", tile)
        assert _pruned(w) == want


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


def test_one_percent_may_stay_outside_the_largest_component():
    # A component outside the largest one passes the degree floor only
    # with ceil(2 ln n) + 1 vertices, and at most n - ceil(0.99 n) may stay
    # outside. The number allowed first reaches the number needed at
    # n = 1600 (16 each), so below that the allowance cannot change t.
    # Without the allowance, t would be 0 here.
    n, clique = 1700, 16
    rng = np.random.default_rng(0)
    half = np.arange(n) % 2
    w = np.where(half[:, None] == half[None, :], rng.integers(6, 10, (n, n)),
                 rng.integers(2, 6, (n, n))).astype(float)
    w[-clique:, :] = w[:, -clique:] = 1.0
    w[-clique:, -clique:] = 9.0
    np.fill_diagonal(w, 0.0)
    g, t = dg.prune_weighted(dg.weighted_matrix(w))
    assert t == 4.0
    assert skeleton_summary(g)["largest_component_fraction"] == 1684 / n

    def feasible(t):  # both criteria on the dense skeleton, through scipy
        skel = np.abs(w) > t
        skel |= skel.T
        _, labels = connected_components(skel, directed=False)
        return (skel.sum(axis=1) >= 2 * math.log(n)).all() and (
            np.bincount(labels).max() >= 0.99 * n)

    assert feasible(4.0) and not feasible(5.0)


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
    for bad in ([[0, 1], [1]], [[0, "x"], ["x", 0]], [[0, 1j], [1, 0]],
                np.array([[0, 1j], [1, 0]])):
        with pytest.raises(InputError):
            dg.weighted_matrix(bad)
    with pytest.warns(UserWarning):
        w = dg.weighted_matrix(np.ones((3, 3)))
    assert (np.diag(w.values) == 0).all()


def test_weighted_matrix_never_writes_the_callers_array():
    theirs = np.arange(9.0).reshape(3, 3)
    with pytest.warns(UserWarning, match="zeroing nonzero diagonal"):
        w = dg.weighted_matrix(theirs)
    assert theirs.tolist() == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    assert w.values.tolist() == [[0, 1, 2], [3, 0, 5], [6, 7, 0]]
    theirs[1, 1] = 0.0
    theirs[2, 2] = 0.0
    assert dg.weighted_matrix(theirs).values is theirs  # a zero diagonal: no copy


@pytest.mark.parametrize("text, message", [
    ("a,\n", "non-numeric cell in weight matrix: could not convert string to float: ''"),
    ("a,0,1\nb,1,0\nc,\n", "row 3: expected 3 cells, got 2"),
])
def test_an_empty_value_cell_is_not_a_skipped_line(text, message):
    # once its label is cut off, the row's text is empty, and np.loadtxt
    # skips an empty line
    with pytest.raises(InputError, match=f"^{message}$"):
        parse_weighted_csv(text)


@pytest.mark.parametrize("text", [
    ",a,b,c\na,0,1,2\nb,1,0,2\nc,2,1,0\n",  # labels on both sides
    "a,b,c\n0,1,2\n1,0,2\n2,1,0\n",  # a header row only
    "0,1,2\n1,0,2\n2,1,0\n",  # numbers only, first column included
])
def test_the_read_array_is_the_matrix(text, monkeypatch):
    # the array np.loadtxt returns becomes WeightedMatrix.values as it is,
    # with no second n x n copy on the way
    loaded, loadtxt = [], np.loadtxt

    def spy(*args, **kwargs):
        loaded.append(loadtxt(*args, **kwargs))
        return loaded[-1]

    monkeypatch.setattr(np, "loadtxt", spy)
    w = parse_weighted_csv(text)
    assert w.values is loaded[0] and w.values.tolist() == [[0, 1, 2], [1, 0, 2], [2, 1, 0]]


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
    # a ragged row is named before a non-numeric cell above it
    ("0,1,2\n1,x,2\n2,1\n", "row 3: expected 3 cells, got 2"),
])
def test_parse_weighted_csv_names_a_ragged_row(text, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        parse_weighted_csv(text)


# "1#2" reads as 1.0 where "#" starts a comment; "\x1c1" as 1.0 where U+001C is whitespace
_CELLS = [" 1 ", "1_000", "nan", "-inf", "1e400", "+.5", "\t2\n", "\u0661\u0662", "", "x", "1,5", "0x10",
          "1#2", "\x1c1"]
# both CSV readers take the same cells; the weight reader's cases are named by the cell alone
_READERS = {
    "weight": (parse_weighted_csv, "non-numeric cell in weight matrix: ",
               "weight matrix entries must be finite"),
    "signature": (parse_signature_csv, "line 2: non-numeric cell: ", "line 2: non-finite cell"),
}


@pytest.mark.parametrize("cell, reader", [
    *(pytest.param(cell, "weight", id=cell) for cell in _CELLS),
    *(pytest.param(cell, "signature") for cell in _CELLS),
])
def test_weight_cells_convert_like_float(cell, reader):
    # each row is converted in one call, which must accept, reject and
    # word its error exactly as float() does cell by cell
    parse, non_numeric, non_finite = _READERS[reader]
    for ending in ("\n", "\r\n"):  # a carriage return always goes to the per-row loop
        out = io.StringIO()
        csv.writer(out, lineterminator=ending).writerows(
            [["", "a", "b"], ["a", "0", cell], ["b", "1", "0"]])
        try:
            value = float(cell)
        except ValueError as exc:
            with pytest.raises(InputError) as info:
                parse(out.getvalue())
            assert str(info.value) == f"{non_numeric}{exc}"
            continue
        if not math.isfinite(value):
            with pytest.raises(InputError, match=f"^{non_finite}$"):
                parse(out.getvalue())
        else:
            assert parse(out.getvalue()).values.tolist() == [[0.0, value], [1.0, 0.0]]


def _is_number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def reference_weighted_csv(text):
    """Cell-by-cell ``float`` reading of a weight matrix, the reference
    for ``parse_weighted_csv``: rows with no non-blank cell are skipped,
    and every check runs in the parser's order."""
    reader = csv.reader(io.StringIO(text))
    try:
        rows = [r for r in reader if any(c.strip() for c in r)]
    except csv.Error as exc:
        raise InputError(f"line {reader.line_num}: {exc}") from exc
    if not rows:
        raise InputError("weight matrix file is empty")
    top = rows[0]
    has_header = any(not _is_number(c.strip()) and c.strip() != "" for c in top[1:])
    if has_header:
        rows = rows[1:]
    if not rows:
        raise InputError("weight matrix has a header but no rows")
    for number, row in enumerate(rows, start=1 + has_header):
        if len(row) != len(rows[0]):
            raise InputError(f"row {number}: expected {len(rows[0])} cells, got {len(row)}")
    try:
        values = np.array([[float(c) for c in row[1:]] for row in rows])
    except ValueError as exc:
        raise InputError(f"non-numeric cell in weight matrix: {exc}") from exc
    column = [row[0] for row in rows]
    if any(not _is_number(c.strip()) for c in column):
        return dg.weighted_matrix(values, [c.strip() for c in column])
    try:
        first = [float(c) for c in column]
    except ValueError as exc:
        raise InputError(f"non-numeric cell in weight matrix: {exc}") from exc
    values = np.hstack((np.array(first)[:, None], values))
    labels = None
    if has_header:
        labels = [c.strip() for c in (top[1:] if len(top) == len(rows[0]) + 1 else top)]
    return dg.weighted_matrix(values, labels)


def _weight_outcome(parse, text):
    """Labels, dtype, shape and value bytes of a read matrix, or its error
    type and text, with the text of every warning on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            w = parse(text)
            got = w.labels, w.values.dtype, w.values.shape, w.values.tobytes()
        except ValueError as exc:
            got = type(exc).__name__, str(exc)
    return got, [str(c.message) for c in caught]


def assert_weights_read_like_reference(text):
    assert _weight_outcome(parse_weighted_csv, text) == _weight_outcome(reference_weighted_csv, text)


_WEIGHT_ODD_CELL = st.one_of(_ODD_CELL, st.sampled_from(["1#2", "\x1c1", "1\x1f", " -inf", "+NaN "]))


@st.composite
def weight_csv_texts(draw):
    """Weight-matrix CSV text: n x n numbers (n 1..5), with or without a
    header row (with or without its corner cell) and a label column, the
    diagonal now and then nonzero, cells quoted at random.  Each of these
    comes in about a third of the texts, independently: odd labels, odd
    cells (non-numeric, non-finite, blank, padded, ``_`` or non-ASCII
    digits), a row one cell short or long, blank and all-blank rows."""
    n = draw(st.integers(1, 5))
    names = [f"r{i}" for i in range(n)]
    some = st.integers(0, 2).map(lambda k: k == 0)
    if draw(some):
        names = [draw(st.one_of(st.just(name), _ODD_LABEL)) for name in names]
    cell = st.one_of(_NUMBER, _NUMBER, _WEIGHT_ODD_CELL) if draw(some) else _NUMBER
    header, labelled = draw(st.sampled_from(["none", "corner", "bare"])), draw(st.booleans())
    rows = [[*([""] if header == "corner" else []), *names]] if header != "none" else []
    for i, name in enumerate(names):
        row = [draw(cell) if j != i or draw(st.integers(0, 4)) == 0 else "0" for j in range(n)]
        rows.append([name, *row] if labelled else row)
    if draw(some):
        row = draw(st.sampled_from(rows))
        row.append(draw(cell)) if draw(st.booleans()) else row.pop()
    lines = [",".join(draw(_cell_text(c)) for c in row) for row in rows]
    if draw(some):
        for _ in range(draw(st.integers(1, 3))):
            lines.insert(draw(st.integers(0, len(lines))), draw(_BLANK_ROW))
    sep = draw(st.sampled_from(["\n", "\n", "\n", "\r\n"]))
    return sep.join(lines) + draw(st.sampled_from(["", sep]))


@settings(deadline=None, max_examples=300)
@given(weight_csv_texts())
def test_weight_reader_matches_per_cell_reference(text):
    assert_weights_read_like_reference(text)


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
    graphs.append(dg.DirectedGraph.from_arcs([], n=1))  # no join weights
    # vertex 0 isolated; the largest component joins later
    graphs.append(dg.DirectedGraph.from_arcs([(1, 2), (2, 3), (3, 1), (4, 5)], n=6))
    for g in graphs:
        assert skeleton_summary(g) == _dense_summary(g)
    fractions = {skeleton_summary(g)["largest_component_fraction"] for g in graphs}
    assert min(fractions) < 0.99
