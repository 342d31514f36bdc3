"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines.  Tolerances and budgets are pinned in-line and documented in the
README.
"""

import itertools
import json
import time

import numpy as np

import digraphlets as dg
from digraphlets import taxonomy
from digraphlets.cli import main

from conftest import skeleton_counts


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {verdict}: {name}{suffix}")
    assert ok, f"criterion {num:02d} failed: {name}{suffix}"


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(20260814)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(500):
        n = int(rng.integers(3, 41))
        p = float(rng.uniform(0.05, 0.9))
        recip = float(rng.uniform(0.0, 1.0))
        g = dg.random_digraph(n, p, seed=int(rng.integers(2**32)),
                              recip_prob=recip)
        if dg.oracle_census(g) != dg.raw_census(g):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    _report(1, "oracle equivalence on 500 random digraphs", ok,
            f"{mismatches} mismatches, {elapsed:.1f}s of 60s budget")


def test_criterion_02_hand_derived_fixtures():
    cycle = dg.signature_matrix(dg.DirectedGraph.from_arcs([(0, 1), (1, 2), (2, 0)]))
    cycle_ok = cycle.values.tolist() == [
        [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0]] * 3

    rec = dg.DirectedGraph.from_arcs(
        [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
    rec_sig = dg.signature_matrix(rec)
    rec_ok = rec_sig.values.tolist() == [
        [0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2]] * 3

    path = dg.signature_matrix(dg.DirectedGraph.from_arcs([(0, 1), (1, 2)], n=3))
    w_path = taxonomy.SIGNATURE_COLUMNS.index("w_path")
    path_ok = (
        path.values[0, w_path] == 1
        and path.values[2, w_path] == 1
        and not path.values[1, 3:].any()
        and path.values[1, :3].tolist() == [1, 1, 0]
    )
    ok = cycle_ok and rec_ok and path_ok
    _report(2, "hand-derived fixtures exact", ok,
            f"cycle={cycle_ok} reciprocal={rec_ok} path={path_ok}")


def test_criterion_03_sum_identities():
    graphs = [
        dg.DirectedGraph.from_arcs([(0, 1), (1, 2), (2, 0)]),
        dg.DirectedGraph.from_arcs([(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]),
        dg.DirectedGraph.from_arcs([(0, 1), (1, 2)], n=3),
    ]
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(3, 36))
        graphs.append(dg.random_digraph(
            n, float(rng.uniform(0.05, 0.9)), seed=int(rng.integers(2**32)),
            recip_prob=float(rng.uniform(0, 1))))
    failures = []
    for k, g in enumerate(graphs):
        raw = dg.raw_census(g)
        triangles, wedges = skeleton_counts(g)
        checks = (
            raw.degrees[:, 0].sum() == g.num_pure_arcs,
            raw.degrees[:, 1].sum() == g.num_pure_arcs,
            raw.degrees[:, 2].sum() == 2 * g.num_recip_pairs,
            raw.triangles.sum() == 6 * triangles,
            raw.wedges.sum() == 2 * wedges,
            (raw.wedges >= 0).all(),
        )
        if not all(checks):
            failures.append(k)
    _report(3, "sum identities exact on every corpus graph", not failures,
            f"{len(graphs)} graphs, failures={failures}")


def test_criterion_04_null_model_convergence():
    start = time.perf_counter()
    skeleton = dg.random_digraph(300, 0.2, seed=424242)
    means = []
    for seed in range(20):
        g = dg.randomize_directions(skeleton, seed=seed)
        norm = dg.normalize(dg.signature_matrix(g))
        means.append(norm.values.mean(axis=0))
    mean = np.mean(means, axis=0)
    deviation = float(np.abs(mean - dg.uniform_profile()).max())
    elapsed = time.perf_counter() - start
    ok = deviation < 0.02 and elapsed < 30.0
    _report(4, "null-model convergence to the block-uniform profile", ok,
            f"Linf={deviation:.4f} of 0.02, {elapsed:.1f}s of 30s budget")


def test_criterion_05_taxonomy_arithmetic():
    wedge_members = [t for c in taxonomy.WEDGE_CLASS_MEMBERS.values() for t in c]
    tri_members = [t for c in taxonomy.TRIANGLE_CLASS_MEMBERS.values() for t in c]
    all_wedges = sorted(itertools.product("+-o", repeat=2))
    all_tris = sorted(itertools.product("+-o", repeat=3))
    coverage = (
        sorted(wedge_members) == all_wedges
        and sorted(tri_members) == all_tris
        and len(taxonomy.WEDGE_CLASS_MEMBERS) == 6
        and len(taxonomy.TRIANGLE_CLASS_MEMBERS) == 7
    )
    arity_total = sum(3**k for k in taxonomy.ORBIT_FAMILY_ARITIES)
    closed_form = 3 + 2 * 3**2 + 5 * 3**3 + 4 * 3**4 + 2 * 3**5 + 3**6
    totals = arity_total == closed_form == taxonomy.orbit_type_total() == 1695
    ok = coverage and totals
    _report(5, "class tables cover 9+27 once; orbit total is 1695", ok,
            f"coverage={coverage} totals={totals}")


def test_criterion_06_gcm_properties():
    g = dg.random_digraph(80, 0.25, seed=99)
    sig = dg.signature_matrix(g)
    m = dg.gcm(sig)
    v = m.values
    rng = np.random.default_rng(0)
    basic = (
        np.array_equal(v, v.T)
        and np.allclose(np.diag(v), 1.0)
        and (np.abs(v) <= 1.0).all()
    )
    perm = rng.permutation(sig.n)
    permuted = dg.gcm(type(sig)(sig.labels, sig.values[perm]))
    perm_ok = np.allclose(v, permuted.values, atol=1e-12)
    scale = rng.uniform(0.5, 3.0, 16)
    shift = rng.normal(0.0, 5.0, 16)
    affine = dg.gcm(type(sig)(sig.labels, sig.values * scale + shift))
    affine_ok = float(np.abs(v - affine.values).max()) < 1e-9
    frozen = sig.values.astype(float)
    frozen[:, 5] = 7.0
    flagged = dg.gcm(type(sig)(sig.labels, frozen))
    const_ok = (
        bool(flagged.constant[5])
        and not flagged.values[5, :5].any()
        and not flagged.values[:5, 5].any()
        and flagged.values[5, 5] == 1.0
    )
    ok = basic and perm_ok and affine_ok and const_ok
    _report(6, "GCM symmetric/unit-diagonal/bounded and invariant", ok,
            f"basic={basic} perm={perm_ok} affine={affine_ok} const={const_ok}")


def test_criterion_07_significance_and_cohort():
    v = np.eye(3)
    v[0, 1] = v[1, 0] = 0.70
    v[0, 2] = v[2, 0] = 0.700001
    v[1, 2] = v[2, 1] = -0.70
    member = dg.GraphletCorrelationMatrix(
        v, ("a", "b", "c"), np.zeros(3, bool))
    mask = dg.significance_mask(member, theta=0.7)
    boundary = (
        mask[0, 1] == 0 and mask[1, 2] == 0 and mask[0, 2] == 1
        and (np.diag(mask) == 0).all()
    )
    stats = dg.cohort_stats([member] * 7, theta=0.7)
    cohort = (
        set(np.unique(stats.pos_pct)) <= {0.0, 100.0}
        and set(np.unique(stats.neg_pct)) <= {0.0, 100.0}
        and (np.diag(stats.pos_pct) == 100.0).all()
    )
    ok = boundary and cohort
    _report(7, "strict threshold boundary; identical cohort in {0,100}", ok,
            f"boundary={boundary} cohort={cohort}")


def test_criterion_08_ward_clustering():
    rng = np.random.default_rng(3)
    centers = np.array([[0.0] * 16, [25.0] * 16, [90.0] * 16])
    rows = np.vstack([
        centers[c] + rng.normal(0, 0.5, size=(6, 16)) for c in range(3)
    ])
    truth = np.repeat(np.arange(3), 6)
    table = dg.SignatureMatrix(tuple(map(str, range(len(rows)))), rows)
    tree = dg.ward_cluster(table, standardize=True)
    got = tree.cut(3)
    mapping = {}
    exact = True
    for a, b in zip(got.tolist(), truth.tolist()):
        mapping.setdefault(a, b)
        exact = exact and mapping[a] == b
    exact = exact and len(mapping) == 3
    monotone = bool(np.all(np.diff(tree.merges[:, 2]) >= -1e-9))
    ok = exact and monotone
    _report(8, "planted 3-cluster recovery; heights non-decreasing", ok,
            f"exact={exact} monotone={monotone}")


def test_criterion_09_performance_at_scale():
    # target edge count counts every arc, a reciprocal edge as two
    pairs_116 = 116 * 115 / 2
    p_116 = 3466 / (pairs_116 * 4 / 3)
    g_small = dg.random_digraph(116, p_116, seed=1)
    dg.gcm(dg.signature_matrix(g_small))  # warm-up (imports, caches)
    start = time.perf_counter()
    dg.gcm(dg.signature_matrix(g_small))
    small_elapsed = time.perf_counter() - start

    n_big = 10_000
    g_big = dg.random_digraph(n_big, 20 / (n_big - 1), seed=2)
    start = time.perf_counter()
    dg.raw_census(g_big)
    big_elapsed = time.perf_counter() - start
    ok = small_elapsed < 0.1 and big_elapsed < 10.0
    arcs = g_small.num_pure_arcs + 2 * g_small.num_recip_pairs
    _report(9, "census and correlation at working scale within budget", ok,
            f"n=116 (m={arcs}): {small_elapsed * 1000:.1f}ms of 100ms; "
            f"n=10^4: {big_elapsed:.2f}s of 10s")


def test_criterion_10_cli_determinism(tmp_path, monkeypatch):
    g = dg.random_digraph(24, 0.35, seed=11)
    edges = tmp_path / "g.edgelist"
    dg.save_edge_list(g, edges)
    subjects = tmp_path / "subjects"
    subjects.mkdir()
    for s in range(4):
        dg.save_edge_list(dg.randomize_directions(g, seed=s),
                          subjects / f"s{s}.edgelist")
    n = 18
    rng = np.random.default_rng(0)
    w = np.abs(rng.normal(1.0, 0.2, (n, n)))
    np.fill_diagonal(w, 0.0)
    wcsv = tmp_path / "w.csv"
    wcsv.write_text(
        "\n".join(",".join(f"{x:.6f}" for x in row) for row in w) + "\n")

    def run(tag: str, workers: str):
        monkeypatch.setenv("DIGRAPHLETS_WORKERS", workers)
        out = tmp_path / tag
        commands = [
            ["census", str(edges), "--raw", "--out", str(out / "census")],
            ["gcm", str(edges), "--out", str(out / "gcm")],
            ["cohort", str(subjects), "--out", str(out / "cohort")],
            ["randomize", str(edges), "--seed", "5", "--out", str(out / "rand")],
            ["prune", str(wcsv), "--out", str(out / "prune")],
            ["oracle", str(edges), "--out", str(out / "oracle")],
        ]
        commands.append(["cluster", str(out / "census" / "signature.csv"),
                         "--out", str(out / "cluster")])
        for argv in commands:
            assert main(argv) == 0, argv
        return {
            str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()
        }

    first = run("run1", "1")
    second = run("run2", "8")
    same = first.keys() == second.keys() and all(
        first[k] == second[k] for k in first)
    _report(10, "CLI byte-identical across runs and worker counts", same,
            f"{len(first)} files compared")
