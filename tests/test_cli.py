import csv
import errno
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

import digraphlets as dg
from digraphlets import analysis, cli
from digraphlets.cli import main
from digraphlets.errors import InputError
from digraphlets.fileio import parse_signature_csv, round9

NOT_UTF8 = b"a b\n\xff\xfe c\n"
BOM = "\ufeff".encode()


@pytest.fixture
def cycle_file(tmp_path):
    path = tmp_path / "cycle.edgelist"
    path.write_text("0 1\n1 2\n2 0\n")
    return path


@pytest.fixture
def random_file(tmp_path):
    g = dg.random_digraph(25, 0.3, seed=17)
    path = tmp_path / "g.edgelist"
    dg.save_edge_list(g, path)
    return path


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_census_golden(cycle_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["census", str(cycle_file), "--out", str(out)]) == 0
    rows = _read_csv(out / "signature.csv")
    assert rows[0] == ["vertex", *dg.SIGNATURE_COLUMNS]
    expect = ["1", "1", "0", "0", "0", "0", "0", "0", "0", "0", "2", "0", "0", "0", "0", "0"]
    assert rows[1] == ["0", *expect]
    assert rows[2] == ["1", *expect]
    assert rows[3] == ["2", *expect]
    assert "signature.csv" in capsys.readouterr().out


def test_census_raw_and_oracle_check(random_file, tmp_path):
    out = tmp_path / "o"
    code = main(["census", str(random_file), "--out", str(out),
                 "--raw", "--oracle-check"])
    assert code == 0
    rows = _read_csv(out / "raw_census.csv")
    assert len(rows[0]) == 40  # vertex column + 39 quantities
    assert len(rows) == 26


def test_census_normalized(cycle_file, tmp_path):
    out = tmp_path / "n"
    assert main(["census", str(cycle_file), "--out", str(out), "--normalized"]) == 0
    rows = _read_csv(out / "signature.csv")
    assert rows[1][1] == "0.5"


def test_census_json_format(cycle_file, tmp_path):
    out = tmp_path / "j"
    assert main(["census", str(cycle_file), "--out", str(out),
                 "--format", "json"]) == 0
    data = json.loads((out / "signature.json").read_text())
    assert data["columns"] == list(dg.SIGNATURE_COLUMNS)
    assert data["index"] == ["0", "1", "2"]
    assert data["values"][0][10] == 2
    assert {type(v) for row in data["values"] for v in row} == {int}  # as in the CSV


def test_gcm_outputs(random_file, tmp_path):
    out = tmp_path / "g"
    assert main(["gcm", str(random_file), "--out", str(out), "--theta", "0.6"]) == 0
    rows = _read_csv(out / "gcm.csv")
    assert rows[0] == ["class", *dg.SIGNATURE_COLUMNS]
    values = np.array([[float(c) for c in r[1:]] for r in rows[1:]])
    assert values.shape == (16, 16)
    assert np.allclose(values, values.T)
    assert np.allclose(np.diag(values), 1.0)
    mask = np.array([[int(c) for c in r[1:]] for r in _read_csv(out / "gcm_mask.csv")[1:]])
    assert set(np.unique(mask)) <= {-1, 0, 1}
    assert (out / "gcm_heatmap.svg").read_text().startswith("<svg")


def test_gcm_spearman_and_normalized(random_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["gcm", str(random_file), "--out", str(out1)]) == 0
    assert main(["gcm", str(random_file), "--out", str(out2),
                 "--spearman", "--normalized"]) == 0
    assert (out1 / "gcm.csv").read_text() != (out2 / "gcm.csv").read_text()


def _make_cohort(tmp_path, copies=6):
    g = dg.random_digraph(20, 0.4, seed=5)
    d = tmp_path / "subjects"
    d.mkdir()
    for s in range(copies):
        dg.save_edge_list(dg.randomize_directions(g, seed=s), d / f"s{s:02d}.edgelist")
    return d


def test_cohort_identical_copies(tmp_path):
    d = tmp_path / "same"
    d.mkdir()
    g = dg.random_digraph(18, 0.5, seed=2)
    for k in range(10):
        dg.save_edge_list(g, d / f"c{k}.edgelist")
    out = tmp_path / "out"
    assert main(["cohort", str(d), "--out", str(out)]) == 0
    rows = _read_csv(out / "cohort_pos.csv")
    pct = {float(c) for r in rows[1:] for c in r[1:]}
    assert pct <= {0.0, 100.0}
    meta = json.loads((out / "cohort_meta.json").read_text())
    assert meta["count"] == 10
    assert meta["files"] == [f"c{k}.edgelist" for k in range(10)]


def test_cohort_worker_determinism(tmp_path, monkeypatch):
    d = _make_cohort(tmp_path)
    out1, out8 = tmp_path / "w1", tmp_path / "w8"
    monkeypatch.setenv("DIGRAPHLETS_WORKERS", "1")
    assert main(["cohort", str(d), "--out", str(out1)]) == 0
    monkeypatch.setenv("DIGRAPHLETS_WORKERS", "8")
    assert main(["cohort", str(d), "--out", str(out8)]) == 0
    for name in ("cohort_pos.csv", "cohort_neg.csv", "cohort_heatmap.svg",
                 "cohort_meta.json"):
        assert (out1 / name).read_bytes() == (out8 / name).read_bytes()


def test_cohort_bad_member_is_named(tmp_path, capsys):
    d = _make_cohort(tmp_path, copies=3)
    (d / "broken.edgelist").write_text("x y z\n")
    assert main(["cohort", str(d), "--out", str(tmp_path / "x")]) == 2
    assert "broken.edgelist" in capsys.readouterr().err


def test_cohort_skips_hidden_files(tmp_path):
    d = _make_cohort(tmp_path, copies=3)
    plain, hidden = tmp_path / "plain", tmp_path / "hidden"
    assert main(["cohort", str(d), "--out", str(plain)]) == 0
    (d / ".DS_Store").write_bytes(b"\x00\x00\x00\x01Bud1\x00")
    assert main(["cohort", str(d), "--out", str(hidden)]) == 0
    for name in ("cohort_pos.csv", "cohort_neg.csv", "cohort_heatmap.svg",
                 "cohort_meta.json"):
        assert (plain / name).read_bytes() == (hidden / name).read_bytes()
    meta = json.loads((hidden / "cohort_meta.json").read_text())
    assert meta["files"] == ["s00.edgelist", "s01.edgelist", "s02.edgelist"]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cohort_non_utf8_member_exits_2(tmp_path, monkeypatch, capsys, workers):
    d = _make_cohort(tmp_path, copies=3)
    (d / "s01b.edgelist").write_bytes(NOT_UTF8)
    monkeypatch.setenv("DIGRAPHLETS_WORKERS", workers)
    assert main(["cohort", str(d), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "s01b.edgelist" in err and "utf-8" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cohort_census_errors_name_the_member(tmp_path, monkeypatch, capsys, workers):
    d = _make_cohort(tmp_path, copies=3)
    (d / "s01b.edgelist").write_text("a b\n")
    monkeypatch.setenv("DIGRAPHLETS_WORKERS", workers)
    assert main(["cohort", str(d), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {d / 's01b.edgelist'}: correlation needs at least 3 signature rows\n"
    assert not (tmp_path / "x").exists()


class _CrashingPool:
    """Stands in for ProcessPoolExecutor: the first result arrives, then
    the pool breaks as it does when a worker process dies."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        yield fn(next(iter(tasks)))
        raise BrokenProcessPool("A process in the process pool was terminated abruptly")


def test_cohort_crashed_worker_exits_3(tmp_path, monkeypatch, capsys):
    d = _make_cohort(tmp_path, copies=3)
    monkeypatch.setenv("DIGRAPHLETS_WORKERS", "2")
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _CrashingPool)
    assert main(["cohort", str(d), "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and "Traceback" not in err
    assert "s01.edgelist" in err and "2 workers" in err
    assert "s00.edgelist" not in err and "s02.edgelist" not in err


def test_cohort_pool_is_bounded_by_member_count(tmp_path, monkeypatch, capsys):
    d = _make_cohort(tmp_path, copies=3)
    asked = []

    class RecordingPool(_CrashingPool):
        """Records the worker count it is given; maps in this process."""

        def __init__(self, max_workers):
            asked.append(max_workers)
            super().__init__(max_workers)

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setenv("DIGRAPHLETS_WORKERS", "64")
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    assert main(["cohort", str(d), "--out", str(tmp_path / "x")]) == 0
    assert asked == [3]
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _CrashingPool)
    assert main(["cohort", str(d), "--out", str(tmp_path / "y")]) == 3
    assert "(3 workers)" in capsys.readouterr().err


def test_cohort_chunks_members_over_workers(tmp_path, monkeypatch):
    d = _make_cohort(tmp_path, copies=9)
    asked = []

    class RecordingPool(_CrashingPool):
        def map(self, fn, tasks, chunksize=1):
            asked.append(chunksize)
            return map(fn, tasks)

    monkeypatch.setenv("DIGRAPHLETS_WORKERS", "2")
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    assert main(["cohort", str(d), "--out", str(tmp_path / "x")]) == 0
    assert asked == [2]  # ceil(9 members / (4 * 2 workers))


def test_cohort_env_validation(tmp_path, monkeypatch):
    d = _make_cohort(tmp_path, copies=2)
    monkeypatch.setenv("DIGRAPHLETS_WORKERS", "zero")
    assert main(["cohort", str(d), "--out", str(tmp_path / "x")]) == 2


def test_randomize_deterministic(random_file, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["randomize", str(random_file), "--seed", "9", "--out", str(out1)]) == 0
    assert main(["randomize", str(random_file), "--seed", "9", "--out", str(out2)]) == 0
    b1 = (out1 / "randomized.edgelist").read_bytes()
    assert b1 == (out2 / "randomized.edgelist").read_bytes()
    shuffled = dg.load_edge_list(out1 / "randomized.edgelist")
    original = dg.load_edge_list(random_file)
    assert np.array_equal(
        shuffled.connected_pairs()[0], original.connected_pairs()[0]
    )


@pytest.mark.parametrize("command, option, value, message", [
    pytest.param("randomize", "--seed", "-1", "seed must be a non-negative integer", id="-1"),
    pytest.param("randomize", "--seed", "x", "invalid seed 'x'", id="x"),
    pytest.param("oracle", "--cap", "0", "cap must be a positive integer", id="cap-0"),
    pytest.param("oracle", "--cap", "-3", "cap must be a positive integer", id="cap--3"),
])
def test_bad_seed_is_a_usage_error(command, option, value, message, random_file, tmp_path, capsys):
    """A bad --seed or --cap exits 1 before any input is read."""
    out = tmp_path / "x"
    assert main([command, str(random_file), option, value, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"argument {option}: {message}" in err and "Traceback" not in err
    assert not out.exists()


def test_commands_compose(random_file, tmp_path):
    # randomize output feeds census; census output feeds cluster
    r, c, k = tmp_path / "r", tmp_path / "c", tmp_path / "k"
    assert main(["randomize", str(random_file), "--out", str(r)]) == 0
    assert main(["census", str(r / "randomized.edgelist"), "--out", str(c)]) == 0
    assert main(["cluster", str(c / "signature.csv"), "--out", str(k)]) == 0
    assert (k / "dendrogram.newick").read_text().rstrip("\n").endswith(";")


def test_prune_command(tmp_path):
    uniform = np.full((20, 20), 1.0)
    weights = np.random.default_rng(3).normal(size=(40, 40))
    for name, w in [("uniform", uniform), ("normal", weights)]:
        np.fill_diagonal(w, 0.0)
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(",".join(map(repr, row)) for row in w.tolist()) + "\n")
        out = tmp_path / name
        assert main(["prune", str(path), "--out", str(out)]) == 0
        meta = json.loads((out / "prune_meta.json").read_text())
        # every field, recomputed from the written edge list
        n = len(w)
        pruned = dg.load_edge_list(out / "pruned.edgelist")
        kept = np.zeros((n, n), dtype=bool)
        kept[pruned.arcs()] = True
        skel = kept | kept.T
        _, components = connected_components(skel, directed=False)
        dropped = np.abs(w)[~kept & ~np.eye(n, dtype=bool)]
        assert meta == {
            "threshold": round9(dropped.max(initial=0.0)),
            "vertices": n,
            "arcs": int(kept.sum()),
            "largest_component_fraction": round9(np.bincount(components).max() / n),
            "min_total_degree": int(skel.sum(axis=1).min()),
            "degree_floor": round9(2 * math.log(n)),
        }
        assert pruned.labels == tuple(map(str, range(n)))
    assert meta["threshold"] > 0 and meta["arcs"] < n * (n - 1)


def test_prune_names_the_file_in_parse_errors(tmp_path, capsys):
    path = tmp_path / "w.csv"
    path.write_text("0,1,2\n1,0,x\n2,3,0\n")
    assert main(["prune", str(path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: non-numeric cell in weight matrix")
    assert not (tmp_path / "x").exists()


def test_prune_of_a_first_cell_numeric_only_once_stripped_exits_2(tmp_path):
    # "\x1c1" passes the first column's number check once stripped, and float() rejects it
    path = tmp_path / "w.csv"
    path.write_text("0,1,1\n\x1c1,0,1\n1,1,0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "digraphlets", "prune", str(path), "--out", str(tmp_path / "x")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {path}: non-numeric cell in weight matrix: ")
    assert proc.stderr.count("\n") == 1
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command, text", [
    ("prune", ",a,b,c\n{big},0,1,1\nb,1,0,1\nc,1,1,0\n"),
    ("cluster", "vertex,a\n{big},1\nw,2\n"),
])
def test_an_oversized_field_exits_2_naming_the_file(command, text, tmp_path, capsys):
    # a cell over csv's field size limit was a _csv.Error traceback
    path = tmp_path / "big.csv"
    path.write_text(text.format(big="r" * 200_000))
    assert main([command, str(path), "--out", str(tmp_path / "x")]) == 2
    limit = csv.field_size_limit()
    assert capsys.readouterr().err == (
        f"error: {path}: line 2: field larger than field limit ({limit})\n")
    assert not (tmp_path / "x").exists()


def test_prune_rejects_bad_labels_before_pruning(tmp_path, monkeypatch, capsys):
    def never(*args):
        raise AssertionError("the threshold search ran")

    monkeypatch.setattr(cli, "prune_weighted", never)
    n = 8
    w = np.ones((n, n)) - np.eye(n)
    path = tmp_path / "w.csv"
    path.write_text(",".join(f"r {i}" for i in range(n)) + "\n"
                    + "".join(",".join(f"{x:g}" for x in row) + "\n" for row in w))
    assert main(["prune", str(path), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"error: {path}: invalid vertex label 'r 0'\n"


def test_prune_unprunable_exits_2(tmp_path):
    w = np.zeros((20, 20))
    w[:5, :5] = 1.0
    np.fill_diagonal(w, 0.0)
    path = tmp_path / "w.csv"
    path.write_text("\n".join(",".join(f"{x:g}" for x in row) for row in w) + "\n")
    assert main(["prune", str(path), "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("name, w, message", [
    ("two.csv", np.ones((2, 2)) - np.eye(2), "pruning needs at least 3 vertices"),
    ("block.csv", np.pad(np.ones((5, 5)) - np.eye(5), (0, 15)),
     "no threshold satisfies the connectivity and degree criteria"),
])
def test_prune_names_the_file_in_whole_matrix_errors(tmp_path, capsys, name, w, message):
    path = tmp_path / name
    path.write_text("".join(",".join(f"{x:g}" for x in row) + "\n" for row in w))
    assert main(["prune", str(path), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not (tmp_path / "x").exists()


def test_cluster_pipes_from_census(random_file, tmp_path):
    out = tmp_path / "c"
    assert main(["census", str(random_file), "--out", str(out)]) == 0
    assert main(["cluster", str(out / "signature.csv"), "--out", str(out)]) == 0
    newick = (out / "dendrogram.newick").read_text()
    assert newick.rstrip().endswith(";")
    order = (out / "leaf_order.txt").read_text().split()
    assert sorted(order, key=int) == [str(i) for i in range(25)]


def test_cluster_planted_groups_contiguous(tmp_path):
    rows = ["vertex," + ",".join(dg.SIGNATURE_COLUMNS)]
    rng = np.random.default_rng(1)
    for i in range(12):
        base = (i // 4) * 50.0
        vals = base + rng.uniform(0, 0.1, 16)
        rows.append(f"v{i}," + ",".join(f"{x:.4f}" for x in vals))
    path = tmp_path / "sig.csv"
    path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    assert main(["cluster", str(path), "--out", str(out)]) == 0
    order = (out / "leaf_order.txt").read_text().split()
    groups = [int(v[1:]) // 4 for v in order]
    for g in range(3):
        where = [k for k, x in enumerate(groups) if x == g]
        assert where == list(range(min(where), max(where) + 1))


def test_cluster_rejects_non_finite_cell(tmp_path, capsys):
    path = tmp_path / "sig.csv"
    path.write_text("vertex,a,b\n0,1,2\n1,nan,3\n2,4,inf\n")
    assert main(["cluster", str(path), "--out", str(tmp_path / "x")]) == 2
    assert "line 3" in capsys.readouterr().err
    assert not (tmp_path / "x" / "dendrogram.newick").exists()


def test_cluster_rejects_a_label_with_a_line_break(tmp_path, capsys):
    # leaf_order.txt holds one label per line, so a quoted multi-line
    # label would read back as two vertices
    path = tmp_path / "sig.csv"
    path.write_text('vertex,a,b\n"x\ny",1,2\nz,3,5\nw,0,1\n')
    assert main(["cluster", str(path), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"error: {path}: line 3: label holds a line break\n"
    assert not (tmp_path / "x").exists()
    with pytest.raises(dg.InputError, match="^line 2: label holds a line break$"):
        parse_signature_csv('vertex,a\n"x\ry",1\n')


def test_cluster_names_the_file_in_parse_errors(tmp_path, capsys):
    path = tmp_path / "sig.csv"
    path.write_text("vertex,a,b\n0,1,2\n1,x,3\n")
    assert main(["cluster", str(path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line 3: non-numeric cell")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("text, message", [
    ("vertex,a,b\n\n\n0,1,2\n\n1,3\n", "line 6: expected 3 cells, got 2"),
    ("vertex,a\n\n\nx,1\ny,oops\n", "line 5: non-numeric cell: "),
    ("vertex,a,b\r\n\r\n0,1,2\r\n\r\n\r\n1,nan,3\r\n", "line 6: non-finite cell"),
    # all-blank rows are skipped like empty ones, and counted like them
    ("vertex,a,b\n0,1,2\n,,\n   \n1,x,3\n", "line 5: non-numeric cell: "),
    ("vertex,a,b\n0,1,2\n , ,\t\n0,3,4\n", "line 4: duplicate label '0' (first on line 2)"),
    # a row whose only value is empty is not an empty line to skip
    ("vertex,a\nx,1\ny,\n", "line 3: non-numeric cell: "),
])
def test_signature_csv_errors_name_the_physical_line(tmp_path, capsys, text, message):
    with pytest.raises(dg.InputError, match=f"^{re.escape(message)}"):
        parse_signature_csv(text)
    path = tmp_path / "sig.csv"
    path.write_bytes(text.encode())
    assert main(["cluster", str(path), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: {message}")


def test_cluster_over_the_ward_budget_exits_2(random_file, tmp_path, monkeypatch, capsys):
    sig = tmp_path / "c" / "signature.csv"
    assert main(["census", str(random_file), "--out", str(sig.parent)]) == 0
    # 25 rows: 300 distances of 8 bytes
    monkeypatch.setattr(analysis, "WARD_BUDGET_BYTES", 2400)
    assert main(["cluster", str(sig), "--out", str(tmp_path / "k")]) == 0
    monkeypatch.setattr(analysis, "WARD_BUDGET_BYTES", 2399)
    capsys.readouterr()
    assert main(["cluster", str(sig), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {sig}: ") and "25 rows needs 2400 bytes" in err
    assert not (tmp_path / "x").exists()


def test_oracle_command(cycle_file, tmp_path):
    out = tmp_path / "o"
    assert main(["oracle", str(cycle_file), "--out", str(out)]) == 0
    rows = _read_csv(out / "oracle_census.csv")
    assert len(rows) == 4 and len(rows[0]) == 40


def test_oracle_cap_exit(random_file, tmp_path, capsys):
    assert main(["oracle", str(random_file), "--cap", "10",
                 "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {random_file}: oracle capped at 10")
    assert not (tmp_path / "x").exists()


def test_oracle_check_refuses_before_the_census(random_file, tmp_path, monkeypatch, capsys):
    def census(g):
        pytest.fail("raw_census ran on a graph over the oracle's cap")

    monkeypatch.setattr(cli, "oracle_census", lambda g: dg.oracle_census(g, max_n=10))
    monkeypatch.setattr(cli, "raw_census", census)
    assert main(["census", str(random_file), "--oracle-check",
                 "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {random_file}: oracle capped at 10")
    assert not (tmp_path / "x").exists()


def test_cluster_of_one_row_names_the_file(tmp_path, capsys):
    one = tmp_path / "one.csv"
    one.write_text("vertex,a,b\nx,1,2\n")
    assert main(["cluster", str(one), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == (
        f"error: {one}: clustering needs at least 2 signature rows\n")


def test_exit_codes(tmp_path, capsys):
    assert main(["census", str(tmp_path / "missing.edgelist")]) == 2
    assert "missing.edgelist" in capsys.readouterr().err
    empty = tmp_path / "empty.edgelist"
    empty.write_text("")
    assert main(["census", str(empty), "--out", str(tmp_path / "x")]) == 2
    assert "empty.edgelist" in capsys.readouterr().err
    assert main(["nonsense"]) == 1
    assert main([]) == 1
    assert main(["gcm", "whatever", "--theta", "2"]) == 1
    assert main(["census"]) == 1


def _complete_weights(n):
    w = np.ones((n, n)) - np.eye(n)
    return "".join(",".join(f"{x:g}" for x in row) + "\n" for row in w)


def test_every_subcommand_exits_0_and_prints_what_it_wrote(random_file, tmp_path, capsys):
    d = _make_cohort(tmp_path, copies=3)
    (tmp_path / "w.csv").write_text(_complete_weights(20))
    o = tmp_path / "o"
    runs = [
        (["census", str(random_file), "--raw"], "c",
         ["wrote {}/signature.csv", "wrote {}/raw_census.csv"]),
        (["gcm", str(random_file), "--format", "json"], "g",
         ["wrote {}/gcm.json", "wrote {}/gcm_mask.json", "wrote {}/gcm_heatmap.svg"]),
        (["cohort", str(d)], "h",
         ["wrote {}/cohort_pos.csv", "wrote {}/cohort_neg.csv",
          "wrote {}/cohort_heatmap.svg", "wrote {}/cohort_meta.json"]),
        (["randomize", str(random_file)], "r", ["wrote {}/randomized.edgelist"]),
        (["prune", str(tmp_path / "w.csv")], "p",
         ["wrote {}/pruned.edgelist", "wrote {}/prune_meta.json", "threshold 0.0"]),
        (["cluster", str(o / "c" / "signature.csv")], "k",
         ["wrote {}/dendrogram.newick", "wrote {}/leaf_order.txt"]),
        (["oracle", str(random_file)], "q", ["wrote {}/oracle_census.csv"]),
    ]
    for argv, sub, lines in runs:
        assert main([*argv, "--out", str(o / sub)]) == 0
        out, err = capsys.readouterr()
        assert (out, err) == ("".join(line.format(o / sub) + "\n" for line in lines), "")


def _blocked_out(tmp_path, kind):
    """An --out that names an existing file, or a directory under one."""
    blocker = tmp_path / "results.csv"
    blocker.write_text("not a directory\n")
    return blocker if kind == "file" else blocker / "sub"


@pytest.mark.parametrize("kind", ["file", "under_file"])
@pytest.mark.parametrize("command", ["census", "cohort"])
def test_unusable_out_exits_2_naming_the_path(
        command, kind, random_file, tmp_path, monkeypatch, capsys):
    source = random_file if command == "census" else _make_cohort(tmp_path, copies=3)
    out = _blocked_out(tmp_path, kind)

    def unread(path):
        pytest.fail(f"{path} was read before --out was checked")

    monkeypatch.setattr(cli, "load_edge_list", unread)
    assert main([command, str(source), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(out) in captured.err


@pytest.mark.parametrize("kind", ["file", "under_file"])
@pytest.mark.parametrize("command", ["census", "cohort"])
def test_unusable_out_exits_2_from_the_module_entry_point(command, kind, random_file, tmp_path):
    source = random_file if command == "census" else _make_cohort(tmp_path, copies=3)
    out = _blocked_out(tmp_path, kind)
    proc = subprocess.run(
        [sys.executable, "-m", "digraphlets", command, str(source), "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert str(out) in proc.stderr


def test_unlistable_cohort_directory_exits_2(tmp_path, monkeypatch, capsys):
    d = _make_cohort(tmp_path, copies=3)

    def denied(self):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))

    monkeypatch.setattr(Path, "iterdir", denied)
    assert main(["cohort", str(d), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(d) in err and "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_oracle_check_disagreement_exits_3(random_file, tmp_path, monkeypatch, capsys):
    real = cli.oracle_census

    def off_by_one(g, **kwargs):
        ref = real(g, **kwargs)
        ref.triangles[0, 0] += 1
        return ref

    monkeypatch.setattr(cli, "oracle_census", off_by_one)
    out = tmp_path / "x"
    assert main(["census", str(random_file), "--oracle-check", "--out", str(out)]) == 3
    assert capsys.readouterr() == (
        "", "internal error: census disagrees with brute-force recount\n")
    assert not out.exists()


@pytest.mark.parametrize("command, text, outputs", [
    ("census", "a b\nb c\nc a\na c\n", ["signature.csv"]),
    ("prune", _complete_weights(20), ["pruned.edgelist", "prune_meta.json"]),
], ids=["census", "prune"])
def test_a_leading_byte_order_mark_is_ignored(command, text, outputs, tmp_path):
    # unread, the mark would join the first label or, in a matrix, make the
    # first cell non-numeric, so that the first column reads as labels
    plain, marked = tmp_path / "plain.input", tmp_path / "marked.input"
    plain.write_text(text)
    marked.write_bytes(BOM + plain.read_bytes())
    assert main([command, str(plain), "--out", str(tmp_path / "p")]) == 0
    assert main([command, str(marked), "--out", str(tmp_path / "m")]) == 0
    for name in outputs:
        assert (tmp_path / "m" / name).read_bytes() == (tmp_path / "p" / name).read_bytes()


@pytest.mark.parametrize("theta", ["0", "1", "-0.5", "1.5", "nan", "inf"])
def test_theta_outside_the_open_unit_interval_is_refused_alike(theta, random_file, capsys):
    message = "theta must lie strictly between 0 and 1"
    member = dg.gcm(dg.signature_matrix(dg.load_edge_list(random_file)))
    with pytest.raises(InputError, match=f"^{message}$"):
        dg.significance_mask(member, float(theta))
    with pytest.raises(InputError, match=f"^{message}$"):
        dg.cohort_stats([member], float(theta))
    assert main(["gcm", str(random_file), "--theta", theta]) == 1
    assert capsys.readouterr().err.endswith(f"--theta: {message}\n")


@pytest.mark.parametrize("command", ["census", "cluster", "prune"])
def test_non_utf8_input_exits_2(command, tmp_path, capsys):
    bad = tmp_path / "bad.input"
    bad.write_bytes(NOT_UTF8)
    assert main([command, str(bad), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {bad}:") and "utf-8" in err


def test_out_of_memory_exits_2_naming_the_command(cycle_file, tmp_path, monkeypatch, capsys):
    def exhausted(graph):
        raise MemoryError

    monkeypatch.setattr(cli, "raw_census", exhausted)
    assert main(["census", str(cycle_file), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "error: out of memory in census\n"


def test_version_and_help():
    assert main(["--version"]) == 0
    assert main(["--help"]) == 0
    assert main(["census", "--help"]) == 0


def test_module_entry_point(cycle_file, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "digraphlets", "census", str(cycle_file),
         "--out", str(tmp_path / "m")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "m" / "signature.csv").exists()


@pytest.mark.parametrize("command", ["census", "prune", "randomize", "gcm"])
def test_cli_import_skips_scipy_stats_cluster_and_sparse(command, random_file, tmp_path):
    # neither the import nor a run of a command other than cluster loads these
    # scipy packages
    skipped = ["scipy.stats", "scipy.cluster", "scipy.sparse", "scipy.spatial"]
    path = random_file
    if command == "prune":
        w = np.random.default_rng(3).normal(size=(30, 30))
        np.fill_diagonal(w, 0.0)
        path = tmp_path / "w.csv"
        path.write_text("\n".join(",".join(map(repr, row)) for row in w.tolist()) + "\n")
    code = (
        "import sys\nfrom digraphlets import cli\n"
        "def loaded():\n    return sorted(m for m in sys.modules if any("
        f"m == s or m.startswith(s + '.') for s in {skipped!r}))\n"
        "print(loaded())\n"
        f"status = cli.main([{command!r}, {str(path)!r}, '--out', {str(tmp_path / 'o')!r}])\n"
        "print(status, loaded())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "0 []")


def test_bench_layers_are_cli_attributes(monkeypatch, tmp_path):
    # the traced bench swaps these names on digraphlets.cli by attribute
    path = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    assert [name for name in child.LAYERS if not hasattr(cli, name)] == []
    assert isinstance(dg.DirectedGraph.__dict__["from_arcs"], classmethod)
    # ...and reads the arc count off each loaded graph
    (tmp_path / "g.edgelist").write_text("a b\nb c\nc b\nd a\na c\nc a\n")
    g = dg.load_edge_list(tmp_path / "g.edgelist")
    assert (g.num_pure_arcs, g.num_recip_pairs) == (2, 2)
    want = {"arcs": g.num_pure_arcs + 2 * g.num_recip_pairs}
    assert child._counts("load_edge_list", (), g) == want
