"""Checks at the top scale, 5·10^4 vertices and about 10^6 arcs, where the
brute-force oracle (200 vertices at most) cannot serve, to be run under a
2 GB address-space cap.  Run from the repository root (under a minute on
2 vCPUs):

    (ulimit -v 2000000; PYTHONPATH=src python tests/scale_checks.py)

The graph is perfbench's ``gen.random_digraph`` with seed 0: 750 000
pairs, 1 000 329 arcs.  Each check is one function.  After each, the
script prints the check's wall time and this process's peak RSS so far
(``VmHWM``).  A check that runs the CLI in a fresh process also prints
that child's own ``VmHWM``; a child's ``ru_maxrss`` would start at this
process's peak.  Files go to a temporary directory, under
``$RUNNER_TEMP`` when it is set.  The name is not ``test_*.py``, so
pytest does not collect this script.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from conftest import validate_graph
from digraphlets import census
from digraphlets.analysis import WARD_BUDGET_BYTES
from digraphlets.cli import main
from digraphlets.fileio import round9, table_csv
from digraphlets.graph import (
    _read_blocks, _read_lines, load_edge_list, parse_edge_list, random_digraph)
from digraphlets.taxonomy import RAW_COLUMNS, SIGNATURE_COLUMNS
from test_analysis import caterpillar
from test_census import spgemm_census
from test_fileio import reference_table_csv
from test_graph import reference_text

sys.dont_write_bytecode = True  # leave perfbench/ as it is checked out
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

N, PAIRS = 50_000, 750_000

# digraphlets.cli.main in a fresh process, which then writes its own VmHWM
# (in kB) to the file named by its first argument
_CHILD = """\
import sys
from digraphlets.cli import main
try:
    status = main(sys.argv[2:])
finally:
    with open("/proc/self/status") as fh:
        peak = next(line for line in fh if line.startswith("VmHWM:")).split()[1]
    with open(sys.argv[1], "w") as fh:
        fh.write(peak)
sys.exit(status)
"""


def _peak_mb() -> float:
    with open("/proc/self/status") as fh:
        return int(next(line for line in fh if line.startswith("VmHWM:")).split()[1]) / 1024


def run_cli(work, what, argv, **env):
    """``argv`` through the CLI in a fresh process; prints its exit status,
    wall time and peak RSS."""
    peak = work / "child_peak"
    peak.unlink(missing_ok=True)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(peak), *argv],
        capture_output=True, text=True, env={**os.environ, **env},
    )
    rss = f"{int(peak.read_text()) / 1024:.0f} MB" if peak.exists() else "unknown"
    print(f"{what}: exit {proc.returncode} after {time.perf_counter() - t0:.1f} s, "
          f"peak RSS {rss}")
    return proc


def parse_declared(work):
    """The bulk reader against the line reader on the saved edge list."""
    text = (work / "g.edgelist").read_text()
    t0 = time.perf_counter()
    bulk = _read_blocks(text)
    t1 = time.perf_counter()
    lines = _read_lines(text.splitlines())
    print(f"parse: bulk {t1 - t0:.2f} s, line by line {time.perf_counter() - t1:.2f} s")
    assert bulk, "the bulk reader declined a saved edge list"
    assert list(bulk[0]) == list(lines[0]) and np.array_equal(bulk[1], lines[1])


def parse_undeclared(work, src, dst):
    """The arcs without declarations, whose values map through the value
    table by first appearance, and the same arcs with every label plus
    10**17, past the table's bound, which go through the label dict."""
    text = (work / "g.edgelist").read_text()
    bulk = _read_blocks(text)
    bare = text.split("\n", N)[-1]
    far = "".join(map("{} {}\n".format, (src + 10**17).tolist(), (dst + 10**17).tolist()))
    t2 = time.perf_counter()
    plain = _read_blocks(bare)
    t3 = time.perf_counter()
    shifted = _read_blocks(far)
    print(f"parse: bulk of decimal labels {t3 - t2:.2f} s undeclared, "
          f"{time.perf_counter() - t3:.2f} s undeclared plus 10**17")
    assert plain and isinstance(plain[0], list), "undeclared decimal labels missed the table"
    assert shifted and isinstance(shifted[0], dict), "labels past the bound took the table"
    # each arc end names the same label as in the declared read
    id_of = {label: i for i, label in enumerate(bulk[0])}
    index = np.fromiter(map(id_of.__getitem__, plain[0]), np.int64, len(plain[0]))
    assert np.array_equal(index[plain[1]], bulk[1])
    assert [str(int(label) - 10**17) for label in shifted[0]] == plain[0]
    assert np.array_equal(shifted[1], plain[1])


def parse_comma_separated(work):
    """The undeclared arcs comma-separated, outside the written form: the
    bulk reader declines them and the line reader gives the graph of the
    bulk read."""
    bare = (work / "g.edgelist").read_text().split("\n", N)[-1]
    comma = bare.replace(" ", ",")
    t2 = time.perf_counter()
    assert _read_blocks(comma) is False, "the bulk reader read a comma-separated edge list"
    t3 = time.perf_counter()
    by_line = parse_edge_list(comma)
    print(f"parse: comma-separated decimal labels {t3 - t2:.2f} s to decline, "
          f"{time.perf_counter() - t3:.2f} s line by line")
    assert by_line == parse_edge_list(bare)


def parse_v_prefixed(work, src, dst):
    """The same arcs with every label prefixed by v, which only the label
    dict maps, with their declarations and without them."""
    bulk = _read_blocks((work / "g.edgelist").read_text())
    arcs = "".join(map("v{} v{}\n".format, src.tolist(), dst.tolist()))
    text = "".join(f"# vertex: v{i}\n" for i in range(N)) + arcs
    t2 = time.perf_counter()
    named = _read_blocks(text)
    t3 = time.perf_counter()
    plain = _read_blocks(arcs)
    print(f"parse: bulk of v-prefixed labels {t3 - t2:.2f} s declared, "
          f"{time.perf_counter() - t3:.2f} s undeclared")
    assert named, "the bulk reader declined a v-prefixed edge list"
    assert list(named[0]) == [f"v{label}" for label in bulk[0]]
    assert np.array_equal(named[1], bulk[1])
    # undeclared, the vertices are numbered by first appearance: the same
    # labels in another order, and each arc end names the same label
    assert plain, "the bulk reader declined an undeclared v-prefixed edge list"
    assert plain[0].keys() == named[0].keys()
    index = np.fromiter(map(named[0].__getitem__, plain[0]), np.int64, len(plain[0]))
    assert np.array_equal(index[plain[1]], named[1])


def census_raw(work):
    """``census --raw``'s written table against the sparse-product census and
    the cell-by-cell writer, and the census with one filter slot."""
    t0 = time.perf_counter()
    assert main(["census", "--raw", str(work / "g.edgelist"), "--out", str(work)]) == 0
    print(f"census: {time.perf_counter() - t0:.1f} s")
    g = load_edge_list(work / "g.edgelist")
    ref = spgemm_census(g)
    got = (work / "raw_census.csv").read_text()
    assert got == reference_table_csv("vertex", RAW_COLUMNS, g.labels, ref.table)
    del got
    t0 = time.perf_counter()
    table_csv("vertex", RAW_COLUMNS, g.labels, ref.table)
    print(f"table_csv, {g.n} x {len(RAW_COLUMNS)}: {time.perf_counter() - t0:.2f} s")
    saved, census.FILTER = census.FILTER, 1  # every closing pair goes on to the binary search
    t0 = time.perf_counter()
    assert census.raw_census(g) == ref
    print(f"raw_census, one filter slot: {time.perf_counter() - t0:.1f} s")
    census.FILTER = saved


def randomize(work):
    """``randomize``'s written edge list against the line-by-line writer;
    the shuffle keeps the labels and the connected pairs."""
    t0 = time.perf_counter()
    argv = ["randomize", "--seed", "1", str(work / "g.edgelist"), "--out", str(work)]
    assert main(argv) == 0
    print(f"randomize: {time.perf_counter() - t0:.1f} s")
    g = load_edge_list(work / "g.edgelist")
    shuffled = load_edge_list(work / "randomized.edgelist")
    assert shuffled.labels == g.labels
    t0 = time.perf_counter()
    text = shuffled.to_edge_list_text()
    print(f"to_edge_list_text, {len(shuffled.arcs()[0])} arcs: {time.perf_counter() - t0:.2f} s")
    assert text == (work / "randomized.edgelist").read_text() == reference_text(shuffled)
    del text
    assert np.array_equal(shuffled.connected_pairs()[0], g.connected_pairs()[0])


def random_digraph_draw():
    """``random_digraph`` at the top scale: a valid graph whose pair count is
    within 5 sd of its mean."""
    p, pairs = 6e-4, N * (N - 1) // 2
    t0 = time.perf_counter()
    drawn = random_digraph(N, p, seed=0)
    print(f"random_digraph: {time.perf_counter() - t0:.2f} s")
    validate_graph(drawn)
    sd = (pairs * p * (1 - p)) ** 0.5
    print(f"{len(drawn.keys)} pairs, {(len(drawn.keys) - p * pairs) / sd:+.2f} sd")
    assert abs(len(drawn.keys) - p * pairs) < 5 * sd


def caterpillar_newick(work):
    """The Newick of a 16 000-leaf caterpillar tree, once a MemoryError."""
    # as deep as a tree gets: keeping every cluster's text would take O(k^2) characters
    k = 16_000
    t0 = time.perf_counter()
    text = caterpillar(k).newick()
    (work / "caterpillar.newick").write_text(text + "\n")
    print(f"caterpillar Newick, {k} leaves: {time.perf_counter() - t0:.2f} s, {len(text)} characters")


def prune(work, k):
    """``prune`` of k regions: exit 0, empty stderr, its summary against
    scipy's components, its arcs against w > threshold, its threshold
    maximal."""
    w = np.random.default_rng(0).integers(0, 1000, (k, k))
    np.fill_diagonal(w, 0)
    np.savetxt(work / "w.csv", w, fmt="%d", delimiter=",")
    del w
    proc = run_cli(work, f"prune, {k} regions", ["prune", str(work / "w.csv"), "--out", str(work)])
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    print(proc.stdout, end="")
    # prune_meta.json against scipy's components of the written graph
    pruned = load_edge_list(work / "pruned.edgelist")
    lo, hi = pruned.connected_pairs()[0].T
    skel = csr_array((np.ones(len(lo), dtype=np.int8), (lo, hi)), shape=(k, k))
    _, labels = connected_components(skel, directed=False)
    fraction = np.bincount(labels).max() / k
    meta = json.loads((work / "prune_meta.json").read_text())
    assert meta["largest_component_fraction"] == round9(fraction), meta
    assert meta["min_total_degree"] == np.bincount(np.r_[lo, hi], minlength=k).min(), meta
    assert meta["arcs"] == len(pruned.arcs()[0]), meta
    print(f"largest component fraction {round9(fraction)}")
    # the kept arcs are exactly w > threshold off the diagonal (integer weights)
    w = np.random.default_rng(0).integers(0, 1000, (k, k))
    np.fill_diagonal(w, 0)
    kept = w > meta["threshold"]
    src, dst = pruned.arcs()
    assert np.array_equal(src, np.nonzero(kept)[0]) and np.array_equal(dst, np.nonzero(kept)[1])
    # the threshold is maximal: above the next distinct weight, 99% of the
    # vertices share no component or some total degree is below ceil(2 ln k)
    above = w[kept].min()
    skel = (w > above) | (w.T > above)
    del w, kept
    _, labels = connected_components(csr_array(skel), directed=False)
    largest, least = np.bincount(labels).max(), skel.sum(axis=1).min()
    print(f"above the next weight {above}: largest component {largest}, least degree {least}")
    assert largest < math.ceil(0.99 * k) or least < math.ceil(2 * math.log(k))


def cluster(work, k):
    """``cluster`` of k signature rows, which it reads row by row: 8000 rows
    exit 0, and 16 385, the first size over the Ward budget, exit 2."""
    labels = [f"v{i}" for i in range(k)]
    values = np.random.default_rng(k).random((k, len(SIGNATURE_COLUMNS)))
    (work / "s.csv").write_text(table_csv("vertex", SIGNATURE_COLUMNS, labels, values))
    del values
    out = work / f"cluster{k}"
    proc = run_cli(work, f"cluster, {k} rows", ["cluster", str(work / "s.csv"), "--out", str(out)])
    if k == 8000:
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert sorted((out / "leaf_order.txt").read_text().split()) == sorted(labels)
    else:  # refused before the distances are allocated, and nothing written
        need = 8 * k * (k - 1) // 2
        assert need > WARD_BUDGET_BYTES
        assert proc.returncode == 2 and proc.stderr == (
            f"error: {work / 's.csv'}: clustering {k} rows needs {need} bytes of pairwise "
            f"distances, over the {WARD_BUDGET_BYTES}-byte limit\n"), proc.stderr
        assert not out.exists()


def cohort(work):
    """``cohort`` over 4 copies of the graph: exit 0 at 1 worker and at 2,
    with byte-identical outputs.  At 2 workers the printed peak RSS is the
    parent's alone, not its pool workers'."""
    members = work / "members"
    members.mkdir()
    for i in range(4):
        shutil.copyfile(work / "g.edgelist", members / f"g{i}.edgelist")
    outputs = []
    for workers in ("1", "2"):
        out = work / f"cohort{workers}"
        proc = run_cli(work, f"cohort, 4 members, {workers} worker(s)",
                       ["cohort", str(members), "--out", str(out)], DIGRAPHLETS_WORKERS=workers)
        assert proc.returncode == 0, proc.stderr
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outputs[0] == outputs[1], "cohort outputs differ between 1 and 2 workers"


def gcm(work):
    """``gcm`` of the graph: exit 0."""
    proc = run_cli(work, "gcm", ["gcm", str(work / "g.edgelist"), "--out", str(work / "gcm")])
    assert proc.returncode == 0, proc.stderr


def oracle_check(work):
    """``census --oracle-check`` refuses the graph: the oracle stops at 200
    vertices.  This awaits a recount of chosen rows above the cap
    (ROADMAP.md), after which it should exit 0."""
    out = work / "oracle"
    path = work / "g.edgelist"
    proc = run_cli(work, "census --oracle-check",
                   ["census", "--oracle-check", str(path), "--out", str(out)])
    assert proc.returncode == 2 and proc.stderr == (
        f"error: {path}: oracle capped at 200 vertices, got {N}\n"), proc.stderr
    assert not out.exists()


def timed(check, *args):
    t0 = time.perf_counter()
    check(*args)
    print(f"-- {check.__name__}: {time.perf_counter() - t0:.1f} s, "
          f"peak RSS so far {_peak_mb():.0f} MB", flush=True)


def run():
    with tempfile.TemporaryDirectory(dir=os.environ.get("RUNNER_TEMP")) as tmp:
        work = Path(tmp)
        src, dst = gen.arcs_of(*gen.random_digraph(np.random.default_rng(0), N, PAIRS))
        print(f"{N} vertices, {PAIRS} pairs, {len(src)} arcs")
        (work / "g.edgelist").write_text(gen.edge_list_text(N, src, dst))
        timed(parse_declared, work)
        timed(parse_undeclared, work, src, dst)
        timed(parse_comma_separated, work)
        timed(parse_v_prefixed, work, src, dst)
        timed(census_raw, work)
        timed(randomize, work)
        timed(random_digraph_draw)
        timed(caterpillar_newick, work)
        for k in (5000, 7000):  # 7000 regions once ran out of memory under the cap
            timed(prune, work, k)
        for k in (8000, 16_385):
            timed(cluster, work, k)
        timed(cohort, work)
        timed(gcm, work)
        timed(oracle_check, work)


if __name__ == "__main__":
    run()
