"""Output checks that hold for any seed, written with numpy and scipy only.

Each check returns a list of failure reasons (empty when the output is
right).  Expected values come from the generator's own arrays and from
independent skeleton arithmetic, never from the digraphlets package.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.cluster.hierarchy import linkage
from scipy.sparse import csgraph

# Tolerance for heights read back from the Newick text.  The CLI writes
# branch lengths with 9 significant digits, a relative rounding of up
# to 5e-9, so the text cannot resolve 1e-9; the full-precision heights
# of the traced run are held to WARD_RTOL.
WARD_RTOL = 1e-9
WARD_TEXT_RTOL = 1e-8


def sha256_tree(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def guarded(check, *args) -> list[str]:
    """Run a check; a missing or unreadable output is a failure too."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{check.__name__}: {type(exc).__name__}: {exc}"]


def nine(x: float) -> float:
    """A number as the CLI's 9-significant-digit text reads back."""
    return float(f"{x:.9g}")


# -- readers ----------------------------------------------------------------

def read_table(path: Path):
    """(header, row labels, float values) of a CSV table."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError(f"{path.name}: ragged rows")
    values = np.array([r[1:] for r in rows], dtype=np.float64)
    return header, [r[0] for r in rows], values.reshape(len(rows), len(header) - 1)


def read_edge_list(path: Path):
    """(declared labels, src, dst) of an edge-list file in the CLI's own
    output format: every vertex declared, then one arc per line."""
    labels, arcs = [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# vertex: "):
            labels.append(line[10:])
        else:
            arcs.append(line)
    index = {lab: i for i, lab in enumerate(labels)}
    tokens = " ".join(arcs).split()
    if len(tokens) != 2 * len(arcs):
        raise ValueError(f"{path.name}: arc line without two tokens")
    ids = np.fromiter((index[t] for t in tokens), dtype=np.int64, count=len(tokens))
    return labels, ids[0::2], ids[1::2]


# -- graph facts ------------------------------------------------------------

class Skeleton:
    """Degrees and skeleton counts of a generated digraph (n, lo, hi,
    codes), computed once per run and shared by every repetition."""

    def __init__(self, n, lo, hi, codes):
        self.n, self.lo, self.hi, self.codes = n, lo, hi, codes
        c0, c1, c2 = codes == 0, codes == 1, codes == 2

        def count(*parts):
            return sum(np.bincount(p, minlength=n) for p in parts)

        self.degrees = np.column_stack([
            count(lo[c0], hi[c1]), count(hi[c0], lo[c1]), count(lo[c2], hi[c2]),
        ])
        self.arcs = int(c0.sum() + c1.sum() + 2 * c2.sum())
        deg = self.degrees.sum(axis=1)
        ones = np.ones(len(lo), dtype=np.int64)
        upper = sparse.csr_matrix((ones, (lo, hi)), shape=(n, n))
        sym = (upper + upper.T).tocsr()
        # Wedge plus triangle columns of vertex i add up to the number of
        # 2-paths i-h-j with j != i: sum over neighbours h of (d_h - 1).
        self.paths = sym @ (deg - 1)
        # Each skeleton triangle i<j<k is one entry of (U @ U) .* U; rows
        # go in blocks to bound the product's memory.
        self.triangles = 0
        for r0 in range(0, n, 2000):
            block = upper[r0:r0 + 2000]
            self.triangles += int((block @ upper).multiply(block).sum())


def check_census_tables(sk: Skeleton, sig_path: Path, raw_path: Path | None = None):
    """Census outputs against the skeleton: per-vertex degrees, per-vertex
    wedge+triangle totals, and sum of triangle columns = 6 x triangles."""
    errors = []
    labels_ok = [str(i) for i in range(sk.n)]
    header, labels, sig = read_table(sig_path)
    kinds = [c[:2] for c in header[1:]]
    if kinds != ["d_"] * 3 + ["w_"] * 6 + ["t_"] * 7:
        return [f"signature header {header}"]
    if labels != labels_ok:
        errors.append("signature row labels")
    if not np.array_equal(sig, np.rint(sig)) or (sig < 0).any():
        errors.append("signature counts not non-negative integers")
    sig = np.rint(sig).astype(np.int64)
    if not np.array_equal(sig[:, :3], sk.degrees):
        errors.append("signature degrees")
    if not np.array_equal(sig[:, 3:].sum(axis=1), sk.paths):
        errors.append("signature wedge+triangle totals")
    if sig[:, 9:].sum() != 6 * sk.triangles:
        errors.append("signature triangle sum != 6 x skeleton triangles")
    if raw_path is None:
        return errors
    header, labels, raw = read_table(raw_path)
    kinds = [c[:2] for c in header[1:]]
    if kinds != ["d_"] * 3 + ["w_"] * 9 + ["t_"] * 27:
        return errors + [f"raw header {header[:5]}..."]
    if labels != labels_ok:
        errors.append("raw row labels")
    if not np.array_equal(raw, np.rint(raw)) or (raw < 0).any():
        errors.append("raw counts not non-negative integers")
    raw = np.rint(raw).astype(np.int64)
    if raw[:, 0].sum() + raw[:, 2].sum() != sk.arcs:
        errors.append("raw out + reciprocal degree sum != arcs")
    if not np.array_equal(raw[:, :3], sk.degrees):
        errors.append("raw degrees")
    if not np.array_equal(raw[:, 3:].sum(axis=1), sk.paths):
        errors.append("raw wedge+triangle totals")
    if raw[:, 12:].sum() != 6 * sk.triangles:
        errors.append("raw triangle sum != 6 x skeleton triangles")
    if not (np.array_equal(raw[:, 3:12].sum(axis=1), sig[:, 3:9].sum(axis=1))
            and np.array_equal(raw[:, 12:].sum(axis=1), sig[:, 9:].sum(axis=1))):
        errors.append("signature disagrees with raw census")
    return errors


def check_randomized(sk: Skeleton, path: Path):
    """Same labels and skeleton as the input; each relation's share of
    the pairs, and the share of pairs that kept their input relation,
    within 5 sigma of 1/3."""
    labels, src, dst = read_edge_list(path)
    if labels != [str(i) for i in range(sk.n)]:
        return ["randomized labels"]
    n = sk.n
    if (src == dst).any():
        return ["randomized self-loop"]
    arc_keys = np.sort(src * n + dst)
    if (np.diff(arc_keys) == 0).any():
        return ["randomized duplicate arc"]
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    keys = lo * n + hi
    pair_keys, first, per_pair = np.unique(keys, return_index=True, return_counts=True)
    if not np.array_equal(pair_keys, sk.lo * n + sk.hi):
        return ["randomized skeleton differs from input"]
    # Both pair lists are sorted by (lo, hi), so codes align with sk.codes.
    codes = np.where(per_pair == 2, 2, np.where(src[first] < dst[first], 0, 1))
    m = len(codes)
    sigma = math.sqrt(m * (1 / 3) * (2 / 3))
    errors = []
    shares = np.bincount(codes, minlength=3)
    if (np.abs(shares - m / 3) > 5 * sigma).any():
        errors.append(f"relation counts {shares.tolist()} of {m} pairs beyond 5 sigma")
    kept = int((codes == sk.codes).sum())
    if kept == m or abs(kept - m / 3) > 5 * sigma:
        errors.append(f"{kept} of {m} pairs kept their input relation, "
                      f"not 1/3 within 5 sigma")
    return errors


# -- pruning and cohort -----------------------------------------------------

def _components_ok(skeleton: np.ndarray, floor: float, connectivity: float):
    deg = skeleton.sum(axis=1)
    _, comp = csgraph.connected_components(sparse.csr_matrix(skeleton), directed=False)
    largest = int(np.bincount(comp).max())
    return deg.min() >= floor and largest >= connectivity * len(skeleton), deg, largest


def check_pruned(weights: np.ndarray, labels, out: Path, edges: Path):
    """Threshold, degree-floor and connectivity properties of one prune.

    The kept arcs must be exactly those above some threshold t, t must
    meet both criteria, and the next larger threshold must break one.
    """
    n = len(weights)
    strength = np.abs(weights)
    off = ~np.eye(n, dtype=bool)
    got_labels, src, dst = read_edge_list(edges)
    if got_labels != list(labels):
        return ["pruned labels"]
    kept = np.zeros((n, n), dtype=bool)
    kept[src, dst] = True
    if kept.sum() != len(src) or kept[~off].any():
        return ["pruned arcs repeat or loop"]
    dropped = strength[off & ~kept]
    t = int(dropped.max()) if len(dropped) else 0
    if len(src) and strength[kept].min() <= t:
        return ["pruned arcs are not a threshold set"]
    floor = 2.0 * math.log(n)
    ok, deg, largest = _components_ok(kept | kept.T, floor, 0.99)
    if not ok:
        return ["pruned graph breaks the degree floor or connectivity"]
    if len(src):
        above = strength > strength[kept].min()
        if _components_ok(above | above.T, floor, 0.99)[0]:
            return ["threshold is not maximal"]
    meta = json.loads((out / "prune_meta.json").read_text(encoding="utf-8"))
    want = {
        "threshold": nine(t / 1e6),
        "vertices": n,
        "arcs": int(kept.sum()),
        "largest_component_fraction": nine(largest / n),
        "min_total_degree": int(deg.min()),
        "degree_floor": nine(floor),
    }
    return [] if meta == want else [f"prune_meta {meta} != {want}"]


def check_cohort(out: Path, files: list[str], theta: float = 0.7):
    """Percentages in [0, 100], whole multiples of 100/count, symmetric,
    pos + neg <= 100, diagonal 100 / 0; metadata matches the inputs."""
    meta = json.loads((out / "cohort_meta.json").read_text(encoding="utf-8"))
    count = len(files)
    errors = []
    if meta != {"count": count, "theta": theta, "method": "pearson",
                "normalized": True, "files": files}:
        errors.append("cohort_meta")
    pos = read_table(out / "cohort_pos.csv")[2]
    neg = read_table(out / "cohort_neg.csv")[2]
    for name, pct in (("pos", pos), ("neg", neg)):
        members = pct * count / 100.0
        if pct.shape != (16, 16) or (pct < 0).any() or (pct > 100).any():
            errors.append(f"cohort_{name} range")
        elif np.abs(members - np.rint(members)).max() > 1e-6:
            errors.append(f"cohort_{name} not a member count")
        elif not np.array_equal(pct, pct.T):
            errors.append(f"cohort_{name} not symmetric")
    if not errors:
        if (pos + neg > 100 + 1e-6).any():
            errors.append("cohort pos + neg > 100")
        if not ((np.diag(pos) == 100).all() and (np.diag(neg) == 0).all()):
            errors.append("cohort diagonal")
    svg = (out / "cohort_heatmap.svg").read_text(encoding="utf-8")
    if "<svg" not in svg or not svg.rstrip().endswith("</svg>"):
        errors.append("cohort heatmap")
    return errors


# -- clustering -------------------------------------------------------------

def _parse_newick(text: str):
    """(leaf order, merge heights) of a Newick tree with branch lengths;
    a node's height is its taller child's height plus branch length."""
    leaves, heights = [], []
    stack = [[]]  # per open node: height + branch length of each child
    for token in re.findall(r"\(|\)[^,()]*|[^,()]+", text.strip().rstrip(";")):
        if token == "(":
            stack.append([])
            continue
        name, _, length = token.partition(":")
        if name == ")":
            height = max(stack.pop())
            heights.append(height)
        else:
            leaves.append(name)
            height = 0.0
        stack[-1].append(height + float(length or 0.0))
    return leaves, np.array(heights)


def _same_heights(got, want: np.ndarray, rtol: float) -> bool:
    got = np.sort(np.asarray(got))
    return len(got) == len(want) and np.allclose(got, want, rtol=rtol, atol=0)


def ward_reference(values: np.ndarray) -> np.ndarray:
    """Sorted Ward merge heights of z-scored rows, by scipy."""
    mean, std = values.mean(axis=0), values.std(axis=0)
    z = np.divide(values - mean, std, out=np.zeros_like(values), where=std > 0)
    return np.sort(linkage(z, method="ward")[:, 2])


def check_cluster(sig_path: Path, out: Path):
    _, labels, values = read_table(sig_path)
    leaves, heights = _parse_newick((out / "dendrogram.newick").read_text(encoding="utf-8"))
    order = (out / "leaf_order.txt").read_text(encoding="utf-8").splitlines()
    errors = []
    if sorted(leaves) != sorted(labels) or order != leaves:
        errors.append("dendrogram leaves")
    if not _same_heights(heights, ward_reference(values), WARD_TEXT_RTOL):
        errors.append("Ward heights differ from scipy linkage")
    return errors


def check_ward_heights(sig_path: Path, traced: list[list[float]]):
    """Full-precision heights from the traced run, to WARD_RTOL."""
    want = ward_reference(read_table(sig_path)[2])
    if all(_same_heights(heights, want, WARD_RTOL) for heights in traced):
        return []
    return ["traced Ward heights differ from scipy linkage"]
