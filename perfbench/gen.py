"""Seeded benchmark inputs, made with numpy alone.

Nothing here imports the digraphlets package, so for a fixed seed the
input files are byte-identical whatever the package source is, and a
change to the package's own random generators cannot move the inputs.
"""

from __future__ import annotations

import numpy as np

WEIGHT_SCALE = 10**6  # weights are written with 6 decimals


def skeleton_pairs(rng: np.random.Generator, n: int, m: int):
    """m distinct unordered pairs (lo < hi) drawn uniformly, sorted."""
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < m:
        k = int((m - len(keys)) * 1.1) + 16
        ij = rng.integers(0, n, size=(k, 2), dtype=np.int64)
        ij = ij[ij[:, 0] != ij[:, 1]]
        keys = np.sort(np.concatenate([keys, ij.min(axis=1) * n + ij.max(axis=1)]))
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    keys = np.sort(rng.choice(keys, size=m, replace=False))
    return keys // n, keys % n


def random_digraph(rng: np.random.Generator, n: int, m: int):
    """Skeleton of m uniform pairs; each pair is lo->hi, hi->lo or
    reciprocal with probability 1/3.  Returns (lo, hi, codes) with codes
    0, 1, 2 in that order."""
    lo, hi = skeleton_pairs(rng, n, m)
    codes = rng.integers(0, 3, size=m)
    return lo, hi, codes


def arcs_of(lo, hi, codes):
    """Arcs (src, dst) of a pair/code list, sorted by (src, dst)."""
    src = np.concatenate([lo[codes != 1], hi[codes != 0]])
    dst = np.concatenate([hi[codes != 1], lo[codes != 0]])
    order = np.lexsort((dst, src))
    return src[order], dst[order]


def edge_list_text(n: int, src, dst) -> str:
    """Edge-list text with every vertex declared, labels 0..n-1."""
    head = "".join(f"# vertex: {i}\n" for i in range(n))
    return head + "".join(map("{} {}\n".format, src.tolist(), dst.tolist()))


def cohort_weights(rng: np.random.Generator, subjects: int, n: int):
    """Integer weight matrices (units of 1e-6) sharing a common part, so
    that the subjects' correlation matrices agree in places."""
    base = rng.standard_normal((n, n))
    for _ in range(subjects):
        w = np.rint((base + rng.standard_normal((n, n))) * WEIGHT_SCALE)
        w = w.astype(np.int64)
        np.fill_diagonal(w, 0)
        yield w


def region_labels(n: int) -> list[str]:
    return [f"R{i:03d}" for i in range(n)]


def weighted_csv_text(w: np.ndarray, labels) -> str:
    """CSV with a label row and column; cell k is written as k / 1e6."""
    lines = ["region," + ",".join(labels)]
    scaled = (w / WEIGHT_SCALE).tolist()
    for lab, row in zip(labels, scaled):
        lines.append(lab + "," + ",".join(map("{:.6f}".format, row)))
    return "\n".join(lines) + "\n"
