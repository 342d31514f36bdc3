"""Correlation, cohort, and clustering analysis of signature matrices.

The graphlet correlation matrix (GCM) of one network is the 16 x 16
matrix of Pearson correlations between signature coordinates across
vertices.  Cohort statistics count, entrywise, how many of a list of
GCMs exceed a significance threshold.  Ward clustering groups vertices
by signature similarity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

# Largest condensed distance matrix (n(n-1)/2 float64) that ward_cluster
# lets linkage build: about 16,000 rows.  A run peaks at about twice the
# matrix (561 MB RSS at 8000 rows, whose distances take 256 MB), so the
# limit keeps one near 2.5 GB, well inside an 8 GB machine, where 5*10^4
# rows (10 GB of distances alone) would end in an out-of-memory kill.
WARD_BUDGET_BYTES = 1 << 30

# Default significance threshold on |r| for masks, cohorts and heatmaps.
DEFAULT_THETA = 0.7

__all__ = [
    "GraphletCorrelationMatrix",
    "CohortStats",
    "Dendrogram",
    "gcm",
    "significance_mask",
    "cohort_stats",
    "ward_cluster",
]


def _check_theta(theta: float) -> float:
    """``theta`` itself; InputError unless 0 < theta < 1."""
    if not 0 < theta < 1:
        raise InputError("theta must lie strictly between 0 and 1")
    return theta


@dataclass(eq=False)
class GraphletCorrelationMatrix:
    """Symmetric correlation matrix over signature columns.

    ``constant`` flags columns that were constant across vertices;
    their correlations are defined as 0 (the diagonal stays 1).
    """

    values: np.ndarray
    columns: tuple[str, ...]
    constant: np.ndarray
    method: str


@dataclass(eq=False)
class CohortStats:
    """Entrywise percentage of cohort members exceeding a threshold."""

    pos_pct: np.ndarray
    neg_pct: np.ndarray
    count: int
    theta: float
    columns: tuple[str, ...]


def _rank_columns(x: np.ndarray) -> np.ndarray:
    """Per-column 1-based ranks, tied values sharing their mean rank.

    Equal to ``scipy.stats.rankdata(x, axis=0)``, NaN columns included,
    without importing ``scipy.stats``.
    """
    n = len(x)
    order = np.argsort(x, axis=0, kind="stable")
    s = np.take_along_axis(x, order, axis=0)
    pos = np.arange(n)[:, None]
    new = np.ones(s.shape, dtype=bool)
    new[1:] = s[1:] != s[:-1]
    last = np.ones(s.shape, dtype=bool)
    last[:-1] = new[1:]
    first_pos = np.maximum.accumulate(np.where(new, pos, 0), axis=0)
    last_pos = np.minimum.accumulate(np.where(last, pos, n - 1)[::-1], axis=0)[::-1]
    ranks = np.empty(s.shape)
    np.put_along_axis(ranks, order, 0.5 * (first_pos + last_pos + 2), axis=0)
    ranks[:, np.isnan(x).any(axis=0)] = np.nan
    return ranks


def _pearson_columns(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise column Pearson r with constant columns defined as 0."""
    constant = (x == x[0]).all(axis=0)
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered
    var = np.diag(cov).copy()
    denom = np.sqrt(np.outer(var, var))
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.where(denom > 0, cov / denom, 0.0)
    r[constant, :] = 0.0
    r[:, constant] = 0.0
    r = np.clip((r + r.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(r, 1.0)
    return r, constant


def gcm(sig, method: str = "pearson") -> GraphletCorrelationMatrix:
    """Correlate all column pairs of a signature matrix.

    ``sig`` is any object with ``values`` (N x k array) and ``columns``;
    N >= 3 is required for a meaningful correlation.  ``method`` is
    'pearson' or 'spearman' (Pearson on average-tie ranks).
    """
    x = np.asarray(getattr(sig, "values", sig), dtype=np.float64)
    if x.ndim != 2 or len(x) < 3:
        raise InputError("correlation needs at least 3 signature rows")
    if method == "spearman":
        x = _rank_columns(x)
    elif method != "pearson":
        raise InputError(f"unknown correlation method {method!r}")
    r, constant = _pearson_columns(x)
    columns = getattr(sig, "columns", None)
    if columns is None:
        columns = tuple(f"c{k}" for k in range(x.shape[1]))
    return GraphletCorrelationMatrix(r, tuple(columns), constant, method)


def significance_mask(matrix, theta: float = DEFAULT_THETA) -> np.ndarray:
    """Mark entries with r > theta as +1 and r < -theta as -1.

    Inequalities are strict, so r equal to the threshold is not
    significant.  The diagonal is always 0.
    """
    _check_theta(theta)
    values = matrix.values if hasattr(matrix, "values") else np.asarray(matrix)
    mask = np.zeros(values.shape, dtype=np.int64)
    mask[values > theta] = 1
    mask[values < -theta] = -1
    np.fill_diagonal(mask, 0)
    return mask


def cohort_stats(gcms, theta: float = DEFAULT_THETA) -> CohortStats:
    """Entrywise percentages of GCMs beyond +/- theta across a cohort."""
    gcms = list(gcms)
    if not gcms:
        raise InputError("cohort_stats needs at least one matrix")
    _check_theta(theta)
    columns = tuple(gcms[0].columns)
    for g in gcms[1:]:
        if tuple(g.columns) != columns:
            raise InputError("cohort matrices have mismatched columns")
    stack = np.stack([np.asarray(g.values, dtype=np.float64) for g in gcms])
    pos = 100.0 * (stack > theta).mean(axis=0)
    neg = 100.0 * (stack < -theta).mean(axis=0)
    return CohortStats(pos, neg, len(gcms), theta, columns)


@dataclass(eq=False)
class Dendrogram:
    """Agglomerative merge tree in the usual linkage-matrix layout.

    Row s of ``merges`` is (id_a, id_b, height, size): clusters id_a and
    id_b (originals are 0..n-1, the cluster created at step s gets id
    n+s) joined at the given height into a cluster of the given size.
    """

    merges: np.ndarray
    labels: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.merges) + 1

    @property
    def heights(self) -> np.ndarray:
        return self.merges[:, 2]

    def leaf_order(self) -> list[int]:
        """Leaves by depth-first left-first traversal from the root."""
        from scipy.cluster.hierarchy import leaves_list

        return leaves_list(self.merges).tolist()

    def cut(self, k: int) -> np.ndarray:
        """Cluster assignment per vertex after the first n-k merges.

        Clusters are numbered 0..k-1 in order of their smallest member.
        """
        n = self.n
        if not 1 <= k <= n:
            raise InputError(f"cut needs 1 <= k <= {n}, got {k}")
        root = np.arange(2 * n - 1)
        ids = self.merges[:, :2].astype(np.int64)
        for s in range(n - k - 1, -1, -1):  # a cluster's parent is made later
            root[ids[s]] = root[n + s]
        _, first, inverse = np.unique(root[:n], return_index=True, return_inverse=True)
        return np.argsort(np.argsort(first))[inverse]

    def newick(self) -> str:
        """Newick text with branch lengths from merge heights; a label
        holding whitespace or one of ``()[]':;,`` is written as ``'...'``
        with each inner ``'`` doubled, any other label as it is."""
        n = self.n
        height = np.concatenate([np.zeros(n), self.merges[:, 2]])
        texts = list(map(_newick_label, self.labels))
        for s in range(n - 1):
            a, b = int(self.merges[s, 0]), int(self.merges[s, 1])
            h = self.merges[s, 2]
            la = f"{texts[a]}:{max(h - height[a], 0.0):.9g}"
            lb = f"{texts[b]}:{max(h - height[b], 0.0):.9g}"
            texts.append(f"({la},{lb})")
        return texts[-1] + ";"


def _newick_label(label: str) -> str:
    if any(c.isspace() or c in "()[]':;," for c in label):
        return "'" + label.replace("'", "''") + "'"
    return label


def ward_cluster(sig, standardize: bool = True) -> Dendrogram:
    """Agglomerate signature rows under Ward's minimum-variance linkage.

    Columns are z-scored first when ``standardize`` is set (constant
    columns are left at zero).  The tree is scipy's
    ``linkage(method="ward")``, computed by the nearest-neighbour chain
    in O(n^2) time: the ``ward.D2`` convention, so two singletons merge
    at exactly their Euclidean distance.  Tied distances break in the
    chain's order, which is deterministic for a given row order.
    """
    x = np.asarray(getattr(sig, "values", sig), dtype=np.float64)
    if x.ndim != 2 or len(x) < 2:
        raise InputError("clustering needs at least 2 signature rows")
    if not np.isfinite(x).all():
        raise InputError("clustering needs finite signature values")
    labels = getattr(sig, "labels", None)
    labels = tuple(labels) if labels else tuple(str(i) for i in range(len(x)))
    if len(labels) != len(x):
        raise InputError("label count does not match row count")
    need = 8 * len(x) * (len(x) - 1) // 2
    if need > WARD_BUDGET_BYTES:
        raise InputError(
            f"clustering {len(x)} rows needs {need} bytes of pairwise "
            f"distances, over the {WARD_BUDGET_BYTES}-byte limit"
        )
    if standardize:
        mean = x.mean(axis=0)
        std = x.std(axis=0)
        x = np.divide(x - mean, std, out=np.zeros_like(x), where=std > 0)
    # imported here: scipy.cluster pulls in scipy.spatial, which only `cluster` needs
    from scipy.cluster.hierarchy import linkage

    return Dendrogram(linkage(x, method="ward"), labels)
