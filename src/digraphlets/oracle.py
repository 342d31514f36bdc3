"""Brute-force reference census by explicit triple enumeration.

Verification-only: visits every unordered vertex triple, classifies the
induced subgraph directly from the pairwise relations, and accumulates
the same 39 per-vertex quantities as the fast census.  O(n^3), capped.

This module deliberately shares no counting logic with the fast
implementation: relations come from the connected-pair list, wedge and
triangle types are indexed here as 3*alpha + beta and 9*alpha +
3*beta + gamma over the kinds seen from each vertex, triangles and
wedges are tallied by walking ordered assignments one at a time, and
the wedge totals L are recovered from W plus the triangle closures
rather than computed directly.  The only shared piece is the RawCensus
container, so results compare with ==.
"""

from __future__ import annotations

import itertools

import numpy as np

from .census import RawCensus
from .errors import InputError
from .graph import DirectedGraph

# relation codes seen from the lower-indexed vertex: 0 lo->hi, 1 hi->lo,
# 2 reciprocal; kind ints: 0 '+', 1 '-', 2 'o'
_KIND_FROM_LO = (0, 1, 2)
_KIND_FROM_HI = (1, 0, 2)

# Largest vertex count the cubic recount accepts by default.
DEFAULT_MAX_N = 200


def oracle_census(g: DirectedGraph, max_n: int = DEFAULT_MAX_N) -> RawCensus:
    """Recount all raw quantities by visiting every vertex triple."""
    n = g.n
    if n > max_n:
        raise InputError(f"oracle capped at {max_n} vertices, got {n}")
    rel: list[dict[int, int]] = [dict() for _ in range(n)]
    pairs, codes = g.connected_pairs()
    for (lo, hi), code in zip(pairs.tolist(), codes.tolist()):
        rel[lo][hi] = _KIND_FROM_LO[code]
        rel[hi][lo] = _KIND_FROM_HI[code]
    degrees = np.zeros((n, 3), dtype=np.int64)
    for i in range(n):
        for kind in rel[i].values():
            degrees[i, kind] += 1
    wedges = [[0] * 9 for _ in range(n)]
    triangles = [[0] * 27 for _ in range(n)]
    for x in range(2, n):
        rx = rel[x]
        for h in range(1, x):
            rh = rel[h]
            xh = rx.get(h)
            for j in range(h):
                xj = rx.get(j)
                hj = rh.get(j)
                present = (xh is not None) + (xj is not None) + (hj is not None)
                if present == 3:
                    for a, b, c in itertools.permutations((x, h, j)):
                        # ordered assignment: a starts, walks a-b then b-c
                        alpha = rel[a][b]
                        beta = rel[c][b]
                        gamma = rel[a][c]
                        triangles[a][9 * alpha + 3 * beta + gamma] += 1
                elif present == 2:
                    if xh is None:
                        mid, e1, e2 = j, x, h
                    elif xj is None:
                        mid, e1, e2 = h, x, j
                    else:
                        mid, e1, e2 = x, h, j
                    wedges[e1][3 * rel[e1][mid] + rel[e2][mid]] += 1
                    wedges[e2][3 * rel[e2][mid] + rel[e1][mid]] += 1
    wedges = np.array(wedges, dtype=np.int64).reshape(n, 9)
    triangles = np.array(triangles, dtype=np.int64).reshape(n, 27)
    totals = wedges + triangles.reshape(n, 9, 3).sum(axis=2)
    return RawCensus(g.labels, degrees, totals, wedges, triangles)
