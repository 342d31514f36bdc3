"""Edge-kind taxonomy for 2- and 3-node directed graphlets.

Every connected vertex pair carries one of three edge kinds relative to
an endpoint: '+' (outgoing arc), '-' (incoming arc), 'o' (reciprocal).
A wedge starting at vertex i through middle vertex h to far vertex j is
typed (alpha, beta): alpha is the i-h edge seen from i, beta is the h-j
edge seen from j.  A triangle starting at i is typed (alpha, beta,
gamma): alpha is the i-h edge seen from i, gamma the i-j edge seen from
i, beta the h-j edge seen from j.  This yields 9 wedge types and 27
triangle types, grouped into 6 and 7 isomorphism classes of the
underlying unlabelled 3-node digraphs.
"""

from __future__ import annotations

import itertools

import numpy as np

EDGE_KINDS = ("+", "-", "o")

# Canonical orderings; all count arrays use these column layouts.
WEDGE_TYPES = tuple(itertools.product(EDGE_KINDS, repeat=2))
TRIANGLE_TYPES = tuple(itertools.product(EDGE_KINDS, repeat=3))
WEDGE_INDEX = {t: k for k, t in enumerate(WEDGE_TYPES)}
TRIANGLE_INDEX = {t: k for k, t in enumerate(TRIANGLE_TYPES)}

# Swapping the viewpoint endpoint of an edge mirrors its kind:
# h in S_j(beta)  <=>  j in S_h(mirror(beta)).
MIRROR = {"+": "-", "-": "+", "o": "o"}

SIGNATURE_COLUMNS = (
    "d_out",
    "d_in",
    "d_recip",
    "w_path",
    "w_in",
    "w_out",
    "w_in_plus",
    "w_out_plus",
    "w_recip",
    "t_acyclic",
    "t_cycles",
    "t_out_plus",
    "t_cycles_plus",
    "t_in_plus",
    "t_cycles_2plus",
    "t_recip",
)

DEGREE_BLOCK = slice(0, 3)
WEDGE_BLOCK = slice(3, 9)
TRIANGLE_BLOCK = slice(9, 16)

# Wedge isomorphism classes.  "_plus" marks shapes with one reciprocal
# edge; w_path is the directed 2-path with the start at either end.
WEDGE_CLASS_MEMBERS: dict[str, tuple[tuple[str, str], ...]] = {
    "w_path": (("+", "-"), ("-", "+")),
    "w_in": (("+", "+"),),
    "w_out": (("-", "-"),),
    "w_in_plus": (("+", "o"), ("o", "+")),
    "w_out_plus": (("-", "o"), ("o", "-")),
    "w_recip": (("o", "o"),),
}

# Triangle isomorphism classes, from all-directed (acyclic, cycles)
# through one and two reciprocal edges to the all-reciprocal shape.
TRIANGLE_CLASS_MEMBERS: dict[str, tuple[tuple[str, str, str], ...]] = {
    "t_acyclic": (
        ("+", "-", "+"),
        ("+", "+", "-"),
        ("+", "+", "+"),
        ("-", "-", "-"),
        ("-", "-", "+"),
        ("-", "+", "-"),
    ),
    "t_cycles": (("+", "-", "-"), ("-", "+", "+")),
    "t_out_plus": (("+", "o", "+"), ("-", "-", "o"), ("o", "+", "-")),
    "t_cycles_plus": (
        ("+", "-", "o"),
        ("+", "o", "-"),
        ("-", "+", "o"),
        ("-", "o", "+"),
        ("o", "-", "-"),
        ("o", "+", "+"),
    ),
    "t_in_plus": (("+", "+", "o"), ("-", "o", "-"), ("o", "-", "+")),
    "t_cycles_2plus": (
        ("+", "o", "o"),
        ("-", "o", "o"),
        ("o", "-", "o"),
        ("o", "+", "o"),
        ("o", "o", "-"),
        ("o", "o", "+"),
    ),
    "t_recip": (("o", "o", "o"),),
}

RAW_COLUMNS = (
    tuple(f"d_{k}" for k in EDGE_KINDS)
    + tuple("w_" + "".join(t) for t in WEDGE_TYPES)
    + tuple("t_" + "".join(t) for t in TRIANGLE_TYPES)
)

# Signature class of each raw column, by name; degree kinds feed d_out, d_in, d_recip.
_CLASS_OF = dict(zip(RAW_COLUMNS[DEGREE_BLOCK], SIGNATURE_COLUMNS[DEGREE_BLOCK]))
_CLASS_OF.update(("w_" + "".join(t), c) for c, ts in WEDGE_CLASS_MEMBERS.items() for t in ts)
_CLASS_OF.update(("t_" + "".join(t), c) for c, ts in TRIANGLE_CLASS_MEMBERS.items() for t in ts)
#: (39, 16) 0/1: RAW_CLASSES[r, c] is 1 where raw column r (RAW_COLUMNS
#: order) sums into signature column c (SIGNATURE_COLUMNS order).
RAW_CLASSES = np.array(
    [[_CLASS_OF[r] == c for c in SIGNATURE_COLUMNS] for r in RAW_COLUMNS], dtype=np.int64)
#: Member-type count per signature column (degrees are single kinds).
CLASS_SIZES = RAW_CLASSES.sum(axis=0)

# Edge-kind slot counts for the 15 orbit families of 2- to 4-node
# directed graphlets (each slot ranges over the three kinds).
ORBIT_FAMILY_ARITIES = (1, 2, 2, 3, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 6)


def orbit_type_total() -> int:
    """Total number of typed orbits across all 15 families (1695)."""
    return sum(3**k for k in ORBIT_FAMILY_ARITIES)


def uniform_profile() -> np.ndarray:
    """Block-uniform normalized signature, the balanced-mode limit of
    direction-randomized graphs: 1/3 per degree, 1/6 per wedge class,
    1/7 per triangle class."""
    return np.array([1 / 3] * 3 + [1 / 6] * 6 + [1 / 7] * 7)
