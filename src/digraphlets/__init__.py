"""Directed graphlet signatures and correlation analysis.

Counts 2- and 3-node directed graphlets (with reciprocal edges as a
third edge kind) starting at every vertex, aggregates them into
16-class signature vectors, and analyzes the signatures via graphlet
correlation matrices, cohort significance percentages, direction
randomization null models, weighted-matrix pruning, and Ward
clustering.  A brute-force triple-enumeration oracle verifies the fast
census.
"""

from .analysis import (
    CohortStats,
    Dendrogram,
    GraphletCorrelationMatrix,
    cohort_stats,
    gcm,
    significance_mask,
    ward_cluster,
)
from .census import (
    RawCensus,
    SignatureMatrix,
    aggregate,
    normalize,
    raw_census,
    signature_matrix,
)
from .errors import InputError, InvariantError, UnprunableError
from .graph import (
    DirectedGraph,
    load_edge_list,
    parse_edge_list,
    random_digraph,
    randomize_directions,
    save_edge_list,
)
from .heatmap import render_cohort_heatmap, render_correlation_heatmap
from .oracle import oracle_census
from .pruning import (
    WeightedMatrix,
    load_weighted_csv,
    parse_weighted_csv,
    prune_weighted,
    weighted_matrix,
)
from .taxonomy import (
    EDGE_KINDS,
    SIGNATURE_COLUMNS,
    TRIANGLE_TYPES,
    WEDGE_TYPES,
    orbit_type_total,
    uniform_profile,
)

__version__ = "0.1.0"

__all__ = [
    "CohortStats",
    "Dendrogram",
    "DirectedGraph",
    "EDGE_KINDS",
    "GraphletCorrelationMatrix",
    "InputError",
    "InvariantError",
    "RawCensus",
    "SIGNATURE_COLUMNS",
    "SignatureMatrix",
    "TRIANGLE_TYPES",
    "UnprunableError",
    "WEDGE_TYPES",
    "WeightedMatrix",
    "aggregate",
    "cohort_stats",
    "gcm",
    "load_edge_list",
    "load_weighted_csv",
    "normalize",
    "oracle_census",
    "orbit_type_total",
    "parse_edge_list",
    "parse_weighted_csv",
    "prune_weighted",
    "random_digraph",
    "randomize_directions",
    "raw_census",
    "render_cohort_heatmap",
    "render_correlation_heatmap",
    "save_edge_list",
    "signature_matrix",
    "significance_mask",
    "uniform_profile",
    "ward_cluster",
    "weighted_matrix",
]
