"""Hypothesis sweeps of the fast readers, writers and counters against
their references, at far more examples than the test suite draws.

Run from the repository root (about 3 minutes on 2 vCPUs):

    PYTHONPATH=src python tests/reference_checks.py

Each row of ``SWEEPS`` names a test module's strategy and assertion
helper; the helpers are the ones its tier-1 properties use.  The name
is not ``test_*.py``, so pytest does not collect this script.
"""

import time

from hypothesis import given, settings

import test_census
import test_fileio
import test_graph
import test_pruning

SWEEPS = [
    # (what, strategy, check, examples)
    ("edge-list parser against its line-by-line reference",
     test_graph.edge_list_texts, test_graph.assert_parses_like_reference, 5000),
    ("pruning threshold against its dense reference",
     test_pruning.weight_matrices, test_pruning.assert_prunes_like_reference, 2000),
    ("census against its sparse-product reference",
     test_census.census_graphs, test_census.assert_census_like_reference, 2000),
    ("graph constructor against its set-based reference",
     test_graph.arc_lists, lambda case: test_graph.assert_builds_like_reference(*case), 2000),
    ("weight CSV reader against its per-row reference",
     test_pruning.weight_csv_texts, test_pruning.assert_weights_read_like_reference, 2000),
    ("signature CSV reader against its per-cell reference",
     test_fileio.signature_csv_texts, test_fileio.assert_signature_reads_like_reference, 2000),
    ("table writer against its cell-by-cell reference",
     test_fileio.tables, test_fileio.assert_table_writes_like_reference, 2000),
]


def main():
    for what, strategy, check, examples in SWEEPS:
        # Hypothesis rejects a test that returns a value, and the helpers do
        @settings(max_examples=examples, deadline=None)
        @given(strategy())
        def sweep(case):
            check(case)

        t0 = time.perf_counter()
        sweep()
        print(f"{what}, {examples} examples: {time.perf_counter() - t0:.1f} s", flush=True)


if __name__ == "__main__":
    main()
