"""Command-line front end.

Subcommands: census, gcm, cohort, randomize, prune, cluster, oracle.
Outputs land in --out (default: current directory) under fixed file
names so pipelines can chain commands.  Commands raise on failure and
``main`` alone picks the exit code: 0 success, 1 usage error, 2 unusable
input (an --out under a file, refused before any input is read, or an
input directory that cannot be listed counts as one), 3 internal error.
The cohort command fans out over DIGRAPHLETS_WORKERS processes (default
1); output bytes are identical for any worker count.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from pathlib import Path

# Only `cluster` uses scipy.linalg (scipy.cluster loads it through
# scipy.spatial). It loads here, as start-up cost, because perfbench times
# start-up apart from each command's run; see ROADMAP.md, open item 2.
import scipy.linalg  # noqa: F401

from . import __version__
from .analysis import (
    DEFAULT_THETA,
    _check_theta,
    cohort_stats,
    gcm,
    significance_mask,
    ward_cluster,
)
from .census import aggregate, normalize, raw_census
from .errors import InputError, InvariantError, UnprunableError, naming
from .fileio import (
    read_signature_csv,
    round9,
    table_json,
    write_json,
    write_table_csv,
    write_text,
)
from .graph import load_edge_list, randomize_directions, save_edge_list
from .heatmap import render_cohort_heatmap, render_correlation_heatmap
from .oracle import DEFAULT_MAX_N, oracle_census
from .pruning import load_weighted_csv, prune_weighted, skeleton_summary
from .taxonomy import RAW_COLUMNS, SIGNATURE_COLUMNS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

WORKERS_ENV = "DIGRAPHLETS_WORKERS"


def _theta(text: str) -> float:
    try:
        return _check_theta(float(text))
    except InputError as exc:  # an InputError is a ValueError too
        raise argparse.ArgumentTypeError(str(exc))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid theta {text!r}")


def _bounded_int(text: str, what: str, least: int, wording: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {what} {text!r}")
    if value < least:
        raise argparse.ArgumentTypeError(f"{what} must be {wording}")
    return value


def _seed(text: str) -> int:
    return _bounded_int(text, "seed", 0, "a non-negative integer")


def _cap(text: str) -> int:
    return _bounded_int(text, "cap", 1, "a positive integer")


def _workers() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(raw)
    except ValueError:
        raise InputError(f"{WORKERS_ENV} must be an integer, got {raw!r}")
    if workers < 1:
        raise InputError(f"{WORKERS_ENV} must be at least 1")
    return workers


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_table(path_base: Path, corner, columns, labels, values, fmt: str):
    if fmt == "json":
        path = path_base.with_suffix(".json")
        write_json(path, table_json(columns, labels, values))
    else:
        path = path_base.with_suffix(".csv")
        write_table_csv(path, corner, columns, labels, values)
    print(f"wrote {path}")


def cmd_census(args) -> None:
    g = load_edge_list(args.input)
    with naming(args.input):  # the oracle first: its vertex cap refuses a graph at load cost
        ref = oracle_census(g) if args.oracle_check else None
        raw = raw_census(g)
        agrees = ref is None or ref == raw
    if not agrees:
        raise InvariantError("census disagrees with brute-force recount")
    sig = aggregate(raw)
    out = _outdir(args)
    values = normalize(sig).values if args.normalized else sig.values
    _write_table(out / "signature.csv", "vertex", SIGNATURE_COLUMNS,
                 sig.labels, values, args.format)
    if args.raw:
        _write_table(out / "raw_census.csv", "vertex", RAW_COLUMNS,
                     raw.labels, raw.table, args.format)


def cmd_oracle(args) -> None:
    g = load_edge_list(args.input)
    with naming(args.input):
        ref = oracle_census(g, max_n=args.cap)
    out = _outdir(args)
    _write_table(out / "oracle_census.csv", "vertex", RAW_COLUMNS,
                 ref.labels, ref.table, args.format)


def _graph_gcm(path, normalized: bool, method: str):
    g = load_edge_list(path)
    with naming(path):
        sig = aggregate(raw_census(g))
        table = normalize(sig) if normalized else sig
        return gcm(table, method=method)


def cmd_gcm(args) -> None:
    matrix = _graph_gcm(args.input, args.normalized, args.method)
    mask = significance_mask(matrix, args.theta)
    out = _outdir(args)
    _write_table(out / "gcm.csv", "class", matrix.columns, matrix.columns,
                 matrix.values, args.format)
    _write_table(out / "gcm_mask.csv", "class", matrix.columns,
                 matrix.columns, mask, args.format)
    svg = out / "gcm_heatmap.svg"
    write_text(svg, render_correlation_heatmap(matrix, args.theta))
    print(f"wrote {svg}")


def cmd_cohort(args) -> None:
    root = Path(args.input)
    if not root.is_dir():
        raise InputError(f"{root} is not a directory")
    # hidden files (".DS_Store" and the like) are not cohort members
    paths = sorted(
        p for p in root.iterdir() if p.is_file() and not p.name.startswith(".")
    )
    if not paths:
        raise InputError(f"no input files in {root}")
    member_gcm = partial(_graph_gcm, normalized=args.normalized, method=args.method)
    # fork starts every worker up front, so never more than there are members
    workers = min(_workers(), len(paths))
    if workers == 1:
        matrices = list(map(member_gcm, paths))
    else:
        matrices = []
        # about 4 chunks per worker: fewer round trips, still balanced
        chunk = -(-len(paths) // (4 * workers))
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for matrix in pool.map(member_gcm, paths, chunksize=chunk):
                    matrices.append(matrix)
        except BrokenProcessPool as exc:
            raise InvariantError(
                "a cohort worker process died while the result for "
                f"{paths[len(matrices)]} was collected ({workers} workers)"
            ) from exc
    stats = cohort_stats(matrices, args.theta)
    out = _outdir(args)
    _write_table(out / "cohort_pos.csv", "class", stats.columns,
                 stats.columns, stats.pos_pct, args.format)
    _write_table(out / "cohort_neg.csv", "class", stats.columns,
                 stats.columns, stats.neg_pct, args.format)
    svg = out / "cohort_heatmap.svg"
    write_text(svg, render_cohort_heatmap(stats))
    meta = out / "cohort_meta.json"
    write_json(meta, {
        "count": stats.count,
        "theta": round9(stats.theta),
        "method": args.method,
        "normalized": bool(args.normalized),
        "files": [p.name for p in paths],
    })
    print(f"wrote {svg}")
    print(f"wrote {meta}")


def cmd_randomize(args) -> None:
    g = load_edge_list(args.input)
    shuffled = randomize_directions(g, seed=args.seed)
    out = _outdir(args)
    path = out / "randomized.edgelist"
    save_edge_list(shuffled, path)
    print(f"wrote {path}")


def cmd_prune(args) -> None:
    w = load_weighted_csv(args.input)
    with naming(args.input):
        pruned, threshold, largest = prune_weighted(w)
    out = _outdir(args)
    path = out / "pruned.edgelist"
    save_edge_list(pruned, path)
    summary = skeleton_summary(pruned, largest)
    meta = out / "prune_meta.json"
    write_json(meta, {
        "threshold": round9(threshold),
        "vertices": pruned.n,
        "arcs": pruned.num_pure_arcs + 2 * pruned.num_recip_pairs,
        "largest_component_fraction": round9(summary["largest_component_fraction"]),
        "min_total_degree": summary["min_total_degree"],
        "degree_floor": round9(summary["degree_floor"]),
    })
    print(f"wrote {path}")
    print(f"wrote {meta}")
    print(f"threshold {round9(threshold)}")


def cmd_cluster(args) -> None:
    table = read_signature_csv(args.input)
    with naming(args.input):
        tree = ward_cluster(table, standardize=args.standardize)
    out = _outdir(args)
    newick = out / "dendrogram.newick"
    write_text(newick, tree.newick() + "\n")
    order = out / "leaf_order.txt"
    write_text(order, "".join(
        table.labels[i] + "\n" for i in tree.leaf_order()))
    print(f"wrote {newick}")
    print(f"wrote {order}")


class _Parser(argparse.ArgumentParser):
    """argparse flavor whose usage failures exit 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="digraphlets",
        description="Directed graphlet signatures and correlation analysis",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, correlation=False, fmt=False):
        if correlation:
            p.add_argument("--normalized", action="store_true",
                           help="correlate normalized signatures")
            p.add_argument("--spearman", dest="method", action="store_const",
                           const="spearman", default="pearson",
                           help="rank correlation instead of Pearson")
            p.add_argument("--theta", type=_theta, default=DEFAULT_THETA,
                           help="significance threshold in (0, 1)")
        p.add_argument("--out", default=".", help="output directory")
        if fmt:
            p.add_argument("--format", choices=("csv", "json"), default="csv",
                           help="tabular output format")

    p = sub.add_parser("census", help="per-vertex signature vectors")
    p.add_argument("input", help="edge-list file")
    p.add_argument("--raw", action="store_true",
                   help="also write the 39-column raw census")
    p.add_argument("--normalized", action="store_true",
                   help="write blockwise-normalized signatures")
    p.add_argument("--oracle-check", action="store_true",
                   help="verify against the brute-force recount first")
    common(p, fmt=True)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("gcm", help="graphlet correlation matrix of one graph")
    p.add_argument("input", help="edge-list file")
    common(p, correlation=True, fmt=True)
    p.set_defaults(func=cmd_gcm)

    p = sub.add_parser("cohort", help="significance percentages over a directory")
    p.add_argument("input", help="directory of edge-list files")
    common(p, correlation=True, fmt=True)
    p.set_defaults(func=cmd_cohort)

    p = sub.add_parser("randomize", help="resample every edge direction")
    p.add_argument("input", help="edge-list file")
    p.add_argument("--seed", type=_seed, default=0)
    common(p)
    p.set_defaults(func=cmd_randomize)

    p = sub.add_parser("prune", help="threshold a weighted matrix into a graph")
    p.add_argument("input", help="weighted-matrix CSV")
    common(p)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("cluster", help="Ward-cluster a signature CSV")
    p.add_argument("input", help="signature CSV")
    p.add_argument("--standardize", action=argparse.BooleanOptionalAction,
                   default=True, help="z-score columns first")
    common(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("oracle", help="brute-force census for diffing")
    p.add_argument("input", help="edge-list file")
    p.add_argument("--cap", type=_cap, default=DEFAULT_MAX_N,
                   help="vertex-count cap for the cubic recount")
    common(p, fmt=True)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        out = Path(args.out)
        if not next(p for p in (out, *out.parents) if p.exists()).is_dir():
            raise InputError(f"--out {out} is not a directory and cannot be made one")
        args.func(args)
    except (InputError, UnprunableError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError:
        print(f"error: out of memory in {args.command}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
