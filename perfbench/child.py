"""One fresh run process: import the CLI, then run a plan of CLI calls.

Usage: python child.py PLAN.json

The plan names the output file for the result and holds a list of
sequences; each sequence is a list of steps, and a step is one
``digraphlets.cli.main(argv)`` call with its environment, optionally
followed by a file move (pipeline glue).  Only the standard library is
imported before the set-up timer starts, so ``setup_s`` is exactly the
import of ``digraphlets.cli`` plus ``build_parser()``, which every CLI
invocation pays.

A sequence with ``"trace": true`` runs with spans recorded around the
functions that ``digraphlets.cli`` binds and around
``DirectedGraph.from_arcs``; the wrappers live here, never in the
package.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

# CLI name -> layer.  Every public function digraphlets.cli calls on the
# benchmark's workloads, grouped by the module that defines it.
LAYERS = {
    "load_edge_list": "graph.load",
    "randomize_directions": "graph.randomize",
    "save_edge_list": "graph.save",
    "raw_census": "census.raw",
    "aggregate": "census.aggregate",
    "normalize": "census.normalize",
    "gcm": "analysis.gcm",
    "cohort_stats": "analysis.cohort_stats",
    "ward_cluster": "analysis.ward",
    "load_weighted_csv": "pruning.load",
    "prune_weighted": "pruning.prune",
    "skeleton_summary": "pruning.summary",
    "render_cohort_heatmap": "heatmap.render",
    "render_correlation_heatmap": "heatmap.render",
    "write_json": "fileio.write",
    "write_table_csv": "fileio.write",
    "write_text": "fileio.write",
    "table_json": "fileio.write",
    "read_signature_csv": "fileio.read",
}


def _counts(name, args, result) -> dict:
    """Size counters read at the layer boundary."""
    if name == "load_edge_list":
        return {"arcs": len(result.out_idx) + len(result.rec_idx)}
    if name == "raw_census":
        return {"paths": int(result.wedge_totals.sum()),
                "triangles_raw": int(result.triangles.sum())}
    if name == "ward_cluster":
        return {"rows": len(result.merges) + 1}
    if name == "load_weighted_csv":
        return {"cells": result.n * result.n}
    if name == "cohort_stats":
        return {"members": int(result.count)}
    if name in ("write_json", "write_table_csv", "write_text"):
        return {"bytes": os.path.getsize(args[0])}
    return {}


class Tracer:
    """Keeps spans in memory: [layer, start, end, parent index, step,
    counts].  Parent -1 marks a span called directly by the CLI step."""

    def __init__(self):
        self.spans: list[list] = []
        self.open: list[int] = []
        self.step = -1
        self.ward_heights: list[list[float]] = []

    def wrap(self, name: str, layer: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.open[-1] if self.open else -1
            span = [layer, time.perf_counter(), None, parent, self.step, {}]
            self.spans.append(span)
            self.open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.open.pop()
            span[5] = _counts(name, args, result)
            if name == "ward_cluster":
                self.ward_heights.append(result.merges[:, 2].tolist())
            return result

        return traced

    def install(self, cli, graph_cls) -> dict:
        """Swap the wrappers in; return what to put back."""
        saved = {name: getattr(cli, name) for name in LAYERS}
        for name, layer in LAYERS.items():
            setattr(cli, name, self.wrap(name, layer, saved[name]))
        saved["from_arcs"] = graph_cls.__dict__["from_arcs"]
        build = self.wrap("from_arcs", "graph.build", saved["from_arcs"].__func__)
        graph_cls.from_arcs = classmethod(build)
        return saved

    @staticmethod
    def uninstall(cli, graph_cls, saved: dict) -> None:
        graph_cls.from_arcs = saved.pop("from_arcs")
        for name, fn in saved.items():
            setattr(cli, name, fn)


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_sequence(main, steps, tracer=None) -> dict:
    records = []
    cpu0 = _cpu()
    t0 = time.perf_counter()
    for index, step in enumerate(steps):
        if tracer is not None:
            tracer.step = index
        os.environ.update(step.get("env", {}))
        s0 = time.perf_counter()
        error = None
        try:
            code = main(step["argv"])
            if step.get("move") and code == 0:
                src, dst = step["move"]
                os.makedirs(os.path.dirname(dst), exist_ok=True)
                os.replace(src, dst)
        except (Exception, SystemExit) as exc:  # a failed invocation
            code = None
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
        records.append({"code": code, "error": error,
                        "wall_s": time.perf_counter() - s0})
    return {"wall_s": time.perf_counter() - t0, "cpu_s": _cpu() - cpu0,
            "steps": records}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    t0 = time.perf_counter()
    import digraphlets.cli as cli
    cli.build_parser()
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "sequences": []}
    tracer = None
    for seq in plan["sequences"]:
        if seq.get("trace"):
            from digraphlets.graph import DirectedGraph

            tracer = Tracer()
            saved = tracer.install(cli, DirectedGraph)
            try:
                result["sequences"].append(run_sequence(cli.main, seq["steps"], tracer))
            finally:
                Tracer.uninstall(cli, DirectedGraph, saved)
        else:
            result["sequences"].append(run_sequence(cli.main, seq["steps"]))
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = max(own, kids) / 1024.0
    if tracer is not None:
        result["spans"] = tracer.spans
        result["ward_heights"] = tracer.ward_heights
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
