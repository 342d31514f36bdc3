"""The four workloads: their inputs, their CLI calls and their checks.

Every workload generates its inputs from the seed with ``gen`` (numpy
only), lists the ``digraphlets`` CLI calls one run makes, and checks
their outputs with ``checks`` (numpy and scipy only).  Sizes come in two
scales: ``full`` for measuring and ``tiny`` for the self-test.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import checks
import gen

COHORT_WORKERS = 2  # DIGRAPHLETS_WORKERS of the timed cohort step


def _cli(*argv) -> list[str]:
    return [str(a) for a in argv]


def _failing(results) -> dict[int, list[str]]:
    """(step, reasons) pairs -> the steps with a reason."""
    return {step: reasons for step, reasons in results if reasons}


class Workload:
    """A named CLI sequence; BENCHMARK.json says why it is in the benchmark."""

    name = ""
    sizes: dict = {}  # scale -> input size

    def generate(self, rng: np.random.Generator, indir: Path, size: str):
        """Write the inputs under indir; return what steps/check need."""
        raise NotImplementedError

    def steps(self, state, out: Path, workers: int) -> list[dict]:
        raise NotImplementedError

    def check(self, state, out: Path) -> dict[int, list[str]]:
        """Failure reasons per step index (only failing steps listed)."""
        raise NotImplementedError

    def check_traced(self, state, out: Path, result: dict) -> list[str]:
        """Checks that need the traced run's in-memory results."""
        return []

    def step_of(self, state, relpath: str) -> int:
        """The step that wrote an output file (path relative to out)."""
        return 0

    def cohort_index(self, state) -> int | None:
        """Index of the cohort call among the steps, if there is one."""
        return None


class _GraphWorkload(Workload):
    """One generated digraph written as graph.edgelist; sizes are
    (vertices, skeleton pairs), and 4/3 arcs per pair on average."""

    def generate(self, rng, indir, size):
        n, m = self.sizes[size]
        lo, hi, codes = gen.random_digraph(rng, n, m)
        src, dst = gen.arcs_of(lo, hi, codes)
        path = indir / "graph.edgelist"
        path.write_text(gen.edge_list_text(n, src, dst), encoding="utf-8")
        return {"path": path, "skeleton": checks.Skeleton(n, lo, hi, codes)}


class PaperCohort(Workload):
    """Weighted matrices pruned one CLI call each, then one cohort call;
    sizes are (subjects, vertices)."""

    name = "paper-cohort"
    sizes = {"full": (128, 116), "tiny": (4, 20)}

    def generate(self, rng, indir, size):
        subjects, n = self.sizes[size]
        labels = gen.region_labels(n)
        weights, files = [], []
        for s, w in enumerate(gen.cohort_weights(rng, subjects, n)):
            path = indir / f"s{s:03d}.csv"
            path.write_text(gen.weighted_csv_text(w, labels), encoding="utf-8")
            weights.append(w)
            files.append(path)
        return {"labels": labels, "weights": weights, "files": files}

    def steps(self, state, out, workers):
        steps = []
        for path in state["files"]:
            sub = out / "prune" / path.stem
            steps.append({
                "argv": _cli("prune", path, "--out", sub),
                "move": [str(sub / "pruned.edgelist"),
                         str(out / "cohort_in" / f"{path.stem}.edgelist")],
            })
        steps.append(self.cohort_call(out, out / "cohort", workers))
        return steps

    def cohort_index(self, state):
        return len(state["files"])

    def cohort_call(self, out, dest, workers):
        return {"argv": _cli("cohort", out / "cohort_in", "--normalized", "--out", dest),
                "env": {"DIGRAPHLETS_WORKERS": str(workers)}}

    def check(self, state, out):
        files = state["files"]
        results = [
            (s, checks.guarded(checks.check_pruned, w, state["labels"],
                               out / "prune" / path.stem,
                               out / "cohort_in" / f"{path.stem}.edgelist"))
            for s, (path, w) in enumerate(zip(files, state["weights"]))]
        names = [f"{p.stem}.edgelist" for p in files]
        results.append((len(files), checks.guarded(checks.check_cohort, out / "cohort", names)))
        return _failing(results)

    def step_of(self, state, relpath):
        top, rest = relpath.split("/", 1)
        if top == "cohort":
            return len(state["files"])
        return int(rest.split("/")[0].split(".")[0][1:])


class CensusDense(_GraphWorkload):
    name = "census-dense"
    sizes = {"full": (5_000, 250_000), "tiny": (300, 3_000)}

    def steps(self, state, out, workers):
        return [{"argv": _cli("census", state["path"], "--raw", "--out", out)}]

    def check(self, state, out):
        return _failing([(0, checks.guarded(checks.check_census_tables, state["skeleton"],
                                            out / "signature.csv", out / "raw_census.csv"))])


class RandomizeSparse(_GraphWorkload):
    name = "randomize-sparse"
    sizes = {"full": (25_000, 250_000), "tiny": (500, 2_000)}

    def steps(self, state, out, workers):
        return [{"argv": _cli("randomize", state["path"], "--seed", 7, "--out", out)}]

    def check(self, state, out):
        return _failing([(0, checks.guarded(checks.check_randomized, state["skeleton"],
                                            out / "randomized.edgelist"))])


class ClusterMid(_GraphWorkload):
    name = "cluster-mid"
    sizes = {"full": (450, 6_750), "tiny": (60, 300)}

    def steps(self, state, out, workers):
        sig = out / "census" / "signature.csv"
        return [{"argv": _cli("census", state["path"], "--out", out / "census")},
                {"argv": _cli("cluster", sig, "--out", out / "cluster")}]

    def check(self, state, out):
        sig = out / "census" / "signature.csv"
        return _failing([
            (0, checks.guarded(checks.check_census_tables, state["skeleton"], sig)),
            (1, checks.guarded(checks.check_cluster, sig, out / "cluster"))])

    def check_traced(self, state, out, result):
        return checks.guarded(checks.check_ward_heights, out / "census" / "signature.csv",
                              result["ward_heights"])

    def step_of(self, state, relpath):
        return 0 if relpath.startswith("census/") else 1


WORKLOADS = {w.name: w for w in
             (PaperCohort(), CensusDense(), RandomizeSparse(), ClusterMid())}
