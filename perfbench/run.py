"""Benchmark of the digraphlets command-line pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload census-dense --seed 1 --seconds 25 --trace 0

The program under test is ``src/digraphlets``, imported from source;
scratch files go to ``.bench_work/`` and are removed at the end.
Inputs are generated from ``--seed`` by ``gen.py`` (numpy only); every
output is checked by ``checks.py`` (numpy and scipy only).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
quartiles, sample counts and host facts.

``--trace 0`` (end-to-end).  The workload's whole CLI sequence runs in a
fresh process per repetition, as every real invocation does, as often
as fits in ``--seconds`` (at least MIN_REPS times).  Metrics are
medians over the repetitions:

* ``wall_s``: wall seconds of the sequence (fixed input size, so also
  its throughput);
* ``cpu_s``: user+sys seconds of the sequence, pool workers included;
* ``setup_s``: import of ``digraphlets.cli`` plus ``build_parser()``;
* ``peak_rss_mb``: peak RSS of the run process or its largest worker;
* ``ok_frac``: 1 - failed / attempted CLI invocations.  An invocation
  fails on a nonzero exit, an exception, or an output that fails its
  check.  (The failure fraction itself is 0 on a good run, and an
  end-to-end metric must never be 0, so its complement is reported.)

``--trace 1`` (per layer).  One fresh process runs the sequence
untraced, traced, and untraced again, with the cohort step at 1 worker
so every member's spans land in that process; for the cohort workload
it then reruns the cohort step untraced at 2 workers for
``cli.fanout_speedup``.  Spans are recorded around every function
``digraphlets.cli`` calls and around ``DirectedGraph.from_arcs``, from
``child.py``; layer times are self times (span minus child spans), and
``trace.overhead_frac`` compares the traced sequence with the second
untraced one.  ``census.paths`` and ``census.triangles`` are operation
counts computed from the census output, not measured.  Every per-layer
metric is reported on every workload: a layer the workload bypasses
reads 0 (no time, no count; ``cli.fanout_speedup`` is 0 where there is
no cohort step), and ``trace.overhead_frac`` is a signed difference
that may read 0 or below.  Per-layer metrics carry no bound, so a 0 is
harmless there; the end-to-end metrics are bounded as a share of a
median and are never 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import checks
from workloads import COHORT_WORKERS, WORKLOADS

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
MIN_REPS = 3
DEADLINE_S = 170.0  # every run must end within 180 s
GOLDEN = HERE / "golden.json"

SAMPLED = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")  # one value per repetition
NOTES = {"census.paths": "computed from the census output (sum of wedge totals), "
                         "not measured",
         "census.triangles": "computed from the census output, not measured",
         "trace.overhead_frac": "traced / untraced wall of the same sequence - 1, "
                                "the untraced one run after the traced one"}


class Bench:
    """One benchmark run: a workload, its generated inputs and a clock."""

    def __init__(self, root: Path, name: str, seed: int, size: str):
        self.root = root
        self.wl = WORKLOADS[name]
        self.seed, self.size = seed, size
        self.work = root / ".bench_work" / name
        self.start = time.perf_counter()
        self.attempted = 0
        self.failures: list[str] = []
        self.checked: dict[str, list] = {}  # output-tree digest -> failures

    def left(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def prepare(self, record: bool = False):
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "in").mkdir(parents=True)
        (self.work / "tmp").mkdir()
        rng = np.random.default_rng(self.seed)
        self.state = self.wl.generate(rng, self.work / "in", self.size)
        self.golden = None
        if self.seed == DEFAULT_SEED and self.size == "full" and GOLDEN.exists() \
                and not record:
            self.golden = json.loads(GOLDEN.read_text())[self.wl.name]
            if checks.sha256_tree(self.work / "in") != self.golden["inputs"]:
                raise SystemExit("generated inputs differ from golden.json")

    def child(self, sequences: list[dict]) -> dict | None:
        """Run child.py on a plan; None when the process itself failed."""
        plan = self.work / "plan.json"
        result = self.work / "result.json"
        result.unlink(missing_ok=True)
        plan.write_text(json.dumps({"sequences": sequences, "result": str(result)}))
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"),
                   TMPDIR=str(self.work / "tmp"))
        with open(self.work / "child.log", "ab") as log:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(plan)], cwd=self.root,
                env=env, stdout=log, stderr=log, start_new_session=True)
            try:
                code = proc.wait(timeout=max(self.left(), 1.0))
            except subprocess.TimeoutExpired:
                code = None
            finally:
                if proc.poll() is None or code is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
        if code != 0 or not result.exists():
            self.failures.append(f"run process exited with {code}")
            tail = (self.work / "child.log").read_bytes()[-4000:]
            sys.stderr.write(tail.decode("utf-8", "replace"))
            return None
        return json.loads(result.read_text())

    def evaluate(self, steps: list[dict], out: Path, seq: dict | None,
                 reference: Path | None = None) -> set[int]:
        """Indices of the failed invocations of one sequence.  Outputs are
        checked, or with a reference tree must equal it byte for byte."""
        self.attempted += len(steps)
        if seq is None:
            return set(range(len(steps)))
        failed = {i for i, r in enumerate(seq["steps"]) if r["code"] != 0}
        for i in sorted(failed):
            self.failures.append(f"step {i} {steps[i]['argv'][0]}: exit "
                                 f"{seq['steps'][i]['code']} {seq['steps'][i]['error']}")
        hashes = checks.sha256_tree(out)
        if reference is not None:
            found = self.differences(checks.sha256_tree(reference), hashes,
                                     reference.name, len(steps))
        else:
            digest = json.dumps(hashes, sort_keys=True)
            if digest not in self.checked:
                found = self.wl.check(self.state, out)
                if self.golden is not None:
                    golden = self.differences(self.golden["outputs"], hashes,
                                              "golden.json", len(steps))
                    for i, reasons in golden.items():
                        found.setdefault(i, []).extend(reasons)
                self.checked[digest] = found
            found = self.checked[digest]
        for i, reasons in sorted(found.items()):
            self.failures.append(f"step {i} {steps[i]['argv'][0]}: {'; '.join(reasons)}")
        return failed | set(found)

    def differences(self, want: dict, got: dict, name: str, steps: int) -> dict:
        """Failure reasons per step for files whose hashes differ."""
        found: dict[int, list[str]] = {}
        for rel in sorted(set(want) | set(got)):
            if want.get(rel) != got.get(rel):
                step = self.wl.step_of(self.state, rel) if steps > 1 else 0
                found.setdefault(step, []).append(f"{rel} differs from {name}")
        return found

    def record_golden(self, out: Path, failed: set[int]):
        """Store this repetition's hashes; only a passing full-size run at
        the default seed may become the reference."""
        if failed or self.seed != DEFAULT_SEED or self.size != "full":
            raise SystemExit("error: not recording golden.json: "
                             + ("the run failed its checks" if failed
                                else "only the default seed at full size"))
        data = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        data[self.wl.name] = {"inputs": checks.sha256_tree(self.work / "in"),
                              "outputs": checks.sha256_tree(out)}
        GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")

    # -- the two modes -------------------------------------------------

    def end_to_end(self, seconds: float, record: bool) -> tuple[dict, int]:
        samples = {k: [] for k in SAMPLED}
        failed = 0
        t0 = time.perf_counter()
        longest = 0.0
        while True:
            reps, elapsed = len(samples["wall_s"]), time.perf_counter() - t0
            # Stop before a repetition that would overrun --seconds.
            if reps >= MIN_REPS and elapsed + elapsed / reps > seconds:
                break
            if longest and self.left() < 1.5 * longest + 10:
                break
            r0 = time.perf_counter()
            out = self.work / "out"
            shutil.rmtree(out, ignore_errors=True)
            steps = self.wl.steps(self.state, out, COHORT_WORKERS)
            res = self.child([{"steps": steps}])
            seq = res["sequences"][0] if res else None
            bad = self.evaluate(steps, out, seq)
            failed += len(bad)
            if res is None:
                break
            if record:
                self.record_golden(out, bad)
                record = False
            samples["setup_s"].append(res["setup_s"])
            samples["wall_s"].append(seq["wall_s"])
            samples["cpu_s"].append(seq["cpu_s"])
            samples["peak_rss_mb"].append(res["peak_rss_mb"])
            longest = max(longest, time.perf_counter() - r0)
        return samples, failed

    def traced(self) -> tuple[dict, int]:
        """Untraced, traced, untraced again (both warm, for the overhead),
        all at 1 worker; then the cohort step alone at COHORT_WORKERS."""
        first, traced, again, fanout = (
            self.work / d for d in ("out", "traced", "again", "fanout"))
        sequences = [{"steps": self.wl.steps(self.state, first, 1)},
                     {"steps": self.wl.steps(self.state, traced, 1), "trace": True},
                     {"steps": self.wl.steps(self.state, again, 1)}]
        cohort = self.wl.cohort_index(self.state)
        if cohort is not None:
            sequences.append({"steps": [
                self.wl.cohort_call(first, fanout / "cohort", COHORT_WORKERS)]})
        res = self.child(sequences)
        runs = res["sequences"] if res else [None] * len(sequences)
        # Later sequences must reproduce the checked outputs byte for byte.
        failed = len(self.evaluate(sequences[0]["steps"], first, runs[0]))
        for seq, run, out in zip(sequences[1:3], runs[1:3], (traced, again)):
            failed += len(self.evaluate(seq["steps"], out, run, first))
        if cohort is not None:
            failed += len(self.evaluate(sequences[3]["steps"], fanout / "cohort",
                                        runs[3], first / "cohort"))
        if res is None:
            return {}, failed
        errors = self.wl.check_traced(self.state, first, res)
        self.failures.extend(errors)
        failed += bool(errors)
        metrics = layer_metrics(res["spans"], runs[1])
        metrics["trace.overhead_frac"] = runs[1]["wall_s"] / runs[2]["wall_s"] - 1.0
        metrics["cli.fanout_speedup"] = (
            runs[2]["steps"][cohort]["wall_s"] / runs[3]["steps"][0]["wall_s"]
            if cohort is not None else 0.0)
        metrics["analysis.import_s"] = self.import_time()
        return metrics, failed

    def import_time(self, repeats: int = 3) -> float:
        """Cumulative import of digraphlets.analysis by -X importtime."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        times = []
        for _ in range(repeats):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import digraphlets.analysis"],
                cwd=self.root, env=env, capture_output=True, text=True,
                timeout=max(self.left(), 1.0), check=True)
            for line in proc.stderr.splitlines():
                fields = line.split("|")
                if len(fields) == 3 and fields[2].strip() == "digraphlets.analysis":
                    times.append(int(fields[1]) / 1e6)
        return statistics.median(times)


def layer_metrics(spans: list, traced: dict) -> dict:
    """Per-layer totals from the traced sequence's spans."""
    children = [0.0] * len(spans)
    for layer, start, end, parent, step, counts in spans:
        if parent >= 0:
            children[parent] += end - start
    self_s: dict[str, float] = {}
    count: dict[str, int] = {}
    calls: dict[str, int] = {}
    top = 0.0
    for (layer, start, end, parent, step, counts), inner in zip(spans, children):
        self_s[layer] = self_s.get(layer, 0.0) + (end - start) - inner
        calls[layer] = calls.get(layer, 0) + 1
        for key, value in counts.items():
            count[key] = count.get(key, 0) + value
        if parent < 0:
            top += end - start
    t = self_s.get
    c = count.get
    load = t("graph.load", 0.0)
    paths = c("paths", 0)
    return {
        "graph.load_s": load,
        "graph.build_s": t("graph.build", 0.0),
        "graph.randomize_s": t("graph.randomize", 0.0),
        "graph.save_s": t("graph.save", 0.0),
        "graph.arcs": c("arcs", 0),
        "graph.parse_arcs_per_s": c("arcs", 0) / load if load else 0.0,
        "census.raw_s": t("census.raw", 0.0),
        "census.calls": calls.get("census.raw", 0),
        "census.paths": paths,
        "census.triangles": c("triangles_raw", 0) // 6,
        "census.closed_frac": c("triangles_raw", 0) / paths if paths else 0.0,
        "census.aggregate_s": t("census.aggregate", 0.0),
        "census.normalize_s": t("census.normalize", 0.0),
        "analysis.gcm_s": t("analysis.gcm", 0.0),
        "analysis.cohort_stats_s": t("analysis.cohort_stats", 0.0),
        "analysis.ward_s": t("analysis.ward", 0.0),
        "analysis.ward_rows": c("rows", 0),
        "pruning.load_s": t("pruning.load", 0.0),
        "pruning.cells": c("cells", 0),
        "pruning.prune_s": t("pruning.prune", 0.0),
        "pruning.summary_s": t("pruning.summary", 0.0),
        "heatmap.render_s": t("heatmap.render", 0.0),
        "fileio.write_s": t("fileio.write", 0.0),
        "fileio.read_s": t("fileio.read", 0.0),
        "fileio.bytes_out": c("bytes", 0),
        "cli.self_s": sum(r["wall_s"] for r in traced["steps"]) - top,
        "cli.members": c("members", 0),
    }


def host_facts(root: Path) -> dict:
    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "numpy": np.__version__, "scipy": scipy.__version__, "git_rev": None}
    if (root / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
        facts["git_rev"] = proc.stdout.strip() or None
    if shutil.which("lscpu"):
        proc = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30,
                              env=dict(os.environ, LC_ALL="C"))
        for line in proc.stdout.splitlines():
            key, _, value = line.partition(":")
            if key.strip() in ("L2 cache", "L3 cache"):
                facts[key.strip().replace(" cache", "")] = value.strip()
    return facts


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, statistics.median(values), q3]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-golden", action="store_true",
                   help="store the default seed's input and output hashes "
                        "(end-to-end mode, default seed only)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "digraphlets" / "cli.py").is_file():
        print("error: run from the repository root (src/digraphlets/cli.py not found)",
              file=sys.stderr)
        return 2
    if args.record_golden and (args.seed != DEFAULT_SEED or args.trace):
        print(f"error: --record-golden needs --seed {DEFAULT_SEED} and --trace 0",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    bench = Bench(root, args.workload, args.seed, "full")
    bench.prepare(args.record_golden)
    if bench.child([]) is None:  # warm-up: bytecode and file caches
        print("error: the digraphlets CLI cannot be imported", file=sys.stderr)
        return 2
    info = {"workload": args.workload, "seed": args.seed, "host": host_facts(root)}
    if args.trace:
        metrics, failed = bench.traced()
        wanted = spec["per_layer"]
        info["samples"] = 1
        info["notes"] = NOTES
    else:
        samples, failed = bench.end_to_end(args.seconds, args.record_golden)
        wanted = spec["end_to_end"]
        metrics = {k: statistics.median(v) for k, v in samples.items() if v}
        metrics["ok_frac"] = 1.0 - failed / max(bench.attempted, 1)
        info["samples"] = len(samples["wall_s"])
        info["quartiles"] = {k: quartiles(v) for k, v in samples.items() if v}
        info["working_set_mb"] = metrics.get("peak_rss_mb")
    values = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
              for m in wanted if m["name"] in metrics}
    info["failures"] = bench.failures[:20]
    shutil.rmtree(bench.work, ignore_errors=True)
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0 and len(values) == len(wanted),
                      "attempted": max(bench.attempted, 1), "failed": failed,
                      "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
