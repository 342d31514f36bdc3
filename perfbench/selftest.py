"""Self-test of the benchmark at tiny sizes.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that every workload runs and passes its checks in both modes,
that the traced run reports every per-layer metric BENCHMARK.json
names, that one changed count in an output and one nonzero exit each
raise the failure count, that an unrandomized copy of the input fails
the randomize check, and that the input generator is deterministic
and never imports the digraphlets package.  Exit status 0 means all
passed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
import run
from workloads import COHORT_WORKERS, WORKLOADS

ROOT = Path.cwd()

# One output file per workload and the step that wrote it.
CORRUPT = {
    "paper-cohort": ("cohort/cohort_pos.csv", -1),
    "census-dense": ("raw_census.csv", 0),
    "randomize-sparse": ("randomized.edgelist", 0),
    "cluster-mid": ("census/signature.csv", 0),
}


def bump_last_number(path: Path) -> None:
    """Add 1 to the last number on the second non-comment line."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    body = [i for i, line in enumerate(lines) if not line.startswith("#")]
    i = body[1]
    head, sep, last = lines[i].rstrip("\n").rpartition("," if "," in lines[i] else " ")
    lines[i] = f"{head}{sep}{int(float(last)) + 1}\n"
    path.write_text("".join(lines), encoding="utf-8")


def bench(name: str) -> run.Bench:
    b = run.Bench(ROOT, name, seed=3, size="tiny")
    b.prepare()
    return b


def one_rep(b: run.Bench):
    out = b.work / "out"
    steps = b.wl.steps(b.state, out, COHORT_WORKERS)
    res = b.child([{"steps": steps}])
    return steps, out, res["sequences"][0]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = {m["name"] for m in spec["per_layer"]}
    problems = []

    def expect(ok: bool, what: str):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    proc = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, 'perfbench'); "
         "import run, selftest; print(any(m.split('.')[0] == 'digraphlets' "
         "for m in sys.modules))"], cwd=ROOT, capture_output=True, text=True)
    expect(proc.stdout.strip() == "False", "benchmark code does not import digraphlets")

    for name, wl in WORKLOADS.items():
        trees = []
        for seed in (5, 5, 6):
            d = ROOT / ".bench_work" / "gen" / str(len(trees))
            d.mkdir(parents=True)
            wl.generate(np.random.default_rng(seed), d, "tiny")
            trees.append(checks.sha256_tree(d))
        shutil.rmtree(ROOT / ".bench_work" / "gen")
        expect(trees[0] == trees[1] != trees[2], f"{name}: inputs depend on the seed only")

        b = bench(name)
        samples, failed = b.end_to_end(0.0, record=False)
        expect(failed == 0 and len(samples["wall_s"]) == run.MIN_REPS,
               f"{name}: end-to-end run passes ({b.failures[:3]})")
        b = bench(name)
        metrics, failed = b.traced()
        expect(failed == 0 and set(metrics) == layer_names,
               f"{name}: traced run passes and reports every per-layer metric "
               f"(missing {sorted(layer_names - set(metrics))}, {b.failures[:3]})")

        b = bench(name)
        steps, out, seq = one_rep(b)
        rel, step = CORRUPT[name]
        step = range(len(steps))[step]
        bump_last_number(out / rel)
        failed = b.evaluate(steps, out, seq)
        expect(step in failed,
               f"{name}: one changed count in {rel} fails step {step} ({failed})")
        if name == "randomize-sparse":
            shutil.copyfile(b.state["path"], out / rel)
            failed = b.evaluate(steps, out, seq)
            expect(0 in failed, f"{name}: the input copied as {rel} fails step 0")

        b = bench(name)
        steps = b.wl.steps(b.state, b.work / "out", COHORT_WORKERS)
        steps[0]["argv"][1] = str(b.work / "missing-input")
        res = b.child([{"steps": steps}])
        failed = b.evaluate(steps, b.work / "out", res["sequences"][0])
        expect(0 in failed, f"{name}: a nonzero exit counts as a failure")
        shutil.rmtree(b.work)

    print("self-test " + ("passed" if not problems else f"FAILED: {problems}"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
