"""Paired performance gate: a change against its base, end to end and per layer.

Run from the change's tree::

    python3 benchmarks/perf_gate.py BASE_TREE HEAD_TREE

Each tree is a checkout with its own ``perfbench/`` and ``src/``.  For every
workload the gate runs each tree's ``perfbench/run.py --trace 0`` and
``--trace 1`` in ``PAIRS`` base/change pairs, swapping which side runs first
from one pair to the next, and compares the two sides' medians:

* end-to-end metrics (the untraced runs) at the bounds of the head tree's
  ``BENCHMARK.json``;
* per-layer self time per call (the traced runs' spans), scaled to the
  reference host speed by the run's median ``bench.calibration`` span the
  way perfbench scales its end-to-end times, at each bound in
  ``GATED_LAYERS``.  Self times, not shares: a faster layer would raise
  every other layer's share.

The gate fails (exit 1) when a run of either side is not ``correct``, when
the change fails more ops than the base, or when a gated metric regresses
beyond its bound or is missing.  Ungated layers are printed for reading.
The output is a table, then one JSON line.  It needs only the standard
library.  docs/PERF.md gives the same-tree spreads the bounds rest on.
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

SECONDS = 5               # perfbench --seconds per run
SEED = 1
PAIRS = 3
RUN_TIMEOUT_S = 600
REFERENCE_KERNEL_MS = 2.5  # perfbench/calibration.py REFERENCE_S
CALIBRATION_SPAN = "bench.calibration"
ROOT_SPAN = "bench.loop"
# How much slower per call each gated layer may get: midway between its
# widest same-tree (A/A) deviation and its reading under a 15% injected
# slowdown (docs/PERF.md).  Other layers are printed, not gated.
GATED_LAYERS = {
    "tf-fuzz": {"fuzzer.generate": 0.09, "harness.run": 0.08},
    "bughunt": {"fuzzer.generate": 0.16, "fuzzer.feedback": 0.16,
                "harness.run": 0.09},
    "grid": {},
}


# -- spans -----------------------------------------------------------------------
def layer_ms(spans):
    """Self milliseconds per call of each layer at the reference host speed.

    ``spans`` are perfbench span records (``id``, ``name``, ``start``,
    ``end``, ``parent``).  A span's self time is its duration minus its
    direct children's; each layer's mean is scaled by ``REFERENCE_KERNEL_MS``
    over the median calibration span.  The calibration and root spans are
    not layers of the program and are left out."""
    child_s = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_s[span["parent"]] += span["end"] - span["start"]
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for span in spans:
        calls[span["name"]] += 1
        self_s[span["name"]] += span["end"] - span["start"] - child_s[span["id"]]
    kernel_s = statistics.median(span["end"] - span["start"] for span in spans
                                 if span["name"] == CALIBRATION_SPAN)
    scale = REFERENCE_KERNEL_MS / kernel_s
    return {name: self_s[name] / calls[name] * scale for name in calls
            if name not in (CALIBRATION_SPAN, ROOT_SPAN)}


# -- running perfbench -----------------------------------------------------------
def run_perfbench(tree, workload, trace):
    """One perfbench run in ``tree``; returns its result JSON, plus the
    per-layer times under ``"layers"`` when traced."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(SEED), "--seconds", str(SECONDS),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"{tree}: {' '.join(command[1:])} printed no result:\n"
                           f"{done.stdout}{done.stderr}") from None
    if trace:
        path = Path(tree) / "perfbench" / "out" / f"spans-{workload}-seed{SEED}.jsonl"
        with open(path, encoding="utf-8") as handle:
            result["layers"] = layer_ms([json.loads(line) for line in handle])
    return result


def measure(trees, workload):
    """``side -> [run]`` over ``PAIRS`` pairs; a run joins one untraced and
    one traced perfbench run: ``{"correct", "failed", "metrics", "layers"}``."""
    runs = {side: [] for side in trees}
    for pair in range(PAIRS):
        order = list(trees) if pair % 2 == 0 else list(reversed(trees))
        results = defaultdict(dict)
        for trace in (0, 1):
            for side in order:
                results[side][trace] = run_perfbench(trees[side], workload, trace)
        for side in trees:
            plain, traced = results[side][0], results[side][1]
            runs[side].append({
                "correct": plain["correct"] and traced["correct"],
                "failed": plain["failed"] + traced["failed"],
                "metrics": {name: row["value"]
                            for name, row in plain["metrics"].items()},
                "layers": traced["layers"],
            })
        print(f"   {workload} pair {pair + 1}/{PAIRS} done", file=sys.stderr,
              flush=True)
    return runs


# -- comparing -------------------------------------------------------------------
def _median(runs, kind, name):
    values = [run[kind][name] for run in runs if name in run[kind]]
    return statistics.median(values) if len(values) == len(runs) else None


def compare(workload, base, change, end_to_end, gated):
    """Rows comparing two sides' runs of one workload, and the failures.

    ``end_to_end`` is BENCHMARK.json's list of ``{"name", "better",
    "bound"}``; ``gated`` maps the gated layers to their bounds.  A row is
    ``{"workload", "metric", "base", "change", "ratio", "bound", "status"}``
    with status ``ok``, ``regressed``, ``missing`` or ``ungated``."""
    failures = []
    for side, runs in (("base", base), ("change", change)):
        if not all(run["correct"] for run in runs):
            failures.append(f"{workload}: a {side} run is not correct")
    base_failed = sum(run["failed"] for run in base)
    change_failed = sum(run["failed"] for run in change)
    if change_failed > base_failed:
        failures.append(f"{workload}: the change failed {change_failed} ops, "
                        f"the base {base_failed}")
    checks = [("metrics", spec["name"], spec["better"], spec["bound"])
              for spec in end_to_end]
    layers = {name for run in base + change for name in run["layers"]}
    checks += [("layers", name, "lower", gated.get(name))
               for name in sorted(layers | set(gated))]
    rows = []
    for kind, name, better, bound in checks:
        before, after = _median(base, kind, name), _median(change, kind, name)
        ratio = after / before if before and after is not None else None
        if bound is None:
            status = "ungated"
        elif ratio is None:
            status = "missing"
        elif (ratio < 1 - bound) if better == "higher" else (ratio > 1 + bound):
            status = "regressed"
        else:
            status = "ok"
        metric = name if kind == "metrics" else f"{name}_ms"
        rows.append({"workload": workload, "metric": metric, "base": before,
                     "change": after, "ratio": ratio, "bound": bound,
                     "status": status})
        if status in ("regressed", "missing"):
            failures.append(f"{workload}: {metric} {status}")
    return rows, failures


def _cell(value, width):
    return f"{'-':>{width}}" if value is None else f"{value:>{width}.5g}"


def print_table(rows):
    print(f"{'workload':<9} {'metric':<28} {'base':>11} {'change':>11} "
          f"{'ratio':>7} {'bound':>6}  status")
    for row in rows:
        print(f"{row['workload']:<9} {row['metric']:<28} {_cell(row['base'], 11)} "
              f"{_cell(row['change'], 11)} {_cell(row['ratio'], 7)} "
              f"{_cell(row['bound'], 6)}  {row['status']}")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_tree")
    parser.add_argument("head_tree")
    args = parser.parse_args(argv)
    trees = {"base": args.base_tree, "change": args.head_tree}
    with open(Path(args.head_tree) / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    rows, failures = [], []
    for workload in (spec["name"] for spec in benchmark["workloads"]):
        runs = measure(trees, workload)
        more_rows, more_failures = compare(workload, runs["base"], runs["change"],
                                           benchmark["end_to_end"],
                                           GATED_LAYERS.get(workload, {}))
        rows += more_rows
        failures += more_failures
    print_table(rows)
    for failure in failures:
        print(f"FAILED: {failure}")
    print(json.dumps({"ok": not failures, "failures": failures,
                      "pairs": PAIRS, "seconds": SECONDS, "rows": rows}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
