"""Repository benchmark: TurboFuzz hot loop, Table II bug hunts, supervised grid.

Run from the repository root::

    python3 perfbench/run.py --workload tf-fuzz --seed 1 --seconds 30 --trace 0

``--workload`` is ``tf-fuzz``, ``bughunt``, ``grid`` or ``all`` (the three in
one process).  With ``--trace 0`` the run prints the end-to-end metrics,
host times scaled to the reference host speed (calibration.py); with
``--trace 1`` it runs the untraced benchmark in a child process, then the
workload traced in this one, and prints the per-layer metrics, writing the
spans to ``perfbench/out/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when a correctness check fails and 2 when the program's sources are
missing.  README.md explains the workloads and metrics.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import REFERENCE_S, scale_ops, time_kernel

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("tf-fuzz", "bughunt", "grid")
SETUP_PROBES = 5          # fresh processes timed for setup_s
TAIL_BEYOND = 10          # ops beyond the reported tail percentile
PROBE_TIMEOUT_S = 120
TWIN_TIMEOUT_S = 170
PROBE_KERNELS = 5         # kernel runs before and after a set-up probe


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.setup_probe and args.workload == "all":
        parser.error("--setup-probe takes a single workload")
    return args


def pin_hash_seed(argv):
    """Re-execute under ``PYTHONHASHSEED=0``: dict and set layout depends
    on the hash seed and moves throughput by up to 15% per process."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, __file__, *argv], env)


def import_program():
    """Import the program; returns (workloads module, import seconds)."""
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import repro.campaign  # noqa: F401  (timed: the program's import cost)
    import repro.dut  # noqa: F401
    import_s = time.perf_counter() - started
    import workloads
    return workloads, import_s


def setup_probe(args):
    """One fresh-process set-up; prints its phases, at the reference host
    speed, as JSON."""
    before_s = time_kernel(PROBE_KERNELS)
    workloads, import_s = import_program()
    setup = workloads.WORKLOADS[args.workload][0]
    _, build_s, warmup_s = setup(args.seed, args.seconds)
    scale = REFERENCE_S / statistics.median((before_s, time_kernel(PROBE_KERNELS)))
    print(json.dumps({"import_s": import_s * scale, "build_s": build_s * scale,
                      "warmup_s": warmup_s * scale}))


def probe_setups(args, workload):
    samples = []
    command = [sys.executable, __file__, "--setup-probe", "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


# -- statistics ----------------------------------------------------------------
def tail(values):
    """``(value, percentile)`` of the highest percentile with at least
    TAIL_BEYOND values beyond it (the maximum when there are too few)."""
    ordered = sorted(values)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return ordered[-1], 100.0
    index = count - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / count


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- one workload ----------------------------------------------------------------
def run_workload(args, workload, workloads, import_s):
    setup, run, check = workloads.WORKLOADS[workload]
    started = time.perf_counter()
    if args.trace:
        # The untraced twin runs in a fresh process too: a second pass in
        # this one would replay the same stimuli against warm decode and
        # softfloat caches and read faster than any first pass.
        untraced = untraced_twin(args, workload)
    state, build_s, warmup_s = setup(args.seed, args.seconds)
    print(f"== {workload}  seed {args.seed}  seconds {args.seconds}  "
          f"(this process: import {import_s:.3f} s, build {build_s:.3f} s, "
          f"warm-up {warmup_s:.3f} s)", flush=True)
    tracer = None
    if args.trace:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)
        try:
            tracer.start()
            measured = run(state, tracer)
            tracer.stop()
        finally:
            tracer.unpatch()
    else:
        measured = run(state)
    check(state, measured)
    rss_mb = peak_rss_mb() + measured.children_rss_mb
    del state
    gc.collect()
    if args.trace and not untraced["correct"]:
        measured.errors.append("the untraced run failed its checks")
    if args.trace and untraced["digest"] != measured.digest:
        measured.errors.append("the traced run's simulated results differ "
                               "from the untraced run's")
    setups = probe_setups(args, workload)
    print(f"   wall {time.perf_counter() - started:.1f} s", flush=True)
    report_run(workload, measured)
    if args.trace:
        rows = traced_metrics(args, workload, measured, tracer, setups, untraced)
    else:
        rows = end_to_end_metrics(measured, setups, rss_mb)
    for name, (value, unit, note) in rows.items():
        print(f"   {name:<28} {value:>14.6g} {unit}{note}")
    return {
        "correct": not measured.errors,
        "attempted": len(measured.ops_s),
        "failed": len(measured.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in rows.items()},
    }


def untraced_twin(args, workload):
    """Run the untraced benchmark in a child process; returns its
    ``iters_per_s`` and digest."""
    command = [sys.executable, __file__, "--workload", workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=TWIN_TIMEOUT_S, check=False)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        digest = next(line.split()[1] for line in lines
                      if line.startswith("   digest "))
    except (IndexError, ValueError, StopIteration):
        raise RuntimeError(
            f"untraced run printed no result:\n{done.stdout}{done.stderr}") from None
    return {"iters_per_s": result["metrics"]["iters_per_s"]["value"],
            "digest": digest, "correct": result["correct"]}


def report_run(workload, measured):
    counts = measured.counts
    if "detected" in counts:
        print(f"   hunts: detected {counts['detected']}, missed "
              f"{counts['missed']}, escaped {counts['escaped']}, false "
              f"mismatches {counts['false-mismatch']}, raised {counts['raised']}")
    print(f"   ops {len(measured.ops_s)} ({measured.op_name}s)  "
          f"ops_failed {len(measured.failures)}")
    for failure in measured.failures:
        print(f"   failed op: {failure}")
    for error in measured.errors:
        print(f"   CHECK FAILED: {error}")
    print(f"   digest {measured.digest}  (coverage series, executed "
          "instructions, virtual clock" +
          (", hunt outcomes)" if workload == "bughunt" else ")"))


def normalized(measured):
    """``(busy_s, ops_s)`` at the reference host speed (calibration.py).
    Time between ops (hunt and round construction) is scaled by the run's
    median kernel time; the kernel's own time is left out."""
    ops, kernels = measured.ops_s, measured.kernel_s
    between_s = measured.wall_s - sum(ops) - sum(kernels)
    scaled = scale_ops(ops, kernels)
    busy_s = sum(scaled) + between_s * REFERENCE_S / statistics.median(kernels)
    return busy_s, scaled


def end_to_end_metrics(measured, setups, rss_mb):
    """``name -> (value, unit, note)`` for every end-to-end metric."""
    busy_s, ops = normalized(measured)
    raw_busy_s = measured.wall_s - sum(measured.kernel_s)
    print(f"   raw (unscaled): iters_per_s {measured.iterations / raw_busy_s:.6g}, "
          f"op_ms_p50 {1000 * statistics.median(measured.ops_s):.6g}, "
          f"op_ms_tail {1000 * tail(measured.ops_s)[0]:.6g}; calibration "
          f"kernel median {1000 * statistics.median(measured.kernel_s):.4f} ms "
          f"(reference {1000 * REFERENCE_S} ms)")
    tail_s, tail_pct = tail(ops)
    return {
        "instr_per_s": (measured.instructions / busy_s, "instr/s", ""),
        "iters_per_s": (measured.iterations / busy_s, "iter/s", ""),
        "op_ms_p50": (1000 * statistics.median(ops), "ms", ""),
        "op_ms_tail": (1000 * tail_s, "ms",
                       f"  (p{tail_pct:.2f} of {len(ops)} {measured.op_name}s, "
                       f"{min(TAIL_BEYOND, len(ops) - 1)} beyond)"),
        "setup_s": (statistics.median(sum(s.values()) for s in setups), "s",
                    f"  (median of {len(setups)} fresh processes)"),
        "peak_rss_mb": (rss_mb, "MB", ""),
        "coverage_points": (measured.coverage_points, "count", ""),
    }


def traced_metrics(args, workload, measured, tracer, setups, untraced):
    from layers import layer_metrics, print_self_times

    print_self_times(tracer)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{args.seed}.jsonl"
    tracer.write(path)
    print(f"   {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    busy_s, _ = normalized(measured)
    rows = layer_metrics(tracer, measured, setups, untraced["iters_per_s"],
                         measured.iterations / busy_s)
    return {name: (value, unit, "") for name, (value, unit) in rows.items()}


def main(argv):
    args = parse_args(argv)
    pin_hash_seed(argv)
    if not (ROOT / "src" / "repro" / "campaign" / "__init__.py").is_file():
        print(f"program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args)
        return 0
    workloads, import_s = import_program()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {name: run_workload(args, name, workloads, import_s)
               for name in names}
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": row
                        for name, r in results.items()
                        for metric, row in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
