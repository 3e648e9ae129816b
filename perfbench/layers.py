"""Per-layer metrics of the traced run, derived from spans and counters.

Times named ``*_ms`` are per call of the layer's entry point; the program's
own counters come from the :class:`RunResult` and checkpoint text the
wrapped calls return (see :func:`spans.install`).  README.md lists the
end-to-end metric each layer metric is expected to move.
"""

import statistics

from spans import ROOT_SPAN

EMPTY = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
RESILIENCE = ("spawns", "failures", "redispatches", "requeues", "timeouts")


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, traced, setups, untraced_iters_per_s,
                  traced_iters_per_s):
    """``name -> (value, unit)`` for every per-layer metric."""
    layers = tracer.layer_times()
    counts = tracer.counts

    def row(name):
        return layers.get(name, EMPTY)

    def per_call_ms(name, key="self_s"):
        return 1000 * _ratio(row(name)[key], row(name)["calls"])

    runs = counts["runs"]
    generate = row("fuzzer.generate")
    merges = row("campaign.load_state")
    outcomes = traced.counts
    metrics = {
        "fuzzer.generate_ms": (per_call_ms("fuzzer.generate"), "ms"),
        "fuzzer.generate_share": (
            _ratio(generate["total_s"], row("campaign.session")["total_s"]), "share"),
        "fuzzer.feedback_ms": (per_call_ms("fuzzer.feedback"), "ms"),
        "fuzzer.generated_per_iter": (
            _ratio(counts["fuzzer.generated"], generate["calls"]), "count"),
        "fuzzer.executed_share": (
            _ratio(counts["executed_fuzzing"], counts["fuzzer.generated"]), "share"),
        "harness.build_image_ms": (per_call_ms("harness.build_image"), "ms"),
        "harness.run_ms": (per_call_ms("harness.run"), "ms"),
        "dut.us_per_instr": (
            1e6 * _ratio(row("harness.run")["self_s"], counts["executed"]), "us"),
        "dut.executed_per_iter": (_ratio(counts["executed"], runs), "count"),
        "dut.traps_per_iter": (_ratio(counts["traps"], runs), "count"),
        "dut.completed_share": (_ratio(counts["completed"], runs), "share"),
        "dut.ipc": (_ratio(counts["executed"], counts["cycles"]), "instr/cycle"),
        "coverage.new_points_per_iter": (_ratio(counts["new_points"], runs), "count"),
        "coverage.novel_iter_share": (_ratio(counts["novel_runs"], runs), "share"),
        "harness.snapshot_ms": (per_call_ms("harness.snapshot"), "ms"),
        "harness.mismatches": (counts["mismatches"], "count"),
        "harness.false_mismatches": (outcomes.get("false-mismatch", 0), "count"),
        "harness.escapes": (outcomes.get("escaped", 0), "count"),
        "bugs_detected": (outcomes.get("detected", 0), "count"),
        "campaign.session_self_ms": (per_call_ms("campaign.session"), "ms"),
        "campaign.build_s": (
            _ratio(row("campaign.build")["total_s"], row("campaign.build")["calls"]),
            "s"),
        "checkpoint.capture_ms": (per_call_ms("checkpoint.capture", "total_s"), "ms"),
        "checkpoint.encode_ms": (per_call_ms("checkpoint.encode", "total_s"), "ms"),
        "checkpoint.bytes": (
            _ratio(counts["checkpoint.bytes"], row("checkpoint.encode")["calls"]),
            "B"),
        "checkpoint.merge_ms": (1000 * _ratio(
            row("checkpoint.decode")["total_s"] + merges["total_s"],
            merges["calls"]), "ms"),
        "backend.slice_ms": (per_call_ms("backend.slice", "total_s"), "ms"),
        "backend.wait_ms": (per_call_ms("backend.slice"), "ms"),
    }
    for counter in RESILIENCE:
        metrics[f"backend.{counter}"] = (outcomes.get(counter, 0), "count")
    for phase in ("import_s", "build_s", "warmup_s"):
        metrics[f"setup.{phase}"] = (
            statistics.median(sample[phase] for sample in setups), "s")
    metrics["trace.wall_s"] = (row(ROOT_SPAN)["total_s"], "s")
    metrics["trace.overhead"] = (
        _ratio(untraced_iters_per_s, traced_iters_per_s) - 1, "share")
    return metrics


def print_self_times(tracer):
    """Self time per layer; the column sums to the traced wall time."""
    layers = tracer.layer_times()
    wall = layers[ROOT_SPAN]["total_s"]
    print(f"   {'layer (traced run)':<22} {'calls':>8} {'self s':>10} {'share':>7}")
    for name, row in sorted(layers.items(), key=lambda item: -item[1]["self_s"]):
        print(f"   {name:<22} {row['calls']:>8} {row['self_s']:>10.3f} "
              f"{row['self_s'] / wall:>7.1%}")
    total = sum(row["self_s"] for row in layers.values())
    print(f"   {'sum of self times':<22} {'':>8} {total:>10.3f}  "
          f"(traced wall time {wall:.3f} s)")
