"""Execution-backend scaling: serial vs the supervised work queue.

Not a paper figure: this benchmark guards the backend abstraction — the
supervised queue must produce *bit-identical* per-shard reports while
its wall-clock scales with worker count (on multi-core hosts; on a
single core the checkpoint round-trips, heartbeats and claim/result
messaging make it strictly slower, which the persisted JSON records
honestly).  Two rows: ``run_iterations`` is a single slice, while
``run_for_virtual_time`` over 8 slices is where shard sessions staying
resident in the workers between slices shows.  No faults are injected.
Throughput is reported as instructions/sec and iterations/sec from the
best-of-variant wall time.  This is a record, not a gate: the CI perf gate
is ``benchmarks/perf_gate.py`` (docs/PERF.md).
"""

import os
import time

from benchmarks.conftest import persist, print_header, scaled
from repro.campaign import (
    CampaignOrchestrator,
    CampaignSpec,
    SupervisedQueueBackend,
)


def _grid_specs(iterations_size=300):
    return [
        CampaignSpec()
        .with_fuzzer("turbofuzz", instructions_per_iteration=iterations_size,
                     seed=seed)
        .named(f"shard{index}")
        for index, seed in enumerate((0xA11CE, 0xB0B))
    ]


def _timed_run(backend, run):
    orchestrator = CampaignOrchestrator(_grid_specs(), backend=backend)
    start = time.perf_counter()
    run(orchestrator)
    elapsed = time.perf_counter() - start
    return orchestrator, elapsed


def _throughput(orchestrator, elapsed):
    """Harness-style throughput row for one backend run."""
    executed = sum(session.total_executed
                   for session in orchestrator.sessions.values())
    iterations = sum(len(session.history)
                     for session in orchestrator.sessions.values())
    return {
        "wall_s": elapsed,
        "instructions_per_sec": executed / elapsed if elapsed else None,
        "iterations_per_sec": iterations / elapsed if elapsed else None,
    }


def _compare(run):
    """Serial vs supervised for one way of running the grid; asserts the
    per-shard results are bit-identical."""
    serial, serial_s = _timed_run("serial", run)
    supervised, supervised_s = _timed_run(SupervisedQueueBackend(), run)

    assert supervised.coverage_series() == serial.coverage_series()
    assert supervised.shard_stats() == serial.shard_stats()

    return {
        "serial": _throughput(serial, serial_s),
        "supervised_queue": _throughput(supervised, supervised_s),
        "speedup": serial_s / supervised_s if supervised_s else None,
        "supervised_resilience": supervised.report().get("resilience"),
        "serial_report": serial.report(),
    }


def test_backend_scaling():
    iterations = scaled(15, 60)
    slices = 8
    # About 1.5 ms of virtual time per 300-instruction iteration, so the
    # sliced row runs roughly the same work as the single-slice row.
    budget_s = iterations * 0.0016
    result = {
        "shards": len(_grid_specs()),
        "iterations_per_shard": iterations,
        "cpu_count": os.cpu_count(),
        "run_iterations": _compare(
            lambda grid: grid.run_iterations(iterations)),
        "run_for_virtual_time": _compare(
            lambda grid: grid.run_for_virtual_time(
                budget_s, max_iterations=iterations, slices=slices)),
        "slices": slices,
        "virtual_budget_s": budget_s,
        "reports_identical": True,
    }
    persist("backend_scaling", result)
    print_header("Backend scaling: serial vs supervised queue (2-shard grid)")
    print(f"cpu_count={result['cpu_count']}")
    for row in ("run_iterations", "run_for_virtual_time"):
        rates = result[row]
        serial, supervised = rates["serial"], rates["supervised_queue"]
        print(f"{row:<21} serial={serial['wall_s']:.2f}s "
              f"({serial['instructions_per_sec']:.0f} instr/s)  "
              f"supervised={supervised['wall_s']:.2f}s "
              f"({supervised['instructions_per_sec']:.0f} instr/s)  "
              f"speedup={rates['speedup']:.2f}x")
    print("per-shard reports: identical (bit-for-bit)")
