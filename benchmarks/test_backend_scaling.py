"""Execution-backend scaling: serial vs the supervised work queue.

Not a paper figure: this benchmark guards the backend abstraction — the
supervised queue must produce *bit-identical* per-shard reports while
its wall-clock scales with worker count (on multi-core hosts; on a
single core the checkpoint round-trips, heartbeats and claim/result
messaging make it strictly slower, which the persisted JSON records
honestly).  No faults are injected.  Throughput is reported through the
``repro.perf`` harness conventions (instructions/sec + iterations/sec,
best-of-variant wall time) so the numbers line up with
``perf_baseline.json``.
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


def _timed_run(backend, iterations):
    orchestrator = CampaignOrchestrator(_grid_specs(), backend=backend)
    start = time.perf_counter()
    orchestrator.run_iterations(iterations)
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


def test_backend_scaling():
    iterations = scaled(15, 60)
    serial, serial_s = _timed_run("serial", iterations)
    supervised, supervised_s = _timed_run(SupervisedQueueBackend(), iterations)

    assert supervised.coverage_series() == serial.coverage_series()
    assert supervised.shard_stats() == serial.shard_stats()

    serial_rate = _throughput(serial, serial_s)
    supervised_rate = _throughput(supervised, supervised_s)
    result = {
        "shards": len(serial.labels),
        "iterations_per_shard": iterations,
        "cpu_count": os.cpu_count(),
        "serial": serial_rate,
        "supervised_queue": supervised_rate,
        "speedup": serial_s / supervised_s if supervised_s else None,
        "supervised_resilience": supervised.report().get("resilience"),
        "reports_identical": True,
        "serial_report": serial.report(),
    }
    persist("backend_scaling", result)
    print_header("Backend scaling: serial vs supervised queue (2-shard grid)")
    print(f"cpu_count={result['cpu_count']}  "
          f"serial={serial_s:.2f}s ({serial_rate['instructions_per_sec']:.0f} instr/s)  "
          f"supervised={supervised_s:.2f}s "
          f"({supervised_rate['instructions_per_sec']:.0f} instr/s)  "
          f"speedup={result['speedup']:.2f}x")
    print("per-shard reports: identical (bit-for-bit)")
