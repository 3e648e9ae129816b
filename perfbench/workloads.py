"""The benchmark's three workloads: ``tf-fuzz``, ``bughunt`` and ``grid``.

Each workload has a ``setup`` that builds what the measured phase runs
and warms the process with throw-away sessions, and a ``run`` that does a
fixed amount of closed-loop work: the next iteration, hunt or slice
starts only when the previous one has finished.  The amount of work is
set by ``--seconds`` through per-workload rates; at 30 seconds on the
2-vCPU reference host ``bughunt`` and ``grid`` measure about 27 s and
``tf-fuzz`` about 16 s (longer ``tf-fuzz`` runs add full garbage
collections of a growing heap, whose 10-300 ms pauses made the tail
latency swing by 30%).  The work does not depend on how fast the host is,
so the simulated results (and their digest) are a pure function of
``(seed, seconds)``.

The workload seed reaches the program only as per-session fuzzer seeds
made by ``derive_seed``, inside the :class:`CampaignSpec` of each session.
README.md says why each workload was chosen.
"""

import hashlib
import json
import multiprocessing
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.campaign import (
    CampaignCheckpoint,
    CampaignOrchestrator,
    CampaignSpec,
    InstrumentationCache,
    SupervisedQueueBackend,
    build_session,
    derive_seed,
)
from repro.dut import BUGS_BY_ID

from calibration import time_kernel

# Calibration of the work quota per measured second (2-vCPU host).
TF_CORES = ("rocket", "cva6", "boom")
TF_ITERATIONS_PER_S = 4.0         # per session; three sessions back to back
HUNT_ROUNDS = 3                   # every bug hunted three times per side
HW_CAP_PER_S = 0.5                # lockstep hunt cap: 15 iterations at 30 s
SW_CAP_PER_S = 1.0                # DifuzzRTL hunt cap: 30 iterations at 30 s
GRID_ROUND_S = 15.0               # one orchestrated grid round per 15 s
GRID_BUDGET_S = 0.1               # virtual seconds per grid round
GRID_SLICES = 20                  # 5 ms of virtual time per slice
GRID_WORKERS = 2
WARMUP_ITERATIONS = 1             # per throw-away warm-up session
SEED_STRIDE = 1000                # warm-up sessions draw seeds from here on


@dataclass
class Measured:
    """What one measured phase did and what its checks found."""

    wall_s: float = 0.0
    ops_s: list = field(default_factory=list)
    op_name: str = "iteration"
    instructions: int = 0
    iterations: int = 0
    coverage_points: int = 0
    failures: list = field(default_factory=list)  # failed ops, one entry each
    errors: list = field(default_factory=list)    # wrong or missing outputs
    digest_data: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    children_rss_mb: float = 0.0
    kernel_s: list = field(default_factory=list)  # after each op

    @property
    def digest(self):
        text = json.dumps(self.digest_data, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


class OpClock:
    """Closed-loop op timer: each op ends where the next one begins.

    After each op it times the calibration kernel; that time belongs to no
    op and is left out of the measured time."""

    def __init__(self, measured, tracer=None):
        self.measured = measured
        self.tracer = tracer
        self.last = None

    def begin(self):
        self.last = time.perf_counter()

    def end(self):
        now = time.perf_counter()
        measured = self.measured
        measured.ops_s.append(now - self.last)
        with span(self.tracer, "bench.calibration"):
            measured.kernel_s.append(time_kernel())
        self.last = time.perf_counter()
        if self.tracer is not None:
            self.tracer.op = len(measured.ops_s)

    def on_iteration(self, **_payload):
        self.end()


@contextmanager
def span(tracer, name):
    """A span around benchmark-side work (no-op when not tracing)."""
    if tracer is None or not tracer.active:
        yield
        return
    index = tracer.open(name)
    try:
        yield
    finally:
        tracer.close(index)


def _history_digest(session):
    return {
        "coverage_series": [[o.virtual_seconds, o.coverage_total]
                            for o in session.history],
        "executed": [o.executed_instructions for o in session.history],
        "virtual_clock_s": session.clock.seconds,
    }


def _warm(cache, specs, seed):
    """Run throw-away sessions so one-time process costs (decode caches,
    compiled templates, lazily built tables) are paid in set-up."""
    started = time.perf_counter()
    sessions = [build_session(spec.with_seed(derive_seed(seed, SEED_STRIDE + i)),
                              cache=cache)
                for i, spec in enumerate(specs)]
    built = time.perf_counter()
    for session in sessions:
        session.run_iterations(WARMUP_ITERATIONS)
    return built - started, time.perf_counter() - built


# ---------------------------------------------------------------------------
# tf-fuzz: the TurboFuzz hot loop (fig11 / perf-macro configuration)
# ---------------------------------------------------------------------------
def tf_specs(seed):
    return [CampaignSpec(name=f"turbofuzz_1000@{core}", core=core,
                         fuzzer="turbofuzz",
                         fuzzer_options={"instructions_per_iteration": 1000,
                                         "seed": derive_seed(seed, index)})
            for index, core in enumerate(TF_CORES)]


def setup_tf_fuzz(seed, seconds):
    started = time.perf_counter()
    cache = InstrumentationCache()
    specs = tf_specs(seed)
    sessions = [build_session(spec, cache=cache) for spec in specs]
    build_s = time.perf_counter() - started
    warm_build_s, warmup_s = _warm(cache, specs, seed)
    state = {"cache": cache, "sessions": sessions,
             "iterations": max(1, round(TF_ITERATIONS_PER_S * seconds))}
    return state, build_s + warm_build_s, warmup_s


def run_tf_fuzz(state, tracer=None):
    measured = Measured()
    clock = OpClock(measured, tracer)
    sessions = state["sessions"]
    for session in sessions:
        session.bus.on_iteration(clock.on_iteration)
    started = time.perf_counter()
    for session in sessions:
        clock.begin()
        for _ in range(state["iterations"]):
            try:
                session.run_iteration()
            except Exception as exc:  # a failed op; the session is unusable
                measured.failures.append(f"{session.spec.label}: {exc!r}")
                measured.errors.append(f"iteration raised: {exc!r}")
                break
    measured.wall_s = time.perf_counter() - started
    return measured


def check_tf_fuzz(state, measured):
    for session in state["sessions"]:
        measured.instructions += session.total_executed
        measured.iterations += session.iterations
        measured.coverage_points += session.coverage_total
        measured.digest_data[session.spec.label] = _history_digest(session)
        text = CampaignCheckpoint.capture(session).to_json()
        restored = CampaignCheckpoint.from_json(text).restore(cache=state["cache"])
        if restored.state_dict() != session.state_dict():
            measured.errors.append(
                f"{session.spec.label}: checkpoint JSON round trip restored "
                "a different state_dict()")


# ---------------------------------------------------------------------------
# bughunt: Table II, a lockstep TurboFuzz hunt and a DifuzzRTL hunt per bug
# ---------------------------------------------------------------------------
def hunt_specs(seed):
    """``[(bug_id, side, spec)]`` in hunt order: HUNT_ROUNDS rounds over the
    sorted bug ids, lockstep hunt first.  C8 needs an RV32A-only core and
    R1 an ebreak-emitting fuzzer to be reachable at all, as in
    ``table2_bug_detection``."""
    hunts = []
    bug_ids = sorted(BUGS_BY_ID)
    for round_index in range(HUNT_ROUNDS):
        for index, bug_id in enumerate(bug_ids):
            base = CampaignSpec(core=BUGS_BY_ID[bug_id].core, bugs=(bug_id,),
                                rv32a_only=bug_id == "C8",
                                tweaks=("allow_ebreak",) if bug_id == "R1" else ())
            first = 2 * (round_index * len(bug_ids) + index)
            lockstep = base.with_fuzzer(
                "turbofuzz", instructions_per_iteration=1000,
                seed=derive_seed(seed, first),
            ).with_checking(with_ref=True, capture_snapshots=True)
            difuzzrtl = base.with_fuzzer("difuzzrtl",
                                         seed=derive_seed(seed, first + 1))
            suffix = f"{bug_id}#{round_index}"
            hunts.append((bug_id, "lockstep", lockstep.named(f"lockstep:{suffix}")))
            hunts.append((bug_id, "difuzzrtl", difuzzrtl.named(f"difuzzrtl:{suffix}")))
    return hunts


def setup_bughunt(seed, seconds):
    started = time.perf_counter()
    cache = InstrumentationCache()
    hunts = hunt_specs(seed)
    # One warm-up session per (side, core): hunts reuse the cache's layouts.
    kinds = {}
    for _, side, spec in hunts:
        kinds.setdefault((side, spec.core), spec.named(f"warmup:{side}@{spec.core}"))
    build_s = time.perf_counter() - started
    warm_build_s, warmup_s = _warm(cache, list(kinds.values()), seed)
    state = {"cache": cache, "hunts": hunts,
             "hw_cap": max(1, round(HW_CAP_PER_S * seconds)),
             "sw_cap": max(1, round(SW_CAP_PER_S * seconds))}
    return state, build_s + warm_build_s, warmup_s


def _hunt(session, bug_id, side, caps):
    """Run one capped hunt; returns ``(outcome, detail)`` where outcome is
    detected / missed (cap reached, hook never fired) / escaped (hook
    fired, nothing flagged) / false-mismatch (flagged, hook never fired)."""
    fired = session.core.hooks.triggered
    if side == "lockstep":
        _, mismatch = session.run_until_mismatch(max_iterations=caps["hw_cap"])
        if mismatch is not None:
            if bug_id in fired:
                return "detected", session.clock.seconds
            return "false-mismatch", mismatch.describe()
        return ("escaped" if bug_id in fired else "missed"), None
    seconds = session.run_until_bug_triggered(
        bug_id, max_iterations=caps["sw_cap"], coarse_detection=(1, 2))
    return ("detected" if seconds is not None else "missed"), seconds


def run_bughunt(state, tracer=None):
    measured = Measured()
    clock = OpClock(measured, tracer)
    hunts = state["outcomes"] = []
    started = time.perf_counter()
    for bug_id, side, spec in state["hunts"]:
        with span(tracer, "campaign.build"):
            session = build_session(spec, cache=state["cache"])
        session.bus.on_iteration(clock.on_iteration)
        clock.begin()
        try:
            outcome, detail = _hunt(session, bug_id, side, state)
        except Exception as exc:
            outcome, detail = "raised", repr(exc)
        # Keep a summary, not the session: finished hunts need no memory.
        hunts.append({
            "label": spec.name, "outcome": outcome, "detail": detail,
            "executed": session.total_executed,
            "iterations": session.iterations,
            "coverage": session.coverage_total,
            "history": _history_digest(session),
        })
    measured.wall_s = time.perf_counter() - started
    return measured


def check_bughunt(state, measured):
    counts = measured.counts
    for key in ("detected", "missed", "escaped", "false-mismatch", "raised"):
        counts[key] = 0
    digest = []
    for hunt in state["outcomes"]:
        outcome, label = hunt["outcome"], hunt["label"]
        counts[outcome] += 1
        if outcome == "escaped":
            measured.failures.append(f"{label} escaped: the bug hook fired "
                                     "but no mismatch was flagged")
        elif outcome in ("false-mismatch", "raised"):
            measured.failures.append(f"{label} {outcome}: {hunt['detail']}")
            measured.errors.append(f"{label} {outcome}: {hunt['detail']}")
        measured.instructions += hunt["executed"]
        measured.iterations += hunt["iterations"]
        measured.coverage_points += hunt["coverage"]
        digest.append({"hunt": label, "outcome": outcome,
                       "detected_at_s": (hunt["detail"] if outcome == "detected"
                                         else None),
                       **hunt["history"]})
    measured.digest_data["hunts"] = digest


# ---------------------------------------------------------------------------
# grid: the four Fig. 11 shards on the supervised work-queue backend
# ---------------------------------------------------------------------------
def grid_specs(seed, round_index):
    seeds = [derive_seed(seed, 4 * round_index + i) for i in range(4)]
    return [
        CampaignSpec(name="turbofuzz_4000", fuzzer="turbofuzz", fuzzer_options={
            "corpus_policy": "coverage", "instructions_per_iteration": 4000,
            "seed": seeds[0]}),
        CampaignSpec(name="turbofuzz_1000", fuzzer="turbofuzz", fuzzer_options={
            "corpus_policy": "coverage", "instructions_per_iteration": 1000,
            "seed": seeds[1]}),
        CampaignSpec(name="cascade", fuzzer="cascade",
                     fuzzer_options={"seed": seeds[2]}),
        CampaignSpec(name="difuzzrtl", fuzzer="difuzzrtl",
                     fuzzer_options={"seed": seeds[3]}),
    ]


def setup_grid(seed, seconds):
    started = time.perf_counter()
    cache = InstrumentationCache()
    rounds = max(1, round(seconds / GRID_ROUND_S))
    build_s = time.perf_counter() - started
    warm_build_s, warmup_s = _warm(cache, grid_specs(seed, 0), seed)
    return {"cache": cache, "seed": seed, "rounds": rounds}, build_s + warm_build_s, warmup_s


def _children_rss_mb():
    """Sum of the live child processes' peak resident set sizes."""
    total_kb = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue  # exited between listing and reading
    return total_kb / 1024


def _summarize_round(index, grid):
    """What the checks need from one round; the round's orchestrator is
    then dropped, so later rounds do not run beside its memory."""
    report = grid.report()
    return {
        "round": index,
        "counters": report["resilience"]["counters"],
        "shards": {label: {"health": health,
                           "clock_s": grid[label].clock.seconds,
                           "executed": grid[label].total_executed,
                           "iterations": grid[label].iterations,
                           "coverage": grid[label].coverage_total,
                           "history": _history_digest(grid[label])}
                   for label, health in report["shard_health"].items()},
    }


def run_grid(state, tracer=None):
    measured = Measured(op_name="slice")
    clock = OpClock(measured, tracer)
    slice_span = [None]

    def on_milestone(kind, step=None, slices=None, **_payload):
        if kind != "time_slice":
            return
        clock.end()
        measured.children_rss_mb = max(measured.children_rss_mb,
                                       _children_rss_mb())
        if slice_span[0] is not None:
            tracer.close(slice_span[0])
            slice_span[0] = tracer.open("backend.slice") if step < slices else None

    rounds = state["rounds_done"] = []
    started = time.perf_counter()
    for index in range(state["rounds"]):
        with span(tracer, "campaign.build"):
            grid = CampaignOrchestrator(
                grid_specs(state["seed"], index), cache=state["cache"],
                backend=SupervisedQueueBackend(workers=GRID_WORKERS))
        grid.bus.on_milestone(on_milestone)
        if tracer is not None and tracer.active:
            slice_span[0] = tracer.open("backend.slice")
        clock.begin()
        grid.run_for_virtual_time(GRID_BUDGET_S, slices=GRID_SLICES)
        rounds.append(_summarize_round(index, grid))
        del grid
    measured.wall_s = time.perf_counter() - started
    return measured


def check_grid(state, measured):
    counts = measured.counts
    for summary in state["rounds_done"]:
        index = summary["round"]
        for key, value in summary["counters"].items():
            counts[key] = counts.get(key, 0) + value
        for key in ("failures", "redispatches", "requeues", "timeouts"):
            measured.failures.extend(
                [f"round {index}: {key}"] * summary["counters"][key])
        for label, shard in summary["shards"].items():
            if shard["health"] != "ok":
                measured.failures.append(f"round {index}: {label} {shard['health']}")
                measured.errors.append(
                    f"round {index}: shard {label} is {shard['health']}")
            elif shard["clock_s"] < GRID_BUDGET_S:
                measured.errors.append(
                    f"round {index}: shard {label} stopped at "
                    f"{shard['clock_s']} s of {GRID_BUDGET_S} s")
            measured.instructions += shard["executed"]
            measured.iterations += shard["iterations"]
            measured.coverage_points += shard["coverage"]
            measured.digest_data[f"{index}:{label}"] = shard["history"]


WORKLOADS = {
    "tf-fuzz": (setup_tf_fuzz, run_tf_fuzz, check_tf_fuzz),
    "bughunt": (setup_bughunt, run_bughunt, check_bughunt),
    "grid": (setup_grid, run_grid, check_grid),
}
