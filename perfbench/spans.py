"""In-memory span tracing for the benchmark's traced run.

The program is not changed: the tracer replaces attributes on the classes
and the module of each layer's public entry points with timing wrappers,
and puts the originals back afterwards.  A span is ``[name, start, end,
parent, op]``: ``parent`` is the index of the enclosing span (``None`` for
the root) and ``op`` the benchmark operation the span belongs to.  Spans
stay in memory until :meth:`Tracer.write` at the end of the run.

A layer's self time is its spans' durations minus the time covered by
their direct children.  Every span lies inside the root span, so the self
times of all layers, the root's included, add up to the root's duration.
"""

import json
import time
from collections import defaultdict

ROOT_SPAN = "bench.loop"


class Tracer:
    """Collects spans and counters while :attr:`active`."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(float)
        self.op = None
        self.active = False
        self._patches = []

    # -- spans ------------------------------------------------------------------
    def open(self, name):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        popped = self.stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")

    def start(self):
        """Open the root span; spans are recorded until :meth:`stop`."""
        self.active = True
        return self.open(ROOT_SPAN)

    def stop(self):
        while self.stack:
            self.close(self.stack[-1])
        self.active = False

    # -- wrapping ---------------------------------------------------------------
    def _wrap(self, name, fn, observe):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if observe is not None:
                observe(tracer.counts, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attribute, name, observe=None):
        """Replace ``owner.attribute`` (a function, method, classmethod or
        staticmethod) with a wrapper recording a ``name`` span per call;
        ``observe(counts, result)`` runs after each traced call."""
        raw = owner.__dict__[attribute]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(name, raw.__func__, observe))
        else:
            wrapped = self._wrap(name, raw, observe)
        self._patches.append((owner, attribute, raw))
        setattr(owner, attribute, wrapped)

    def unpatch(self):
        for owner, attribute, raw in reversed(self._patches):
            setattr(owner, attribute, raw)
        self._patches.clear()

    # -- results ----------------------------------------------------------------
    def layer_times(self):
        """``name -> {"calls", "total_s", "self_s"}`` over closed spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        layers = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for index, (name, start, end, _, _) in enumerate(self.spans):
            row = layers[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[index]
        return dict(layers)

    def write(self, path):
        """Write one JSON object per span (JSON Lines)."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op,
                }) + "\n")


def _count_generated(counts, iteration):
    counts["fuzzer.generated"] += iteration.total_instructions


def _count_run(counts, result):
    counts["runs"] += 1
    counts["executed"] += result.executed_instructions
    counts["executed_fuzzing"] += result.executed_fuzzing
    counts["traps"] += result.traps
    counts["completed"] += result.completed
    counts["cycles"] += result.cycles
    counts["new_points"] += result.new_coverage
    counts["novel_runs"] += result.new_coverage > 0
    counts["mismatches"] += result.mismatch is not None


def _count_bytes(counts, text):
    counts["checkpoint.bytes"] += len(text)


def install(tracer):
    """Wrap every traced layer entry point; undo with ``tracer.unpatch()``."""
    from repro.baselines.cascade import CascadeFuzzer
    from repro.baselines.difuzzrtl import DifuzzRtlFuzzer
    from repro.campaign.checkpoint import CampaignCheckpoint
    from repro.campaign.session import CampaignSession
    from repro.fuzzer.fuzzer import TurboFuzzer
    from repro.harness import runner
    from repro.harness.snapshot import HardwareSnapshot

    for fuzzer_class in (TurboFuzzer, DifuzzRtlFuzzer, CascadeFuzzer):
        tracer.patch(fuzzer_class, "generate_iteration", "fuzzer.generate",
                     _count_generated)
        tracer.patch(fuzzer_class, "feedback", "fuzzer.feedback")
    tracer.patch(runner.IterationRunner, "run", "harness.run", _count_run)
    tracer.patch(runner, "build_image", "harness.build_image")
    tracer.patch(HardwareSnapshot, "capture", "harness.snapshot")
    tracer.patch(CampaignCheckpoint, "capture", "checkpoint.capture")
    tracer.patch(CampaignCheckpoint, "to_json", "checkpoint.encode", _count_bytes)
    tracer.patch(CampaignCheckpoint, "from_json", "checkpoint.decode")
    tracer.patch(CampaignCheckpoint, "restore", "checkpoint.restore")
    tracer.patch(CampaignSession, "load_state", "campaign.load_state")
    tracer.patch(CampaignSession, "run_iteration", "campaign.session")
