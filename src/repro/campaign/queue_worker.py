"""Supervised campaign workers: the process side of the work-queue backend.

A worker is a **long-running** process: it loops on its own
multiprocessing task queue (the supervisor puts a task there only while
the worker is idle), runs each shard-slice task, and posts the advanced
checkpoint back on the shared result queue.

Shard sessions stay **resident** in the worker between slices.  A task
carries either ``checkpoint_json`` — the worker restores the shard from
it, replacing any session it already holds for that shard — or
``resident``, the token (the producing ``task_id``) of the session the
worker kept from an earlier slice; the held session runs only if its
token matches, and a mismatch is an error, never a silent run.  After
every slice the worker still captures the session and returns it as the
shard's recovery checkpoint; a task that raises drops the worker's
session for that shard, so the next task for it must carry a
checkpoint.

Alongside the task loop:

* a daemon **heartbeat thread** posts liveness beats every
  ``heartbeat_interval_s`` even while the main thread is deep in a slice,
  so the supervisor can tell "busy" from "dead";
* a :class:`RelayPublisher` subscribes to the worker session's private
  :class:`~repro.campaign.events.EventBus` and forwards sanitized,
  JSON-shaped event payloads over the **relay queue** — the cross-process
  event relay that lets grid-wide subscribers on the orchestrator's bus
  observe remote iterations;
* injected-fault directives attached to a task are applied at their
  stages via :func:`~repro.campaign.resilience.apply_fault_directives`
  (chaos testing; see :class:`~repro.campaign.resilience.FaultInjector`).

Everything crossing a queue is plain JSON-shaped data (checkpoints travel
as compact JSON strings), so results cannot depend on pickled object
graphs, and a re-dispatched task re-runs bit-identically from the same
last-good checkpoint.
"""

import queue
import threading

from repro.campaign.checkpoint import CampaignCheckpoint
from repro.campaign.events import EventBus
from repro.campaign.resilience import apply_fault_directives

DEFAULT_HEARTBEAT_S = 0.2

#: Event payload keys the supervisor adds on re-emission; the sanitizer
#: must never forward a colliding key from the remote payload.
_RESERVED_KEYS = frozenset({"session", "shard", "remote"})


def _plain(value):
    return value is None or isinstance(value, (bool, int, float, str))


def sanitize_event(event, payload):
    """Reduce a live event payload to JSON-shaped data for the relay.

    Live payloads carry heavyweight objects (the session, iteration, run
    result) that must not cross the process boundary; remote subscribers
    get the outcome dict plus the scalar fields."""
    if event == "milestone":
        data = {key: value for key, value in payload.items()
                if _plain(value) and key not in _RESERVED_KEYS}
        data["kind"] = payload.get("kind")
        return data
    data = {}
    outcome = payload.get("outcome")
    if outcome is not None:
        data["outcome"] = outcome.to_dict()
    if event == "new_coverage":
        data["new_points"] = payload.get("new_points")
    if event == "mismatch":
        mismatch = payload.get("mismatch")
        data["mismatch"] = (mismatch.describe()
                            if hasattr(mismatch, "describe") else repr(mismatch))
    return data


class RelayPublisher:
    """Forwards a worker session's events onto the relay queue.

    Delivery is best-effort by design: when the relay queue is full the
    event is shed (and counted) rather than stalling the iteration loop —
    campaign progress is never hostage to observers."""

    def __init__(self, relay_queue, shard, events):
        self.relay_queue = relay_queue
        self.shard = shard
        self.events = tuple(events)
        self.forwarded = 0
        self.dropped = 0

    def attach(self, bus):
        for event in self.events:
            bus.subscribe(event, self._handler(event))
        return bus

    def _handler(self, event):
        def forward(**payload):
            message = {
                "type": "event",
                "event": event,
                "shard": self.shard,
                "payload": sanitize_event(event, payload),
            }
            try:
                self.relay_queue.put_nowait(message)
                self.forwarded += 1
            except queue.Full:
                self.dropped += 1  # shed under backpressure, never block
        return forward


def execute_task(task, cache=None, relay_queue=None, bus=None, resident=None):
    """Run one shard slice and return the advanced checkpoint as compact
    JSON.

    ``resident`` maps shard label -> ``(token, session)``: the sessions
    this worker keeps between slices.  A task with ``checkpoint_json``
    restores the shard from it; a task with a ``resident`` token runs the
    held session if the token matches and raises otherwise (running
    whatever the worker does hold would silently fork the shard).  Either
    way the advanced session is then held under this task's
    ``task_id``.  The supervisor's degraded in-process fallback
    passes no ``resident`` map and always ships a checkpoint — the same
    code path, so both execution modes are bit-identical by construction.
    ``bus`` overrides the private per-session bus (the inline fallback
    passes the orchestrator's bus so local subscribers see full-fidelity
    events); a held session keeps the bus it was restored with."""
    label = task["label"]
    if "checkpoint_json" in task:
        if bus is None:
            bus = EventBus()
            if relay_queue is not None and task.get("relay"):
                RelayPublisher(relay_queue, label, task["relay"]).attach(bus)
        checkpoint = CampaignCheckpoint.from_json(task["checkpoint_json"])
        session = checkpoint.restore(bus=bus, cache=cache)
    else:
        token, session = (resident or {}).get(label, (None, None))
        if session is None or token != task["resident"]:
            raise RuntimeError(
                f"shard {label!r}: task wants resident session "
                f"{task['resident']!r}, worker holds {token!r}")
    command = task["command"]
    if command == "run_for_virtual_time":
        session.run_for_virtual_time(task["frontier"],
                                     max_iterations=task.get("max_iterations"))
    elif command == "run_iterations":
        session.run_iterations(task["count"])
    else:
        raise ValueError(f"unknown task command {command!r}")
    if resident is not None:
        resident[label] = (task["task_id"], session)
    return CampaignCheckpoint.capture(session).to_json()


def _heartbeat_loop(worker_id, result_queue, interval_s, stop):
    while not stop.wait(interval_s):
        try:
            result_queue.put_nowait({"type": "heartbeat", "worker": worker_id})
        except queue.Full:
            continue  # supervisor is behind; skip this beat


def worker_main(worker_id, task_queue, result_queue, relay_queue,
                heartbeat_interval_s=DEFAULT_HEARTBEAT_S):
    """The worker process entry point: loop until the ``None`` sentinel.

    A task that raises is reported as an ``error`` message, its shard's
    held session is dropped, and the loop continues — a poison shard must
    not take the worker (or the grid) down with it; retry/quarantine
    policy lives with the supervisor."""
    stop = threading.Event()
    beat = threading.Thread(
        target=_heartbeat_loop,
        args=(worker_id, result_queue, heartbeat_interval_s, stop),
        daemon=True,
    )
    beat.start()
    # One instrumentation cache per worker: successive slices of the same
    # grid restore identical layouts (layouts are read-only once built).
    from repro.campaign.cache import InstrumentationCache

    cache = InstrumentationCache()
    resident = {}  # label -> (token, session), at most one per shard
    try:
        while True:
            task = task_queue.get()
            if task is None:
                break
            result_queue.put({"type": "claim", "task_id": task["task_id"],
                              "worker": worker_id, "label": task["label"]})
            context = {"task": task, "drop": False, "checkpoint_json": None}
            directives = task.get("faults") or ()
            try:
                apply_fault_directives(directives, "pre", context)
                context["checkpoint_json"] = execute_task(
                    task, cache=cache, relay_queue=relay_queue,
                    resident=resident)
                apply_fault_directives(directives, "post", context)
                apply_fault_directives(directives, "result", context)
            except Exception as exc:  # poison shard: report, keep serving
                resident.pop(task["label"], None)
                result_queue.put({
                    "type": "error", "task_id": task["task_id"],
                    "worker": worker_id, "label": task["label"],
                    "error": f"{type(exc).__name__}: {exc}",
                })
                continue
            if context["drop"]:
                continue  # injected drop-result: supervisor recovers by deadline
            result_queue.put({
                "type": "result", "task_id": task["task_id"],
                "worker": worker_id, "label": task["label"],
                "checkpoint_json": context["checkpoint_json"],
            })
    finally:
        stop.set()
