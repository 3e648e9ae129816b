"""Pluggable execution backends: how an orchestrator advances its shards.

PR 1's orchestrator advanced every shard inline, single-threaded.  The
scheduling *policy* (batched round-robin on a shared virtual-time axis)
is unchanged, but the *mechanism* is now a backend behind the
:data:`BACKENDS` registry:

* :class:`SerialBackend` — the extracted in-process loops, behaviour
  identical to PR 1 bit for bit;
* :class:`SupervisedQueueBackend` — long-running worker processes
  consuming shard-slice tasks from a multiprocessing queue.  A shard
  first travels to a worker as a
  :class:`~repro.campaign.checkpoint.CampaignCheckpoint`; its session
  then stays resident there, and later slices of that shard go to the
  same worker by token whenever it is idle.  Every slice still returns
  the advanced checkpoint, which the supervisor decodes, validates and
  keeps as the shard's last-good recovery point; the orchestrator's
  sessions load those states once, when the run call returns.  Shards
  share no mutable state, so per-shard results match the serial backend
  bit for bit; only wall-clock changes.  Workers are supervised with
  heartbeats: a dead, hung, or silent worker is respawned and its shard's
  last good checkpoint re-dispatched (idempotent — the re-run slice
  reproduces the same state); a shard that keeps failing is
  quarantined instead of aborting the grid; when workers cannot be
  (re)spawned at all the supervisor degrades to in-process execution.
  Workers forward session events over a relay queue, so grid-wide
  subscribers on the orchestrator's bus observe remote iterations
  (re-emitted with ``remote=True``, ``shard=<label>``, and JSON-shaped
  payloads — see :mod:`repro.campaign.queue_worker`).

Recovery runs through :class:`~repro.campaign.resilience.ShardRecovery`
driven by a :class:`~repro.campaign.resilience.FaultPolicy`, and a
:class:`~repro.campaign.resilience.FaultInjector` makes chaos testing
reproducible.  Custom fuzzers/cores/instrumentations registered by the
parent are visible to workers on fork-capable platforms (Linux); on
spawn-only platforms workers know the built-ins plus whatever registers
at import time.
"""

import contextlib
import os
import queue
import time  # analyze: ignore[DET001] supervision deadlines/backoff; never feeds campaign state
from collections import namedtuple

from repro.campaign.checkpoint import CampaignCheckpoint, CheckpointError
from repro.campaign.queue_worker import execute_task, worker_main
from repro.campaign.resilience import FaultPolicy, ShardRecovery
from repro.registry import Registry

BACKENDS = Registry("execution backend")


def register_backend(name, backend_class=None, replace=False):
    """Register an :class:`ExecutionBackend` class; usable directly or as
    a class decorator."""
    return BACKENDS.register(name, backend_class, replace=replace)


def resolve_backend(backend):
    """Normalize ``backend`` (None / name / class / instance) to an instance."""
    if backend is None:
        backend = "serial"
    if isinstance(backend, str):
        backend = BACKENDS.get(backend)
    if isinstance(backend, type):
        backend = backend()
    return backend


class ExecutionBackend:
    """How shards advance.  Backends receive the orchestrator and drive its
    sessions; they must preserve the invariant that each shard's results
    are identical to running that session alone for the same budget."""

    name = "base"

    def run_for_virtual_time(self, orchestrator, budget_seconds,
                             max_iterations=None, slices=8):
        raise NotImplementedError

    def run_iterations(self, orchestrator, count, batch=16):
        raise NotImplementedError


def _slice_frontiers(budget_seconds, slices):
    """The shared virtual-time frontiers; the last one is exactly the
    budget (no floating-point shortfall on the final slice)."""
    slices = max(1, int(slices))
    return [
        budget_seconds if step == slices else budget_seconds * step / slices
        for step in range(1, slices + 1)
    ]


def _make_task(label, shard_index, command, *, frontier=None,
               max_iterations=None, count=None, relay=()):
    """One shard-slice unit of work, as plain JSON-shaped data.  The
    supervisor adds the shard's checkpoint or residency token when it
    hands the task to a worker."""
    task = {
        "label": label,
        "shard_index": shard_index,
        "command": command,
    }
    if relay:
        task["relay"] = list(relay)
    if command == "run_for_virtual_time":
        task["frontier"] = frontier
        task["max_iterations"] = max_iterations
    else:
        task["count"] = count
    return task


@register_backend("serial")
class SerialBackend(ExecutionBackend):
    """In-process batched round-robin (PR 1's inline loops, extracted)."""

    name = "serial"

    def run_for_virtual_time(self, orchestrator, budget_seconds,
                             max_iterations=None, slices=8):
        frontiers = _slice_frontiers(budget_seconds, slices)
        for step, frontier in enumerate(frontiers, start=1):
            for label, session in orchestrator.sessions.items():
                session.run_for_virtual_time(frontier,
                                             max_iterations=max_iterations)
            orchestrator.bus.milestone(
                "time_slice", orchestrator=orchestrator, frontier=frontier,
                step=step, slices=len(frontiers))
        for label, session in orchestrator.sessions.items():
            orchestrator.bus.milestone("shard_done", orchestrator=orchestrator,
                                       shard=label, session=session)

    def run_iterations(self, orchestrator, count, batch=16):
        remaining = {label: count for label in orchestrator.sessions}
        while any(remaining.values()):
            for label, session in orchestrator.sessions.items():
                for _ in range(min(batch, remaining[label])):
                    session.run_iteration()
                    remaining[label] -= 1
        for label, session in orchestrator.sessions.items():
            orchestrator.bus.milestone("shard_done", orchestrator=orchestrator,
                                       shard=label, session=session)


def _preferred_context():
    """Fork where available: workers inherit third-party registry
    entries (custom fuzzers/cores/instrumentations)."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


# ---------------------------------------------------------------------------
# Supervised work-queue backend
# ---------------------------------------------------------------------------
#: A shard's last-good result: ``token`` is the ``task_id`` that produced
#: it (None for the state captured at run start), ``checkpoint_json`` the
#: validated wire text a restore ships, ``state`` its decoded state, and
#: ``worker`` the worker holding that token's live session (None when no
#: worker may be trusted to).
_LastGood = namedtuple("_LastGood", "token checkpoint_json state worker")


class _Supervisor:
    """One backend run's worker fleet, queues, and supervision loop.

    Every worker has its own task queue, and the supervisor hands a task
    to a worker only when that worker is idle.  A worker it terminates
    can therefore hold no lock that a surviving worker needs: a process
    killed while blocked reading a *shared* queue would keep that
    queue's read lock forever and wedge every other worker.

    The failure/recovery state machine per task: *dispatched* →
    *assigned* (put on an idle worker's queue) → *claimed* (the worker
    announced pickup) → *result* | *error* | *timeout* | *worker lost*.
    Assignment prefers the idle worker whose resident session carries
    the shard's last-good token and sends it ``resident=<token>``; any
    other worker gets the last-good ``checkpoint_json``.  A result is
    decoded and validated, then kept as the shard's new last-good entry
    (with its worker as the new holder) at the slice frontier.  Every
    non-result outcome clears the shard's holder, so its retry ships the
    checkpoint, and routes through :meth:`ShardRecovery.record_failure`,
    which either re-dispatches (after deterministic backoff) or
    quarantines the shard.  Worker loss triggers a respawn; when the
    respawn budget is exhausted or spawning fails outright, the
    supervisor emits ``degraded`` and falls back to in-process execution
    of the remaining tasks — same :func:`execute_task` code path, so
    results stay bit-identical.
    """

    POLL_S = 0.05

    def __init__(self, backend, orchestrator):
        self.backend = backend
        self.orchestrator = orchestrator
        self.policy = backend.policy
        self.injector = backend.injector
        self.recovery = ShardRecovery(self.policy, bus=orchestrator.bus,
                                      health=orchestrator.shard_health)
        self.inline = False
        # Each shard is captured once per run; results replace the entry.
        self._last_good = {}
        for label, session in orchestrator.sessions.items():
            checkpoint = CampaignCheckpoint.capture(session)
            self._last_good[label] = _LastGood(
                None, checkpoint.to_json(), checkpoint.state, None)
        self._context = None
        self._workers = {}     # worker_id -> Process
        self._last_beat = {}   # worker_id -> monotonic seconds
        self._inboxes = {}     # worker_id -> that worker's task queue
        self._assigned = {}    # worker_id -> task_id it is working on
        self._stale = set()    # task_ids whose late results must be ignored
        self._next_task_id = 0
        self._next_worker_id = 0
        self._respawns = 0
        try:
            context = _preferred_context()
            self.result_queue = context.Queue()
            self.relay_queue = context.Queue(maxsize=4096)
            self._context = context
        except Exception as exc:
            self._degrade(f"multiprocessing unavailable: {exc}")
            return
        shard_count = len(orchestrator.sessions)
        target = backend.workers or min(shard_count,
                                        max(1, os.cpu_count() or 1))
        self._target_workers = max(1, target)
        for _ in range(self._target_workers):
            if not self._spawn_worker():
                break
        if not self._workers:
            self._degrade("no workers could be spawned")

    # -- fleet ------------------------------------------------------------------
    def _spawn_worker(self):
        try:
            worker_id = self._next_worker_id
            inbox = self._context.Queue()
            process = self._context.Process(
                target=worker_main,
                args=(worker_id, inbox, self.result_queue, self.relay_queue),
                kwargs={"heartbeat_interval_s":
                        self.policy.heartbeat_interval_s},
                daemon=True, name=f"campaign-worker-{worker_id}")
            process.start()
        except Exception:
            self.recovery.note("respawn_failures")
            return False
        self._next_worker_id = worker_id + 1
        self._workers[worker_id] = process
        self._inboxes[worker_id] = inbox
        self._last_beat[worker_id] = time.monotonic()
        self.recovery.note("spawns")
        return True

    def _ensure_workers(self, outstanding):
        """Respawn toward the target while work is outstanding; shrink the
        target (degrading gracefully) when spawning keeps failing."""
        if self.inline or not outstanding:
            return
        while len(self._workers) < self._target_workers:
            if self._respawns >= self.policy.max_respawns:
                self._degrade("respawn budget exhausted")
                return
            self._respawns += 1
            self.recovery.note("respawns")
            if not self._spawn_worker():
                self._target_workers -= 1
                if self._target_workers <= 0 or not self._workers:
                    self._degrade("respawn kept failing")
                else:
                    self.recovery.degraded("respawn failed",
                                           workers_left=len(self._workers))
                return

    def _degrade(self, reason):
        """Fall back to in-process execution (the last resort: correctness
        is preserved — same execute_task path — at serial speed)."""
        self.inline = True
        self.recovery.degraded(reason, workers_left=len(self._workers))

    # -- dispatch ---------------------------------------------------------------
    def _take_task_id(self):
        task_id = self._next_task_id
        self._next_task_id += 1
        return task_id

    def eligible(self, frontier, max_iterations):
        """(label, shard_index) pairs that still need this slice, judged
        from each shard's last-good state."""
        rows = []
        for shard_index, (label, good) in enumerate(self._last_good.items()):
            if self.recovery.health.get(label) == "quarantined":
                continue
            if frontier is not None and good.state["clock"]["seconds"] >= frontier:
                continue  # already past: the worker would no-op
            if (max_iterations is not None
                    and len(good.state["history"]) >= max_iterations):
                continue
            rows.append((label, shard_index))
        return rows

    def _dispatch(self, template, slice_index, attempt, pending):
        task = {key: value for key, value in template.items()
                if key not in ("task_id", "faults", "attempt")}
        task_id = self._take_task_id()
        task["task_id"] = task_id
        task["attempt"] = attempt
        task["slice_index"] = slice_index
        if self.injector is not None:
            faults = self.injector.faults_for(task["shard_index"], slice_index,
                                              attempt)
            if faults:
                task["faults"] = faults
                self.recovery.note("faults_injected", len(faults))
        pending[task_id] = {"task": task, "worker": None, "claimed_at": None,
                            "assigned_at": None}

    def _assign(self, pending):
        """Hand unassigned tasks to idle workers: first every task whose
        shard is resident on an idle worker, then the rest in dispatch
        order."""
        idle = [worker_id for worker_id in sorted(self._workers)
                if worker_id not in self._assigned]
        waiting = [(task_id, record)
                   for task_id, record in sorted(pending.items())
                   if record["worker"] is None]
        for task_id, record in waiting:
            holder = self._last_good[record["task"]["label"]].worker
            if holder in idle:
                idle.remove(holder)
                self._send(holder, task_id, record)
        for task_id, record in waiting:
            if not idle:
                return
            if record["worker"] is None:
                self._send(idle.pop(0), task_id, record)

    def _send(self, worker_id, task_id, record):
        task = record["task"]
        good = self._last_good[task["label"]]
        if good.worker == worker_id:
            self.recovery.note("resident_runs")
            message = dict(task, resident=good.token)
        else:
            self.recovery.note("checkpoint_restores")
            message = dict(task, checkpoint_json=good.checkpoint_json)
        record["worker"] = worker_id
        record["assigned_at"] = time.monotonic()
        self._assigned[worker_id] = task_id
        self._inboxes[worker_id].put(message)

    def _forget_holder(self, label):
        """The shard's task failed: whatever session a worker still holds
        for it is suspect, so its next dispatch ships the checkpoint."""
        self._last_good[label] = self._last_good[label]._replace(worker=None)

    def _fail_task(self, task_id, pending, delayed, slice_index, reason):
        record = pending.pop(task_id, None)
        if record is None:
            return
        self._stale.add(task_id)
        task = record["task"]
        label = task["label"]
        self._forget_holder(label)
        action, backoff = self.recovery.record_failure(
            label, slice_index=slice_index, shard_index=task["shard_index"],
            reason=reason)
        if action == ShardRecovery.QUARANTINE:
            return
        attempt = self.recovery.attempts_for(label, slice_index)
        delayed.append([time.monotonic() + backoff, task, attempt])

    def _requeue_unclaimed(self, task_id, pending, delayed, slice_index):
        """The worker died before claiming its task: the task never
        started, so re-dispatch it without charging the shard a
        failure."""
        record = pending.pop(task_id)
        self._stale.add(task_id)
        task = record["task"]
        self._forget_holder(task["label"])
        self.recovery.requeue(task["label"], slice_index,
                              "worker-lost-unclaimed")
        # attempt+1 suppresses first-attempt fault injection: the
        # directive that killed the worker must not fire forever.
        delayed.append([time.monotonic(), task, task["attempt"] + 1])

    # -- supervision loop -------------------------------------------------------
    def execute_slice(self, slice_index, templates):
        """Run one slice frontier's tasks to completion (or quarantine);
        each completed shard's result becomes its last-good entry."""
        results = {}
        if self.inline:
            for label in sorted(templates):
                self._run_inline(templates[label], slice_index, results)
        else:
            self._supervise(slice_index, templates, results)
        self._last_good.update(results)

    def sync(self):
        """Load every shard's last-good state into the orchestrator's
        session, in label order: the run's one main-process merge."""
        for label, good in self._last_good.items():
            if good.token is not None:
                self.orchestrator.sessions[label].load_state(good.state)

    def _supervise(self, slice_index, templates, results):
        pending = {}
        delayed = []  # [not_before, task-template, attempt]
        now = time.monotonic()
        for worker_id in self._last_beat:
            self._last_beat[worker_id] = now  # we weren't listening between slices
        for label in sorted(templates):
            self._dispatch(templates[label], slice_index, 0, pending)
        while pending or delayed:
            if self.inline:
                for task_id, record in sorted(pending.items()):
                    self._stale.add(task_id)
                    self._run_inline(record["task"], slice_index, results)
                for _, task, _ in delayed:
                    self._run_inline(task, slice_index, results)
                pending.clear()
                delayed.clear()
                break
            now = time.monotonic()
            ready = [entry for entry in delayed if now >= entry[0]]
            if ready:
                delayed[:] = [entry for entry in delayed if now < entry[0]]
                for _, task, attempt in ready:
                    self._dispatch(task, slice_index, attempt, pending)
            self._assign(pending)
            self._drain_relay()
            self._pump_results(pending, delayed, results, slice_index)
            self._reap_workers(pending, delayed, slice_index)
            self._check_heartbeats()
            self._check_deadlines(pending, delayed, slice_index)
            self._ensure_workers(pending or delayed)
        self._drain_relay()

    def _run_inline(self, template, slice_index, results):
        """Degraded-mode execution: same task, same code path, this
        process, fault directives ignored (chaos targets workers)."""
        label = template["label"]
        if self.recovery.health.get(label) == "quarantined":
            return
        task = {key: value for key, value in template.items()
                if key not in ("faults", "relay")}
        task["checkpoint_json"] = self._last_good[label].checkpoint_json
        while True:
            self.recovery.note("inline_tasks")
            self.recovery.note("checkpoint_restores")
            try:
                text = execute_task(task, cache=self.orchestrator.cache,
                                    bus=self.orchestrator.bus)
                advanced = CampaignCheckpoint.from_json(text)
                results[label] = _LastGood(self._take_task_id(), text,
                                           advanced.state, None)
                break
            except Exception as exc:
                action, backoff = self.recovery.record_failure(
                    label, slice_index=slice_index,
                    shard_index=task["shard_index"],
                    reason=f"inline-error: {exc}")
                if action == ShardRecovery.QUARANTINE:
                    break
                if backoff:
                    time.sleep(backoff)

    # -- message handling -------------------------------------------------------
    def _pump_results(self, pending, delayed, results, slice_index):
        try:
            message = self.result_queue.get(timeout=self.POLL_S)
        except queue.Empty:
            return
        self._handle_message(message, pending, delayed, results, slice_index)
        while True:
            try:
                message = self.result_queue.get_nowait()
            except queue.Empty:
                return
            self._handle_message(message, pending, delayed, results,
                                 slice_index)

    def _handle_message(self, message, pending, delayed, results, slice_index):
        worker_id = message.get("worker")
        if worker_id is not None:
            self._last_beat[worker_id] = time.monotonic()
        mtype = message.get("type")
        if mtype == "heartbeat":
            return
        task_id = message.get("task_id")
        if mtype == "claim":
            record = pending.get(task_id)
            if record is not None and record["worker"] == worker_id:
                record["claimed_at"] = time.monotonic()
            return
        if self._assigned.get(worker_id) == task_id:
            self._assigned.pop(worker_id)  # the worker is idle again
            self._assign(pending)  # before decoding: keep the worker busy
        if task_id in self._stale or task_id not in pending:
            return  # late twin of a re-dispatched task; merges are idempotent
        record = pending[task_id]
        if mtype == "result":
            try:
                advanced = CampaignCheckpoint.from_json(
                    message["checkpoint_json"])
            except CheckpointError:
                self.recovery.note("corrupt_checkpoints")
                self._fail_task(task_id, pending, delayed, slice_index,
                                "corrupt-checkpoint")
                return
            results[record["task"]["label"]] = _LastGood(
                task_id, message["checkpoint_json"], advanced.state,
                worker_id)
            pending.pop(task_id)
        elif mtype == "error":
            self.recovery.note("worker_errors")
            self._fail_task(task_id, pending, delayed, slice_index,
                            message.get("error", "worker-error"))

    # -- liveness ---------------------------------------------------------------
    def _terminate(self, worker_id):
        """Stop a worker; it takes no new task before the reaper sees it
        exit (and fails whatever task it still holds)."""
        self._assigned.setdefault(worker_id, None)
        self._workers[worker_id].terminate()

    def _reap_workers(self, pending, delayed, slice_index):
        for worker_id, process in list(self._workers.items()):
            if process.is_alive():
                continue
            process.join(timeout=0)
            self._workers.pop(worker_id)
            self._last_beat.pop(worker_id, None)
            self._close(self._inboxes.pop(worker_id))
            task_id = self._assigned.pop(worker_id, None)
            record = pending.get(task_id)
            label = record["task"]["label"] if record else None
            self.recovery.worker_lost(worker_id, label=label,
                                      exit_code=process.exitcode)
            if record is None:
                continue
            if record["claimed_at"] is None:
                self._requeue_unclaimed(task_id, pending, delayed,
                                        slice_index)
            else:
                self._fail_task(task_id, pending, delayed, slice_index,
                                "worker-lost")

    def _check_heartbeats(self):
        """A worker silent past the heartbeat deadline is presumed wedged
        (beats flow from a daemon thread even mid-slice) and terminated;
        the reaper then handles it like any other death."""
        now = time.monotonic()
        for worker_id, last in list(self._last_beat.items()):
            if now - last <= self.policy.heartbeat_timeout_s:
                continue
            process = self._workers.get(worker_id)
            if process is None:
                continue
            self.recovery.note("heartbeat_losses")
            self._last_beat.pop(worker_id, None)  # terminate exactly once
            self._terminate(worker_id)

    def _check_deadlines(self, pending, delayed, slice_index):
        now = time.monotonic()
        timeout = self.policy.slice_timeout_s
        for task_id, record in list(pending.items()):
            started = record["claimed_at"] or record["assigned_at"]
            if started is None or now - started <= timeout:
                continue  # unassigned tasks wait for an idle worker
            self.recovery.note("timeouts")
            worker_id = record["worker"]
            if self._assigned.get(worker_id) == task_id:
                # Whatever it is doing, it is not finishing this slice.
                self._assigned.pop(worker_id)
                self._terminate(worker_id)
            self._fail_task(task_id, pending, delayed, slice_index, "timeout")

    # -- event relay ------------------------------------------------------------
    def _drain_relay(self):
        if self._context is None:
            return
        bus = self.orchestrator.bus
        while True:
            try:
                message = self.relay_queue.get_nowait()
            except queue.Empty:
                return
            except (OSError, ValueError):
                return  # queue closed mid-shutdown
            payload = message.get("payload") or {}
            self.recovery.note("relay_events")
            bus.emit(message["event"], session=None, shard=message.get("shard"),
                     remote=True, **payload)

    # -- teardown ---------------------------------------------------------------
    @staticmethod
    def _close(mp_queue):
        mp_queue.cancel_join_thread()
        mp_queue.close()

    def shutdown(self):
        if self._context is None:
            return
        for inbox in self._inboxes.values():
            inbox.put(None)
        deadline = time.monotonic() + 5.0
        for process in self._workers.values():
            process.join(timeout=max(0.0, deadline - time.monotonic()))
        for process in self._workers.values():
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        self._workers.clear()
        self._drain_relay()
        for mp_queue in (*self._inboxes.values(), self.result_queue,
                         self.relay_queue):
            self._close(mp_queue)
        self._inboxes.clear()


@register_backend("supervised-queue")
class SupervisedQueueBackend(ExecutionBackend):
    """Fault-tolerant work-queue execution with long-running workers.

    The ROADMAP's campaign-service backend: shard-slice tasks stream over
    a multiprocessing queue to a supervised worker fleet; worker death,
    heartbeat loss, and slice timeouts are survived by respawning and
    re-dispatching the shard's last good checkpoint (bit-identical by
    construction), poison shards are quarantined instead of aborting the
    grid, and session events are relayed back so grid-wide subscribers
    observe remote iterations.  :attr:`RELAY_EVENTS` lists the event
    topics that can be forwarded; only those with subscribers on the
    orchestrator's bus at dispatch time are shipped."""

    name = "supervised-queue"

    RELAY_EVENTS = ("iteration", "new_coverage", "mismatch", "milestone")

    def __init__(self, workers=None, policy=None, injector=None):
        self.workers = workers
        self.policy = policy or FaultPolicy()
        self.injector = injector
        self._recovery = None

    def resilience_stats(self):
        """Retry/redispatch/quarantine counters of the most recent run
        (None before any run); surfaced by ``orchestrator.report()``."""
        if self._recovery is None:
            return None
        stats = self._recovery.stats()
        if self.injector is not None:
            stats["faults"] = self.injector.stats()
        return stats

    def _relay_wanted(self, orchestrator):
        return tuple(event for event in self.RELAY_EVENTS
                     if orchestrator.bus.has_subscribers(event))

    @contextlib.contextmanager
    def _supervised(self, orchestrator):
        """One run's supervisor; on the way out, returning or raising, the
        fleet is shut down and the orchestrator's sessions are brought up
        to each shard's last completed slice."""
        supervisor = _Supervisor(self, orchestrator)
        self._recovery = supervisor.recovery
        try:
            yield supervisor
        finally:
            try:
                supervisor.shutdown()
            finally:
                supervisor.sync()

    def run_for_virtual_time(self, orchestrator, budget_seconds,
                             max_iterations=None, slices=8):
        frontiers = _slice_frontiers(budget_seconds, slices)
        relay = self._relay_wanted(orchestrator)
        with self._supervised(orchestrator) as supervisor:
            for step, frontier in enumerate(frontiers, start=1):
                templates = {
                    label: _make_task(label, shard_index,
                                      "run_for_virtual_time",
                                      frontier=frontier,
                                      max_iterations=max_iterations,
                                      relay=relay)
                    for label, shard_index in supervisor.eligible(
                        frontier, max_iterations)
                }
                supervisor.execute_slice(step - 1, templates)
                orchestrator.bus.milestone(
                    "time_slice", orchestrator=orchestrator,
                    frontier=frontier, step=step, slices=len(frontiers))
        for label, session in orchestrator.sessions.items():
            orchestrator.bus.milestone("shard_done", orchestrator=orchestrator,
                                       shard=label, session=session)

    def run_iterations(self, orchestrator, count, batch=16):
        relay = self._relay_wanted(orchestrator)
        with self._supervised(orchestrator) as supervisor:
            templates = {
                label: _make_task(label, shard_index, "run_iterations",
                                  count=count, relay=relay)
                for label, shard_index in supervisor.eligible(None, None)
            }
            supervisor.execute_slice(0, templates)
        for label, session in orchestrator.sessions.items():
            orchestrator.bus.milestone("shard_done", orchestrator=orchestrator,
                                       shard=label, session=session)
