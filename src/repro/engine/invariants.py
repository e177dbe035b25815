"""Runtime invariant checking — the dynamic counterpart of ``repro check``.

The static analyzer (:mod:`repro.analysis.check`) catches hazards visible
in the source; this module
asserts, while a simulation is actually running, the properties every
figure of the paper silently assumes:

1. **clock monotonicity** — the event clock never runs backwards between
   scheduler rounds;
2. **slot accounting** — per-node running-task counts stay within
   ``[0, capacity]`` for both slot kinds;
3. **acceptance probability** — every probability produced by a
   probabilistic scheduler lies in ``[0, 1]`` (Formulae 4–5 guarantee this
   analytically; a buggy probability-model or cost regression breaks it);
4. **shuffle conservation** — a reduce task never fetches more bytes than
   its partition's column of the intermediate matrix ``I`` contains;
5. **Algorithm 2, line 1** — under a scheduler that declares
   ``avoid_reduce_colocation``, no node ever runs two reducers of the same
   job;
6. **liveness** (fault runs) — no task is ever assigned to a dead or
   blacklisted node, a node the tracker has written off runs zero
   attempts, every task's charged failure count stays within
   ``max_attempts``, and slot accounting survives crash/rejoin cycles
   (re-checked from the live attempt lists, not just the counters);
7. **control-plane recovery** (``TrackerCrash`` runs) — the write-ahead
   journal always replays to exactly the engine's job state while the
   master is up, and a restarted master leaves no orphaned attempts
   (no settled job accounts running work);
8. **durability convergence** (``DurabilityConfig`` runs) — when the
   monitor's repair loop has stopped at the end of a run, every block
   still below its replication target must be genuinely unrepairable
   (no live reachable source, or no placement target left): a feasible
   repair the monitor failed to schedule is a control-loop bug, not a
   fact about the fault pattern.

Checks are wired into the JobTracker after every heartbeat round and at
every job completion, so a violation surfaces as an
:class:`InvariantViolation` at the event that caused it instead of as a
silently wrong CDF.  Enable via ``EngineConfig(check_invariants=True)``,
the ``repro --check-invariants`` CLI switch, or the
``REPRO_CHECK_INVARIANTS`` environment variable (the test suite turns it
on for every run).  The checks are read-only and draw no randomness, so
enabling them never changes simulated behaviour.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Union

import numpy as np

from repro.sim import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.engine.job import Job
    from repro.engine.jobtracker import JobTracker
    from repro.schedulers.base import TaskScheduler

__all__ = ["InvariantChecker", "InvariantViolation"]

#: relative tolerance for byte-conservation comparisons (float shuffles).
_REL_EPS = 1e-6


class InvariantViolation(SimulationError):
    """A runtime invariant of the simulation was broken."""


def _enforces_no_colocation(scheduler: "TaskScheduler") -> bool:
    """Does the scheduler promise Algorithm 2's one-reducer-per-node rule?

    Schedulers declare it either as an ``avoid_reduce_colocation``
    attribute (Greedy/Coupling) or on their ``config`` (PNA).
    """
    if getattr(scheduler, "avoid_reduce_colocation", False):
        return True
    config = getattr(scheduler, "config", None)
    return bool(getattr(config, "avoid_reduce_colocation", False))


class InvariantChecker:
    """Read-only invariant assertions over one run's live state."""

    def __init__(self, tracker: "JobTracker") -> None:
        self.tracker = tracker
        self.checks_run = 0
        self.violations_raised = 0
        self._last_clock = tracker.sim.now
        self._no_colocation = _enforces_no_colocation(tracker.task_scheduler)
        #: per-job cache of ``I.sum(axis=0)`` — the matrix is fixed at
        #: job creation, so the bound is computed once.
        self._column_totals: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    def _fail(self, message: str) -> None:
        self.violations_raised += 1
        raise InvariantViolation(
            f"[t={self.tracker.sim.now:.6g}] {message}"
        )

    # ------------------------------------------------------------------
    # individual invariants
    # ------------------------------------------------------------------
    def check_clock(self) -> None:
        """Invariant 1: the event clock is monotone between observations."""
        self.checks_run += 1
        now = self.tracker.sim.now
        if now < self._last_clock:
            self._fail(
                f"event clock ran backwards: {self._last_clock:.6g} -> "
                f"{now:.6g}"
            )
        self._last_clock = now

    def check_slots(self) -> None:
        """Invariant 2: slot counts within [0, capacity] on every node."""
        self.checks_run += 1
        for node in self.tracker.cluster.nodes:
            if not 0 <= node.running_maps <= node.map_slots:
                self._fail(
                    f"node {node.name}: running_maps={node.running_maps} "
                    f"outside [0, {node.map_slots}]"
                )
            if not 0 <= node.running_reduces <= node.reduce_slots:
                self._fail(
                    f"node {node.name}: running_reduces="
                    f"{node.running_reduces} outside [0, {node.reduce_slots}]"
                )

    def check_probabilities(
        self,
        probs: Union[float, np.ndarray],
        *,
        where: str = "scheduler",
    ) -> None:
        """Invariant 3: acceptance probabilities lie in [0, 1]."""
        self.checks_run += 1
        arr = np.asarray(probs, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            self._fail(f"{where}: non-finite acceptance probability")
        if arr.size and (float(arr.min()) < 0.0 or float(arr.max()) > 1.0):
            self._fail(
                f"{where}: acceptance probability outside [0, 1] "
                f"(min={float(arr.min()):.6g}, max={float(arr.max()):.6g})"
            )

    def check_shuffle(self, job: "Job") -> None:
        """Invariant 4: fetched bytes never exceed produced intermediates."""
        self.checks_run += 1
        jid = job.spec.job_id
        totals = self._column_totals.get(jid)
        if totals is None:
            totals = np.asarray(job.I, dtype=np.float64).sum(axis=0)
            self._column_totals[jid] = totals
        for task in job.reduces:
            fetched = task.shuffled_bytes
            bound = float(totals[task.index])
            if fetched > bound * (1.0 + _REL_EPS) + 1.0:
                self._fail(
                    f"job {jid} reduce {task.index}: shuffled "
                    f"{fetched:.0f} B exceeds the {bound:.0f} B its maps "
                    "produce"
                )

    def check_assignment(self, node: "Node", job: "Job") -> None:
        """Invariant 6a: assignments land only on live, non-blacklisted
        nodes.  Called by the offer loop immediately before every launch."""
        self.checks_run += 1
        if not node.alive:
            self._fail(
                f"job {job.spec.job_id} assigned a task to dead node "
                f"{node.name}"
            )
        if node.name in job.blacklisted:
            self._fail(
                f"job {job.spec.job_id} assigned a task to its blacklisted "
                f"node {node.name}"
            )

    def check_attempt_budgets(self, job: "Job") -> None:
        """Invariant 6b: charged failures never exceed ``max_attempts``."""
        self.checks_run += 1
        cap = self.tracker.config.max_attempts
        for task in (*job.maps, *job.reduces):
            if task.failures > cap:
                kind = "map" if hasattr(task, "block") else "reduce"
                self._fail(
                    f"job {job.spec.job_id} {kind} {task.index}: "
                    f"{task.failures} charged failures exceed "
                    f"max_attempts={cap}"
                )

    def check_slot_conservation(self) -> None:
        """Invariant 6c: per-node slot counters equal the live attempts.

        Recomputed from the attempt lists themselves, so a crash/rejoin
        cycle that leaks (or double-releases) a slot is caught even while
        the counter still sits inside ``[0, capacity]``.
        """
        self.checks_run += 1
        maps: Dict[str, int] = {}
        reduces: Dict[str, int] = {}
        from repro.engine.task import TaskState  # local: avoids an import cycle

        for job in self.tracker.active_jobs:
            for m in job.maps:
                if m.state is not TaskState.RUNNING:
                    continue
                for attempt in m.attempts:
                    if not attempt.cancelled:
                        name = attempt.node.name
                        maps[name] = maps.get(name, 0) + 1
            for r in job.reduces:
                if r.state is TaskState.RUNNING:
                    name = r.node.name
                    reduces[name] = reduces.get(name, 0) + 1
        for node in self.tracker.cluster.nodes:
            if node.running_maps != maps.get(node.name, 0):
                self._fail(
                    f"node {node.name}: running_maps counter "
                    f"{node.running_maps} != {maps.get(node.name, 0)} live "
                    "map attempts (slot leak across failure handling)"
                )
            if node.running_reduces != reduces.get(node.name, 0):
                self._fail(
                    f"node {node.name}: running_reduces counter "
                    f"{node.running_reduces} != {reduces.get(node.name, 0)} "
                    "live reduce attempts (slot leak across failure handling)"
                )

    def after_node_loss(self, node: "Node") -> None:
        """Invariant 6d: a written-off node runs nothing and holds no slots."""
        self.checks_run += 1
        if node.running_maps != 0 or node.running_reduces != 0:
            self._fail(
                f"lost node {node.name} still accounts "
                f"{node.running_maps} maps / {node.running_reduces} reduces"
            )
        for job in self.tracker.active_jobs:
            for m in job.running_maps():
                if any(
                    not a.cancelled and a.node is node for a in m.attempts
                ):
                    self._fail(
                        f"lost node {node.name} still runs an attempt of "
                        f"job {job.spec.job_id} map {m.index}"
                    )
            for r in job.running_reduces():
                if r.node is node:
                    self._fail(
                        f"lost node {node.name} still runs job "
                        f"{job.spec.job_id} reduce {r.index}"
                    )
        self.check_slot_conservation()

    def check_journal(self) -> None:
        """Invariant 7a: the recovery journal replays to the engine's state.

        Only meaningful while the tracker is up — a down tracker's journal
        is *supposed* to lag (that is what restart-time resync repairs).
        """
        journal = self.tracker.journal
        if journal is None or self.tracker.tracker_down:
            return
        self.checks_run += 1
        problems = journal.reconcile(self.tracker)
        if problems:
            self._fail(
                "journal/state reconciliation failed: " + "; ".join(problems)
            )

    def after_tracker_restart(self) -> None:
        """Invariant 7b: a restarted master rebuilt a consistent world.

        No orphaned attempts (a completed or failed job accounts zero
        running work), slot counters match the live attempt lists, and the
        resynced journal replays to exactly the engine's state.
        """
        self.check_clock()
        self.check_slots()
        self.check_slot_conservation()
        from repro.engine.task import TaskState  # local: avoids an import cycle

        for job in self.tracker.finished_jobs + self.tracker.failed_jobs:
            for task in (*job.maps, *job.reduces):
                if task.state is TaskState.RUNNING:
                    self._fail(
                        f"orphaned attempt after tracker restart: job "
                        f"{job.spec.job_id} task {task.index} still RUNNING "
                        "though its job is settled"
                    )
        self.check_journal()

    def check_durability(self, monitor) -> None:
        """Invariant 8: at run end, remaining under-replication is
        unrepairable.  Called by ``Simulation.run`` after the event queue
        drains on durability-enabled runs."""
        self.checks_run += 1
        for block in monitor.under_replicated():
            if not monitor.unrepairable(block):
                live = len(monitor._countable_replicas(block))
                self._fail(
                    f"block {block.block_id} ({block.file}[{block.index}]) "
                    f"ended the run at {live}/{monitor.target(block)} "
                    "replicas although a repair source and target both "
                    "exist — the ReplicationMonitor stopped too early"
                )

    def check_colocation(self, job: "Job") -> None:
        """Invariant 5: one reducer per node per job (Algorithm 2 line 1)."""
        if not self._no_colocation:
            return
        self.checks_run += 1
        for node_name, count in job._reduce_node_counts.items():
            if count > 1:
                self._fail(
                    f"job {job.spec.job_id}: {count} reducers running on "
                    f"{node_name} under a scheduler that forbids "
                    "co-location (Algorithm 2 line 1)"
                )

    # ------------------------------------------------------------------
    # engine hooks
    # ------------------------------------------------------------------
    def after_heartbeat(self) -> None:
        """Full sweep after each heartbeat round of slot offers."""
        self.check_clock()
        self.check_slots()
        self.check_slot_conservation()
        for job in self.tracker.active_jobs:
            self.check_shuffle(job)
            self.check_colocation(job)
            self.check_attempt_budgets(job)
        self.check_journal()

    def on_job_finished(self, job: "Job") -> None:
        """Final per-job audit, then drop the job's cached bound."""
        self.check_shuffle(job)
        self.check_colocation(job)
        self._column_totals.pop(job.spec.job_id, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InvariantChecker(checks_run={self.checks_run}, "
            f"no_colocation={self._no_colocation})"
        )
