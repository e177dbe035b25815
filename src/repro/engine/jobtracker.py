"""The JobTracker: heartbeats, slot offers, job lifecycle.

This is the simulated counterpart of Hadoop 1.x's central master.  Every
node heartbeats on a fixed period (staggered across nodes); on each
heartbeat the tracker walks the node's free slots and, for each, offers the
slot to runnable jobs in job-level-scheduler order.  The task scheduler
attached to the run decides which (if any) task takes the slot — exactly the
trigger structure of the paper's Algorithms 1 and 2 ("the algorithm is
triggered when JobTracker receives a heartbeat").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.engine.config import EngineConfig
from repro.engine.invariants import InvariantChecker
from repro.engine.job import Job
from repro.engine.journal import Journal
from repro.hdfs.namenode import NameNode
from repro.metrics.collector import MetricsCollector
from repro.obs import profile as _obs_profile
from repro.schedulers.base import SchedulerContext, TaskScheduler
from repro.schedulers.joblevel import FairJobScheduler, JobLevelScheduler
from repro.sim import PeriodicTask, Simulator
from repro.trace.events import (
    BLACKLISTED,
    NO_CANDIDATE,
    NO_ROUTE,
    NODE_DEAD,
    NODE_LOST,
    TASK_ERROR,
    TRACKER_DOWN,
    Assign,
    AttemptFailed,
    Blacklisted,
    Decline,
    Heartbeat,
    JobFail,
    JobFinish,
    JobSubmit,
    MapOutputLost,
    NodeDown,
    NodeUp,
    SlotOffer,
    TrackerDown,
    TrackerUp,
)
from repro.trace.recorder import NullRecorder
from repro.workload.spec import JobSpec

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.engine.task import MapTask
    from repro.faults.injector import FaultInjector

__all__ = ["JobTracker"]


@dataclass
class _NodeView:
    """The tracker's belief about one TaskTracker (node).

    The tracker never reads ``Node.alive`` to *detect* failure — like
    Hadoop's master, it only observes missed heartbeats and restarted
    incarnations, so there is a realistic detection lag of up to
    ``tracker_expiry_interval`` between a crash and recovery starting.
    """

    last_heartbeat: float
    incarnation: int
    lost: bool = False


class JobTracker:
    """Central scheduler driver for one simulation run."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        namenode: NameNode,
        task_scheduler: TaskScheduler,
        *,
        job_scheduler: Optional[JobLevelScheduler] = None,
        config: Optional[EngineConfig] = None,
        rng: Optional[np.random.Generator] = None,
        seed: int = 0,
        recorder: Optional[NullRecorder] = None,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.namenode = namenode
        self.task_scheduler = task_scheduler
        self.job_scheduler = job_scheduler or FairJobScheduler()
        self.config = config or EngineConfig()
        self.seed = seed
        self.recorder = recorder if recorder is not None else NullRecorder()
        #: counts every engine fact and passes it on to ``recorder``
        self.collector = MetricsCollector(self.recorder)
        # set by schedulers (via SchedulerContext.note_decline) to explain
        # why the current select_* call returned None
        self._noted_reason: Optional[str] = None
        self.invariants: Optional[InvariantChecker] = (
            InvariantChecker(self) if self.config.check_invariants else None
        )
        self.ctx = SchedulerContext(
            tracker=self,
            rng=rng if rng is not None else np.random.default_rng(seed),
        )
        self.active_jobs: List[Job] = []
        self.finished_jobs: List[Job] = []
        self.failed_jobs: List[Job] = []
        self._expected = 0
        self._heartbeats: List[PeriodicTask] = []
        self._started = False
        #: the run's fault injector, if any (set by ``Simulation``)
        self.faults: Optional["FaultInjector"] = None
        #: the run's telemetry monitor, if any (set by ``Simulation``)
        self.telemetry = None
        #: the run's metrics plane, if any (set by ``Simulation``); the
        #: tracker only ever *feeds* it, never reads it back
        self.metrics = None
        #: the run's ReplicationMonitor, if any (set by ``Simulation``)
        self.replication = None
        #: run-once hooks fired when the last job finishes or fails
        self.on_all_done_hooks: List[Callable[[], None]] = []
        self._node_views: Dict[str, _NodeView] = {
            n.name: _NodeView(last_heartbeat=sim.now, incarnation=n.incarnation)
            for n in cluster.nodes
        }
        #: True while a ``TrackerCrash`` fault has the master down
        self.tracker_down = False
        self._deferred_specs: List[JobSpec] = []
        self.journal: Optional[Journal] = (
            Journal()
            if self.config.journal
            or (
                self.config.faults is not None
                and self.config.faults.tracker_crashes
            )
            else None
        )

    # ------------------------------------------------------------------
    # job lifecycle
    # ------------------------------------------------------------------
    def submit_spec(self, spec: JobSpec) -> None:
        """Schedule a job submission at ``spec.submit_time``."""
        self._expected += 1
        self.sim.at(spec.submit_time, self._submit, spec)

    def _submit(self, spec: JobSpec) -> None:
        if self.tracker_down:
            # the master is down: the client retries until it comes back
            self._deferred_specs.append(spec)
            return
        job = Job(spec, self)
        self.active_jobs.append(job)
        self.journal_write("job_submitted", spec.job_id)
        self.collector.note(JobSubmit(t=self.sim.now, job_id=spec.job_id))
        self.task_scheduler.on_job_added(job)

    def on_job_done(self, job: Job) -> None:
        self.active_jobs.remove(job)
        self.finished_jobs.append(job)
        self.collector.job_completed(job.record())
        self.journal_write("job_finished", job.spec.job_id)
        if self.recorder.enabled:
            self.recorder.emit(JobFinish(t=self.sim.now, job_id=job.spec.job_id))
        if self.invariants is not None:
            self.invariants.on_job_finished(job)
        if self.all_done:
            self._finish_run()

    def on_job_failed(self, job: Job, reason: str) -> None:
        """A job aborted (a task exhausted ``max_attempts``)."""
        self.active_jobs.remove(job)
        self.failed_jobs.append(job)
        self.journal_write("job_failed", job.spec.job_id)
        self.collector.note(
            JobFail(t=self.sim.now, job_id=job.spec.job_id, reason=reason)
        )
        if self.all_done:
            self._finish_run()

    @property
    def all_done(self) -> bool:
        """Every submitted (and to-be-submitted) job has completed or failed."""
        return len(self.finished_jobs) + len(self.failed_jobs) == self._expected

    def all_jobs(self) -> List[Job]:
        """Every job the run knows about, in submission order per list."""
        return self.active_jobs + self.finished_jobs + self.failed_jobs

    def _finish_run(self) -> None:
        self._stop_heartbeats()
        for hook in self.on_all_done_hooks:
            hook()

    # ------------------------------------------------------------------
    # write-ahead journal
    # ------------------------------------------------------------------
    def journal_write(self, kind: str, job_id: str, index: int = -1) -> None:
        """Append one transition to the recovery journal.

        A no-op without a journal, and — crucially — while the tracker is
        down: whatever completes during an outage is exactly what
        :meth:`on_tracker_restarted` must recover from status reports.
        """
        if self.journal is None or self.tracker_down:
            return
        self.journal.append(self.sim.now, kind, job_id, index)

    # ------------------------------------------------------------------
    # tracker crash / restart (``TrackerCrash`` faults)
    # ------------------------------------------------------------------
    def on_tracker_crashed(self) -> None:
        """The master process dies: heartbeats go unanswered.

        Running tasks and shuffles keep going (they are TaskTracker-owned,
        like Hadoop), but free slots sit idle, completions go unjournalled,
        and client submissions queue until the restart.
        """
        self.tracker_down = True
        self.collector.note(TrackerDown(t=self.sim.now))

    def on_tracker_restarted(self) -> None:
        """The master restarts: replay the journal, resync, re-register.

        Every node's heartbeat clock is reset (re-registration grace — a
        restarted master cannot expire nodes for heartbeats *it* missed),
        the journal is reconciled against tracker status reports, and
        deferred client submissions are admitted.
        """
        self.tracker_down = False
        now = self.sim.now
        for view in self._node_views.values():
            view.last_heartbeat = now
        resynced = self.journal.resync(self, now) if self.journal else 0
        self.collector.note(
            TrackerUp(
                t=now, resynced_entries=resynced,
                deferred_jobs=len(self._deferred_specs),
            )
        )
        deferred, self._deferred_specs = self._deferred_specs, []
        for spec in deferred:
            self._submit(spec)
        if self.invariants is not None:
            self.invariants.after_tracker_restart()

    # ------------------------------------------------------------------
    # heartbeats
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin node heartbeats, staggered evenly over one period."""
        if self._started:
            raise RuntimeError("JobTracker already started")
        self._started = True
        period = self.config.heartbeat_period
        n = self.cluster.num_nodes
        for i, node in enumerate(self.cluster.nodes):
            offset = period * i / n
            self._heartbeats.append(
                self.sim.every(
                    period, self._make_heartbeat(node), start=self.sim.now + offset
                )
            )

    def _stop_heartbeats(self) -> None:
        for hb in self._heartbeats:
            hb.stop()
        self._heartbeats.clear()

    def _make_heartbeat(self, node: Node):
        def heartbeat() -> None:
            self._heartbeat_tick(node)

        return heartbeat

    def _heartbeat_tick(self, node: Node) -> None:
        """One heartbeat interval elapsed on ``node``: deliver or miss it.

        A heartbeat is missed when the node is dead or the injector drops
        it; enough consecutive misses expire the tracker.  A delivered
        heartbeat from a lost node re-registers it, and a delivered
        heartbeat carrying a new incarnation means the node crashed and
        restarted inside the expiry window — its previous state is gone
        even though the tracker never saw it miss.
        """
        view = self._node_views[node.name]
        now = self.sim.now
        if self.tracker_down:
            # the heartbeat reaches a dead master: no view updates, no
            # expiry clock, no offers.  Free slots on live registered nodes
            # are charged as tracker_down declines so slot accounting shows
            # exactly what the outage cost.
            if node.alive and not view.lost and self.active_jobs:
                self._decline_free_slots(node, TRACKER_DOWN)
            return
        delivered = node.alive and not (
            self.faults is not None and self.faults.heartbeat_dropped(node)
        )
        if not delivered:
            if (
                not view.lost
                and now - view.last_heartbeat >= self.config.tracker_expiry_interval
            ):
                self._on_node_lost(node, "expired")
            return
        if view.lost:
            self._rejoin(node)
            return
        if view.incarnation != node.incarnation:
            self._on_node_lost(node, "restarted")
            self._rejoin(node)
            return
        view.last_heartbeat = now
        self.on_heartbeat(node)

    # ------------------------------------------------------------------
    # node failure / recovery
    # ------------------------------------------------------------------
    def on_node_crashed(self, node: Node) -> None:
        """*Physical* crash hook, called by the fault injector at crash time.

        Freezes the engine-owned I/O touching the dead node (its running
        attempts' flows, shuffle fetches from it) so no bytes keep moving
        through a dead box.  No *logical* recovery happens here — slots,
        attempts and map outputs are only written off once the tracker
        notices via :meth:`_heartbeat_tick`, preserving Hadoop's detection
        lag.  Background (other-tenant) traffic is deliberately untouched.
        """
        for job in self.active_jobs:
            for m in job.running_maps():
                for attempt in list(m.attempts):
                    attempt.on_node_crashed(node)
            for r in job.running_reduces():
                if r.node is node:
                    r.freeze()
                else:
                    r.on_source_lost(node.name)
        if self.replication is not None:
            # kill re-replication copies reading from / writing to the box
            self.replication.on_node_crashed(node)

    def _on_node_lost(self, node: Node, reason: str) -> None:
        """*Logical* loss processing (tracker expiry or detected restart).

        Kills the node's running attempts (uncharged — they re-schedule),
        re-executes its completed maps that some unfinished reduce still
        needs, and aborts other reducers' fetches from it.
        """
        view = self._node_views[node.name]
        view.lost = True
        killed = 0
        lost_maps = 0
        for job in list(self.active_jobs):
            killed += job.kill_tasks_on(node)
        for job in list(self.active_jobs):
            lost_maps += job.relaunch_lost_maps(node)
            for r in job.running_reduces():
                r.on_source_lost(node.name)
        self.collector.note(
            NodeDown(
                t=self.sim.now, node=node.name, reason=reason,
                killed_attempts=killed, lost_maps=lost_maps,
            )
        )
        if self.invariants is not None:
            self.invariants.after_node_loss(node)

    def _rejoin(self, node: Node) -> None:
        """A lost node heartbeats again: re-register it with empty slots.

        Hadoop spends the re-registration heartbeat reinitialising the
        TaskTracker, so no slots are offered this round; the idle slots are
        accounted as ``node_dead`` declines to keep offer bookkeeping
        exact.
        """
        view = self._node_views[node.name]
        view.lost = False
        view.incarnation = node.incarnation
        view.last_heartbeat = self.sim.now
        self.collector.note(NodeUp(t=self.sim.now, node=node.name))
        self._decline_free_slots(node, NODE_DEAD)
        if self.invariants is not None:
            self.invariants.after_heartbeat()

    # ------------------------------------------------------------------
    # failure bookkeeping (called from task / job failure paths)
    # ------------------------------------------------------------------
    def record_attempt_failure(
        self,
        job: Job,
        kind: str,
        task_index: int,
        node_name: str,
        failures: int,
        *,
        reason: str = TASK_ERROR,
        blacklist: bool = True,
    ) -> None:
        """A charged task error: count it, trace it, then let it escalate
        (node blacklisting, and job abort at ``max_attempts``).

        ``input_lost`` failures pass ``blacklist=False``: the node did
        nothing wrong — the task's input data is gone — so the failure is
        charged against the task's retry budget but not against the node.
        """
        self.collector.note(
            AttemptFailed(
                t=self.sim.now, node=node_name, kind=kind,
                job_id=job.spec.job_id, task_index=task_index,
                reason=reason, failures=failures,
            )
        )
        if blacklist:
            job.note_node_failure(node_name)
        if failures >= self.config.max_attempts:
            job.fail("attempts_exhausted")

    def record_attempt_killed(
        self, job: Job, kind: str, task_index: int, node_name: str, failures: int
    ) -> None:
        """An uncharged kill (node loss): count and trace it only."""
        self.collector.note(
            AttemptFailed(
                t=self.sim.now, node=node_name, kind=kind,
                job_id=job.spec.job_id, task_index=task_index,
                reason=NODE_LOST, failures=failures,
            )
        )

    def record_map_output_lost(self, job: Job, task: "MapTask") -> None:
        self.collector.note(
            MapOutputLost(
                t=self.sim.now, node=task.node.name,
                job_id=job.spec.job_id, task_index=task.index,
            )
        )

    def record_blacklisting(self, job: Job, node_name: str, failures: int) -> None:
        self.collector.note(
            Blacklisted(
                t=self.sim.now, node=node_name,
                job_id=job.spec.job_id, failures=failures,
            )
        )

    def _decline(
        self, node: Node, kind: str, reason: str, head_job: str = ""
    ) -> None:
        """Count one idle slot offer of ``kind`` on ``node``."""
        self.collector.note(
            Decline(
                t=self.sim.now, node=node.name, kind=kind,
                reason=reason, job_id=head_job,
            )
        )

    def _decline_free_slots(self, node: Node, reason: str) -> None:
        """Decline each slot kind ``node`` has free, all for ``reason``."""
        for kind in ("map", "reduce"):
            if getattr(node, f"free_{kind}_slots") > 0:
                self._decline(node, kind, reason)

    # ------------------------------------------------------------------
    # slot offers
    # ------------------------------------------------------------------
    def note_decline(self, reason: str) -> None:
        """A scheduler explains why the in-flight ``select_*`` returns None.

        Called through :meth:`SchedulerContext.note_decline`; read back by
        the offer loop to attribute the round's decline (the head-of-line
        job's reason wins, since its refusal is what left the slot idle).
        """
        self._noted_reason = reason

    def on_heartbeat(self, node: Node) -> None:
        """Fill the node's free slots, one offer round per slot."""
        if self.recorder.enabled:
            self.recorder.emit(
                Heartbeat(
                    t=self.sim.now,
                    node=node.name,
                    free_map_slots=node.free_map_slots,
                    free_reduce_slots=node.free_reduce_slots,
                )
            )
        if self.active_jobs:
            if node.name in self.cluster.network.isolated_hosts():
                # the node is cut off from the rest of the fabric by failed
                # links: a task placed here could neither read its input
                # nor be shuffled from, so decline its slots outright
                self._decline_free_slots(node, NO_ROUTE)
            else:
                self._offer_slots(node, "map")
                self._offer_slots(node, "reduce")
        if self.invariants is not None:
            self.invariants.after_heartbeat()

    def _select_task(self, kind: str, node: Node, job: Job):
        """One scheduler selection call, under a ``scheduler.select_*``
        scope when a profiler is installed.

        Every offer round funnels through here so the candidate scan (the
        known hot site) is attributed separately from the rest of the
        heartbeat in ``repro profile`` output.
        """
        select = getattr(self.task_scheduler, f"select_{kind}")
        prof = _obs_profile.ACTIVE
        if prof is not None:
            prof.push(f"scheduler.select_{kind}")
        try:
            return select(node, job, self.ctx)
        finally:
            if prof is not None:
                prof.pop()

    def _offer_slots(self, node: Node, kind: str) -> None:
        """Offer ``node``'s free ``kind`` slots, one round per slot.

        The kinds differ in three things only: the free-slot count, the
        candidate filter (jobs with a pending map, or with reduces past
        slow-start) and the map-only fallback of backing up a straggler
        from a slot no job claims.
        """
        rec = self.recorder
        free = f"free_{kind}_slots"
        ready = Job.pending_maps if kind == "map" else Job.reduces_schedulable
        budget = getattr(node, free) if self.config.assign_multiple else 1
        while getattr(node, free) > 0 and budget > 0:
            budget -= 1
            candidates = [j for j in self.active_jobs if ready(j)]
            ordered = ()
            if candidates:
                if rec.enabled:
                    rec.emit(
                        SlotOffer(
                            t=self.sim.now, node=node.name, kind=kind,
                            jobs=len(candidates),
                        )
                    )
                ordered = self.job_scheduler.order(candidates, kind)
            assigned = False
            round_reason: Optional[str] = None
            head_job = ""
            for job in ordered:
                if node.name in job.blacklisted:
                    # the job refuses this node's slots; never even ask
                    # the scheduler (mirrors Hadoop's per-job blacklist)
                    if round_reason is None:
                        round_reason = BLACKLISTED
                        head_job = job.spec.job_id
                    continue
                self._noted_reason = None
                task = self._select_task(kind, node, job)
                if task is not None:
                    if task.assigned or task.job is not job:
                        raise RuntimeError(
                            f"scheduler returned invalid {kind} task {task}"
                        )
                    if self.invariants is not None:
                        self.invariants.check_assignment(node, job)
                    task.launch(node)
                    if self.metrics is not None:
                        self.metrics.task_assigned(
                            kind, self.sim.now - task.pending_since
                        )
                    self.collector.note(
                        Assign(
                            t=self.sim.now, node=node.name, kind=kind,
                            job_id=job.spec.job_id, task_index=task.index,
                        )
                    )
                    assigned = True
                    break
                if round_reason is None:
                    round_reason = self._noted_reason
                    head_job = job.spec.job_id
            if not assigned:
                # a map slot nobody claims may back up a straggler (Hadoop
                # launches speculative attempts from otherwise-idle slots)
                if (
                    kind == "map"
                    and self.config.speculative
                    and self._try_speculate(node)
                ):
                    continue
                if candidates:
                    self._decline(
                        node, kind, round_reason or NO_CANDIDATE, head_job
                    )
                return

    def _try_speculate(self, node: Node) -> bool:
        """Offer a free map slot to a backup attempt of a straggling map.

        Follows Hadoop's LATE-style heuristic in simplified form: candidates
        are running single-attempt maps older than ``speculative_min_age``
        whose read progress trails their job's running mean by
        ``speculative_progress_factor``; the slowest is cloned here.
        Runs under a ``scheduler.speculate`` scope when a profiler is
        installed.
        """
        prof = _obs_profile.ACTIVE
        if prof is not None:
            prof.push("scheduler.speculate")
        try:
            return self._speculate(node)
        finally:
            if prof is not None:
                prof.pop()

    def _speculate(self, node: Node) -> bool:
        now = self.sim.now
        cfg = self.config
        best = None
        best_frac = 1.0
        for job in self.active_jobs:
            if node.name in job.blacklisted:
                continue
            running = job.running_maps()
            if not running:
                continue
            live_backups = sum(1 for m in running if len(m.attempts) > 1)
            if live_backups >= max(1, int(cfg.speculative_cap * job.num_maps)):
                continue
            # Hadoop's convention: progress is compared against the mean over
            # all *started* maps, completed ones counting as 1.0 — otherwise
            # the last stragglers define their own mean and never qualify
            started = job.maps_done + len(running)
            mean_frac = (
                job.maps_done + sum(m.read_fraction(now) for m in running)
            ) / started
            for task in running:
                if not task.speculatable:
                    continue
                if now - task.start_time < cfg.speculative_min_age:
                    continue
                if any(a.node is node for a in task.attempts):
                    continue
                frac = task.read_fraction(now)
                if frac < cfg.speculative_progress_factor * mean_frac and frac < best_frac:
                    best = task
                    best_frac = frac
        if best is None:
            return False
        best.launch_speculative(node)
        self.collector.speculative_launched += 1
        return True
