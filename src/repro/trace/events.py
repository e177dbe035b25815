"""Typed, sim-clock-stamped trace events.

Every decision the engine makes on a heartbeat — and everything those
decisions cause (task launches, shuffle flows, job completions) — is
describable as one of the small frozen dataclasses below.  Each event
carries the simulated timestamp ``t`` and a class-level ``type`` tag;
:meth:`TraceEvent.to_dict` renders the canonical wire form used by the
JSONL and Chrome-trace exporters (``type`` first, then the fields in
definition order), so two runs with equal seeds serialise byte-identically.

The decline-reason vocabulary is shared with
:class:`~repro.metrics.collector.MetricsCollector`'s per-reason counters:

``below_pmin``
    Algorithm 1/2's threshold rule: the best acceptance probability fell
    below ``P_min`` (PNA).
``bernoulli_miss``
    The acceptance coin came up tails (PNA's one draw per offer, or the
    Coupling Scheduler's coarse-locality coin).
``colocation_veto``
    Algorithm 2 line 1: the node already runs one of the job's reducers.
``no_candidate``
    The scheduler returned ``None`` without announcing a reason — typically
    nothing placeable was pending.
``locality_wait``
    A delay-scheduling-style skip: the scheduler is holding out for a
    better-placed slot (Fair's delay, Coupling reduce waits).
``coupling_gate``
    The Coupling Scheduler's gradual-launch gate: enough reducers are
    already running for the current map progress.
``node_dead``
    The offering node is dead or written off by tracker expiry — its slots
    cannot take work until it rejoins (fault-injection runs only).
``blacklisted``
    The head-of-line job has blacklisted the offering node after repeated
    task failures there (``max_task_failures_per_tracker``).
``tracker_down``
    The JobTracker itself is down (a ``TrackerCrash`` fault): the node's
    heartbeat went unanswered, so its free slots sit idle until the
    tracker restarts and re-registers the fleet.
``no_route``
    The offering node is cut off from the rest of the fabric (link/switch
    failures partitioned it): any task placed there could neither read its
    input nor serve its output, so its slots sit idle until a path returns.

Attempt-failure reasons (``FAILURE_REASONS``) form a second closed
vocabulary used by :class:`AttemptFailed` / :class:`JobFail`:
``task_error`` (an injected per-attempt failure — counts toward
``max_attempts``), ``node_lost`` (the attempt's node died — the attempt is
killed, not charged), ``input_lost`` (every replica of the attempt's input
block is permanently dead — charged, and the job aborts immediately under
``DurabilityConfig(on_data_loss="abort")``), and ``attempts_exhausted``
(a task failed ``max_attempts`` times, failing its job).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Iterable, List, Union

__all__ = [
    "Assign",
    "AttemptFailed",
    "Blacklisted",
    "BlockLost",
    "DECLINE_REASONS",
    "Decline",
    "DecommissionDone",
    "DecommissionStart",
    "Evaluate",
    "FAILURE_REASONS",
    "Heartbeat",
    "JobFail",
    "JobFinish",
    "JobSubmit",
    "LinkDown",
    "LinkUp",
    "MapOutputLost",
    "NODE_DOWN_REASONS",
    "NodeDown",
    "NodeUp",
    "PartitionHealed",
    "ReplicaAdded",
    "ReplicaRemoved",
    "RouteChange",
    "RunStart",
    "ShuffleFinish",
    "ShuffleStart",
    "SlotOffer",
    "StaleTelemetry",
    "SwitchDown",
    "TaskFinish",
    "TaskStart",
    "TraceEvent",
    "TrackerDown",
    "TrackerUp",
    "as_dicts",
]

#: Canonical decline reasons (see the module docstring for semantics).
BELOW_PMIN = "below_pmin"
BERNOULLI_MISS = "bernoulli_miss"
COLOCATION_VETO = "colocation_veto"
NO_CANDIDATE = "no_candidate"
LOCALITY_WAIT = "locality_wait"
COUPLING_GATE = "coupling_gate"
NODE_DEAD = "node_dead"
BLACKLISTED = "blacklisted"
TRACKER_DOWN = "tracker_down"
NO_ROUTE = "no_route"

DECLINE_REASONS = (
    BELOW_PMIN,
    BERNOULLI_MISS,
    COLOCATION_VETO,
    NO_CANDIDATE,
    LOCALITY_WAIT,
    COUPLING_GATE,
    NODE_DEAD,
    BLACKLISTED,
    TRACKER_DOWN,
    NO_ROUTE,
)

#: Canonical attempt-failure reasons (see the module docstring).
TASK_ERROR = "task_error"
NODE_LOST = "node_lost"
INPUT_LOST = "input_lost"
ATTEMPTS_EXHAUSTED = "attempts_exhausted"

FAILURE_REASONS = (
    TASK_ERROR,
    NODE_LOST,
    INPUT_LOST,
    ATTEMPTS_EXHAUSTED,
)

#: How the tracker wrote a node off: missed heartbeats until expiry, or a
#: delivered heartbeat carrying a new incarnation (crash + quick restart).
EXPIRED = "expired"
RESTARTED = "restarted"

NODE_DOWN_REASONS = (
    EXPIRED,
    RESTARTED,
)


@dataclass(frozen=True)
class TraceEvent:
    """Base event: a simulated timestamp plus the class-level ``type`` tag."""

    t: float

    #: wire tag; every concrete subclass overrides it.
    type = "event"

    def to_dict(self) -> Dict[str, object]:
        """Canonical dict form: ``type`` first, fields in definition order."""
        out: Dict[str, object] = {"type": self.type}
        for f in dataclasses.fields(self):
            out[f.name] = getattr(self, f.name)
        return out


@dataclass(frozen=True)
class RunStart(TraceEvent):
    """Emitted once when a traced Simulation is constructed."""

    scheduler: str
    seed: int

    type = "run_start"


@dataclass(frozen=True)
class JobSubmit(TraceEvent):
    job_id: str

    type = "job_submit"


@dataclass(frozen=True)
class JobFinish(TraceEvent):
    job_id: str

    type = "job_finish"


@dataclass(frozen=True)
class Heartbeat(TraceEvent):
    """One node heartbeat reaching the JobTracker."""

    node: str
    free_map_slots: int
    free_reduce_slots: int

    type = "heartbeat"


@dataclass(frozen=True)
class SlotOffer(TraceEvent):
    """A free slot offered to the runnable jobs (one per offer round)."""

    node: str
    kind: str  # "map" | "reduce"
    jobs: int  # candidate jobs with schedulable work

    type = "offer"


@dataclass(frozen=True)
class Evaluate(TraceEvent):
    """A per-offer cost/probability evaluation (PNA Formulae 1-5).

    ``c_here``/``c_ave``/``p`` describe the *best* candidate of the offered
    job: the transmission cost of running it on the offering node, the mean
    cost over all nodes with a free slot of the kind, and the resulting
    acceptance probability ``P = model(C_ave, C_here)``.
    """

    node: str
    kind: str
    job_id: str
    candidates: int  # pending tasks scored in this evaluation
    task_index: int  # index of the best candidate
    c_here: float
    c_ave: float
    p: float

    type = "evaluate"


@dataclass(frozen=True)
class Assign(TraceEvent):
    node: str
    kind: str
    job_id: str
    task_index: int

    type = "assign"


@dataclass(frozen=True)
class Decline(TraceEvent):
    """One counted slot decline (mirrors ``scheduling_declines`` exactly).

    ``reason`` is the head-of-line job's announced reason — the job whose
    refusal left the slot idle — or ``no_candidate`` when no scheduler
    announced one.
    """

    node: str
    kind: str
    reason: str
    job_id: str

    type = "decline"


@dataclass(frozen=True)
class TaskStart(TraceEvent):
    node: str
    kind: str
    job_id: str
    task_index: int
    speculative: bool = False

    type = "task_start"


@dataclass(frozen=True)
class TaskFinish(TraceEvent):
    node: str
    kind: str
    job_id: str
    task_index: int
    locality: str
    attempts: int

    type = "task_finish"


@dataclass(frozen=True)
class ShuffleStart(TraceEvent):
    """A shuffle fetch flow leaving a map node for a reducer."""

    src: str
    dst: str
    job_id: str
    reduce_index: int
    size: float

    type = "shuffle_start"


@dataclass(frozen=True)
class ShuffleFinish(TraceEvent):
    src: str
    dst: str
    job_id: str
    reduce_index: int
    size: float

    type = "shuffle_finish"


@dataclass(frozen=True)
class NodeDown(TraceEvent):
    """The tracker wrote a node off (expiry or detected restart).

    ``killed_attempts`` counts running attempts killed on the node,
    ``lost_maps`` the completed maps whose output was lost and which will
    re-execute.  ``reason`` is ``"expired"`` (missed heartbeats for
    ``tracker_expiry_interval``) or ``"restarted"`` (the node crashed and
    came back within the window; its old incarnation's state is gone).
    """

    node: str
    reason: str
    killed_attempts: int
    lost_maps: int

    type = "node_down"


@dataclass(frozen=True)
class NodeUp(TraceEvent):
    """A written-off node heartbeats again and rejoins the cluster."""

    node: str

    type = "node_up"


@dataclass(frozen=True)
class AttemptFailed(TraceEvent):
    """One task attempt ended abnormally.

    ``reason`` comes from ``FAILURE_REASONS``: ``task_error`` counts toward
    the task's ``max_attempts`` budget, ``node_lost`` does not (Hadoop's
    KILLED vs FAILED distinction).  ``failures`` is the task's charged
    failure count after this event.
    """

    node: str
    kind: str  # "map" | "reduce"
    job_id: str
    task_index: int
    reason: str
    failures: int

    type = "attempt_failed"


@dataclass(frozen=True)
class MapOutputLost(TraceEvent):
    """A completed map's output died with its node; the map re-executes."""

    node: str
    job_id: str
    task_index: int

    type = "map_output_lost"


@dataclass(frozen=True)
class Blacklisted(TraceEvent):
    """A job blacklists a node after ``max_task_failures_per_tracker``."""

    node: str
    job_id: str
    failures: int

    type = "blacklisted"


@dataclass(frozen=True)
class JobFail(TraceEvent):
    """A job was aborted (a task exhausted ``max_attempts``)."""

    job_id: str
    reason: str

    type = "job_fail"


@dataclass(frozen=True)
class TrackerDown(TraceEvent):
    """The JobTracker crashed: in-flight offers are void, heartbeats go
    unanswered, and no scheduling happens until the restart."""

    type = "tracker_down"


@dataclass(frozen=True)
class TrackerUp(TraceEvent):
    """The JobTracker restarted and rebuilt its state.

    ``resynced_entries`` counts write-ahead-journal records reconstructed
    from tracker status reports (completions the journal missed while the
    master was down); ``deferred_jobs`` counts submissions queued during
    the outage and admitted now.
    """

    resynced_entries: int
    deferred_jobs: int

    type = "tracker_up"


@dataclass(frozen=True)
class LinkDown(TraceEvent):
    """A fabric link failed (``LinkFailure`` fault or a dying switch).

    ``src``/``dst`` are the canonical link endpoints.  Flows crossing the
    link stall at rate zero until the control plane migrates them or the
    link heals.
    """

    src: str
    dst: str

    type = "link_down"


@dataclass(frozen=True)
class LinkUp(TraceEvent):
    """A failed fabric link healed; capacity is back to nominal."""

    src: str
    dst: str

    type = "link_up"


@dataclass(frozen=True)
class SwitchDown(TraceEvent):
    """A whole switch failed: every incident link goes down at once.

    ``links`` counts the incident links newly taken down (links already
    down from an overlapping fault are not double-counted).  The heal is
    observable as the per-link ``link_up`` events.
    """

    switch: str
    links: int

    type = "switch_down"


@dataclass(frozen=True)
class RouteChange(TraceEvent):
    """The link-state control plane converged on a new routing table.

    Emitted once per convergence (after the configured delay), with the
    number of in-flight flows migrated onto surviving paths and the number
    of unordered host pairs left with no live path.
    """

    migrated: int
    partitioned_pairs: int

    type = "route_change"


@dataclass(frozen=True)
class PartitionHealed(TraceEvent):
    """Previously partitioned host pairs regained a live path.

    ``pairs`` is the number of unordered host pairs that left the
    partitioned set at this convergence; parked shuffle fetches and
    failed-over replica reads resume on the next retry poll.
    """

    pairs: int

    type = "partition_healed"


@dataclass(frozen=True)
class StaleTelemetry(TraceEvent):
    """The telemetry monitor's stale-path set changed.

    ``stale_paths`` is the number of directed node pairs whose last path
    rate measurement is older than the staleness budget (those decisions
    fall back to the hop-count matrix); ``total_paths`` is the number of
    off-diagonal pairs.  Emitted only when the count changes, so a healthy
    monitor emits nothing.
    """

    stale_paths: int
    total_paths: int

    type = "stale_telemetry"


@dataclass(frozen=True)
class ReplicaAdded(TraceEvent):
    """The ReplicationMonitor finished copying a block to a new holder.

    ``src`` is the live replica the copy was read from; ``replicas`` is the
    block's replica count after the add.  The copy moved ``size`` bytes as a
    real flow through the fabric, so it shows up in link utilisation and in
    PNA's measured network conditions like any shuffle fetch.
    """

    block_id: int
    file: str
    node: str
    src: str
    size: float
    replicas: int

    type = "replica_added"


@dataclass(frozen=True)
class ReplicaRemoved(TraceEvent):
    """A replica was dropped from a block's metadata.

    Emitted when the monitor trims an over-replicated block (a holder
    rejoined after its block was already repaired elsewhere) and when a
    decommissioned node is released after its drain completed.
    ``replicas`` is the count after the removal.
    """

    block_id: int
    file: str
    node: str
    replicas: int

    type = "replica_removed"


@dataclass(frozen=True)
class BlockLost(TraceEvent):
    """Every replica of a block is dead and no live source remains.

    Permanent-data-loss detection: maps needing this block fail with the
    ``input_lost`` reason instead of polling forever.  If a holder later
    rejoins (its block report revives the copies), the block leaves the
    lost set and repair resumes.
    """

    block_id: int
    file: str
    index: int
    size: float

    type = "block_lost"


@dataclass(frozen=True)
class DecommissionStart(TraceEvent):
    """A node entered drain-safe decommissioning.

    Its ``blocks`` replicas stop counting toward replication targets (they
    stay readable), so every block it holds becomes under-replicated and is
    re-replicated elsewhere *before* the node is released — the opposite
    ordering from a crash, where repair starts after the copies are gone.
    """

    node: str
    blocks: int

    type = "decommission_start"


@dataclass(frozen=True)
class DecommissionDone(TraceEvent):
    """A draining node's last dependent block reached its target; the node
    is released (taken out of service like a crash, but with no copies at
    risk).  ``blocks`` counts the replicas dropped from its metadata."""

    node: str
    blocks: int

    type = "decommission_done"


EventLike = Union[TraceEvent, Dict[str, object]]


def as_dicts(events: Iterable[EventLike]) -> List[Dict[str, object]]:
    """Normalise a mixed event stream to plain dicts (exporter input)."""
    out: List[Dict[str, object]] = []
    for ev in events:
        out.append(ev.to_dict() if isinstance(ev, TraceEvent) else dict(ev))
    return out
