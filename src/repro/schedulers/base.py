"""Task-scheduler interface and the scheduling context.

Task-level scheduling in this library mirrors Hadoop 1.x: the JobTracker
receives a heartbeat advertising free slots on a node, picks a job (the
job-level scheduler's business, see :mod:`repro.schedulers.joblevel`), and
asks the **task scheduler** to choose which of that job's pending tasks — if
any — should occupy the slot.  Returning ``None`` declines the offer, leaving
the slot free until a later heartbeat (this is how delay-style and
probabilistic schedulers trade utilisation for placement quality).

Every scheduler decision sees a :class:`SchedulerContext` carrying the
cluster state the paper's algorithms read: the distance matrix, the live
network condition, nodes with free slots (``N_m`` / ``N_r`` in Formulae
4–5), the clock, and a dedicated RNG stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.trace.events import Evaluate

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.cluster.node import Node
    from repro.engine.invariants import InvariantChecker
    from repro.engine.job import Job
    from repro.engine.jobtracker import JobTracker
    from repro.engine.task import MapTask, ReduceTask
    from repro.hdfs.namenode import NameNode
    from repro.trace.recorder import NullRecorder

__all__ = ["SchedulerContext", "TaskScheduler"]


@dataclass
class SchedulerContext:
    """Everything a task scheduler may consult when answering an offer."""

    tracker: "JobTracker"
    rng: np.random.Generator

    @property
    def sim(self):
        return self.tracker.sim

    @property
    def now(self) -> float:
        return self.tracker.sim.now

    @property
    def cluster(self) -> "Cluster":
        return self.tracker.cluster

    @property
    def namenode(self) -> "NameNode":
        return self.tracker.namenode

    @property
    def invariants(self) -> Optional["InvariantChecker"]:
        """The run's invariant checker, or None when checking is off."""
        return getattr(self.tracker, "invariants", None)

    @property
    def telemetry(self):
        """The run's telemetry monitor, or None for oracle measurements."""
        return getattr(self.tracker, "telemetry", None)

    def free_map_nodes(self) -> List["Node"]:
        """Nodes with at least one free map slot (``N_m`` nodes)."""
        return self.tracker.cluster.nodes_with_free_map_slots()

    def free_reduce_nodes(self) -> List["Node"]:
        """Nodes with at least one free reduce slot (``N_r`` nodes)."""
        return self.tracker.cluster.nodes_with_free_reduce_slots()

    def free_slot_view(self, kind: str) -> tuple:
        """Cached ``(nodes, idx, pos)`` view of the nodes with a free
        ``kind`` slot — hot-path form of :meth:`free_map_nodes` /
        :meth:`free_reduce_nodes`; see ``Cluster.free_slot_view``."""
        return self.tracker.cluster.free_slot_view(kind)

    # -- observability (does not change scheduling state) ---------------

    @property
    def recorder(self) -> "NullRecorder":
        """The run's trace recorder (the no-op recorder when disabled)."""
        return self.tracker.recorder

    def note_decline(self, reason: str) -> None:
        """Announce why the current ``select_*`` call is about to decline.

        Call immediately before ``return None``; the offer loop turns the
        note into a per-reason decline count and (when tracing) a
        ``decline`` event.  See :mod:`repro.trace.events` for the reason
        vocabulary.
        """
        self.tracker.note_decline(reason)

    def note_evaluation(
        self,
        *,
        kind: str,
        job_id: str,
        node: "Node",
        candidates: int,
        task_index: int,
        c_here: float,
        c_ave: float,
        p: float,
    ) -> None:
        """Trace one cost/probability evaluation (PNA Formulae 1-5).

        No-op unless tracing is on; schedulers may call it unguarded, but
        hot paths should still check ``ctx.recorder.enabled`` first to skip
        argument marshalling.
        """
        rec = self.tracker.recorder
        if rec.enabled:
            rec.emit(
                Evaluate(
                    t=self.tracker.sim.now, node=node.name, kind=kind,
                    job_id=job_id, candidates=candidates,
                    task_index=task_index, c_here=c_here, c_ave=c_ave, p=p,
                )
            )


class TaskScheduler:
    """Strategy interface for task placement.

    Subclasses override :meth:`select_map` and :meth:`select_reduce`; both
    must either return a *pending* task of ``job`` (which the tracker will
    immediately launch on ``node``) or ``None`` to decline.  ``on_job_added``
    lets stateful schedulers attach per-job bookkeeping (cost caches, skip
    counters).

    Contract (machine-checked by ``repro check``): every concrete subclass
    implements both hooks, overrides the class-level ``name``, is exported
    from :mod:`repro.schedulers`, and treats the shared
    :class:`SchedulerContext` as read-only.
    """

    #: Human-readable name used in reports and experiment tables.
    name: str = "base"

    def on_job_added(self, job: "Job") -> None:
        """Called once when a job is submitted."""

    def select_map(
        self, node: "Node", job: "Job", ctx: SchedulerContext
    ) -> Optional["MapTask"]:
        raise NotImplementedError

    def select_reduce(
        self, node: "Node", job: "Job", ctx: SchedulerContext
    ) -> Optional["ReduceTask"]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
