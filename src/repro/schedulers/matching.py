"""Quincy-style min-cost matching scheduler (related work [20]).

The paper's §IV cites Quincy, which formulates task placement as a global
min-cost flow over tasks and locations.  This module implements the
batch-optimal essence of that idea inside the heartbeat-offer interface:

on every offer, solve a **minimum-cost assignment** between the job's
pending tasks and the currently free slots (Hungarian algorithm via
``scipy.optimize.linear_sum_assignment``) using the same transmission-cost
matrices as the PNA scheduler (Formulae 1–3), then return the task the
solution assigns to the *offering* node (or decline if the optimum leaves
this node empty).

Contrast with the paper's approach: the matching is *jointly* optimal for
the instantaneous snapshot but deterministic and myopic — it neither
anticipates future offers (the reason the paper keeps a probabilistic
decline) nor accounts for tasks that would rather wait.  Comparing the two
quantifies how much of Quincy's global optimality survives online arrival.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.core.cost import JobCostModel
from repro.core.estimator import IntermediateEstimator, ProgressEstimator
from repro.schedulers.base import SchedulerContext, TaskScheduler
from repro.trace.events import COLOCATION_VETO, UNMATCHED

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.engine.job import Job
    from repro.engine.task import MapTask, ReduceTask

__all__ = ["MatchingScheduler"]


class MatchingScheduler(TaskScheduler):
    """Snapshot-optimal assignment of pending tasks to free slots."""

    name = "matching"

    def __init__(
        self,
        *,
        estimator: Optional[IntermediateEstimator] = None,
        avoid_reduce_colocation: bool = True,
    ) -> None:
        self.estimator = estimator or ProgressEstimator()
        self.avoid_reduce_colocation = avoid_reduce_colocation
        self._models: Dict[str, JobCostModel] = {}

    def on_job_added(self, job: "Job") -> None:
        self._models[job.spec.job_id] = JobCostModel.attach(job)

    # ------------------------------------------------------------------
    @staticmethod
    def _expand_slots(nodes, free_count) -> np.ndarray:
        """One column per free slot (a node with k free slots appears k times)."""
        cols = []
        for n in nodes:
            cols.extend([n.index] * free_count(n))
        return np.array(cols, dtype=np.int64)

    def _assign_for_node(
        self, node: "Node", cost: np.ndarray, slot_nodes: np.ndarray
    ) -> Optional[int]:
        """Solve the matching; return the task row assigned to ``node``.

        ``cost`` is (tasks × slots).  When tasks outnumber slots the
        assignment picks the cheapest task subset; when slots are plentiful
        every task lands somewhere.
        """
        # deferred: scipy.optimize takes ~0.4 s to import, and no other
        # scheduler needs it
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(cost)
        for r, c in zip(rows, cols):
            if slot_nodes[c] == node.index:
                return int(r)
        return None

    # ------------------------------------------------------------------
    def select_map(
        self, node: "Node", job: "Job", ctx: SchedulerContext
    ) -> Optional["MapTask"]:
        pending = job.pending_maps()
        if not pending:
            return None
        model = self._models[job.spec.job_id]
        free = ctx.free_map_nodes()
        slot_nodes = self._expand_slots(free, lambda n: n.free_map_slots)
        task_idx = np.array([m.index for m in pending], dtype=np.int64)
        node_costs = model.map_costs(
            np.unique(slot_nodes), task_idx
        )
        # expand the unique-node cost rows to per-slot columns
        unique = {int(u): i for i, u in enumerate(np.unique(slot_nodes))}
        cost = np.empty((len(pending), len(slot_nodes)))
        for c, nidx in enumerate(slot_nodes):
            cost[:, c] = node_costs[unique[int(nidx)], :]
        row = self._assign_for_node(node, cost, slot_nodes)
        if row is None:
            ctx.note_decline(UNMATCHED)
            return None
        return pending[row]

    def select_reduce(
        self, node: "Node", job: "Job", ctx: SchedulerContext
    ) -> Optional["ReduceTask"]:
        if self.avoid_reduce_colocation and job.has_running_reduce_on(node.name):
            ctx.note_decline(COLOCATION_VETO)
            return None
        pending = job.pending_reduces()
        if not pending:
            return None
        model = self._models[job.spec.job_id]
        free = [
            n for n in ctx.free_reduce_nodes()
            if not (self.avoid_reduce_colocation
                    and job.has_running_reduce_on(n.name))
        ]
        if not free:
            ctx.note_decline(COLOCATION_VETO)
            return None
        slot_nodes = self._expand_slots(free, lambda n: n.free_reduce_slots)
        reduce_idx = np.array([r.index for r in pending], dtype=np.int64)
        uniq = np.unique(slot_nodes)
        node_costs = model.reduce_costs(
            uniq, reduce_idx, ctx.now, estimator=self.estimator
        )
        unique = {int(u): i for i, u in enumerate(uniq)}
        cost = np.empty((len(pending), len(slot_nodes)))
        for c, nidx in enumerate(slot_nodes):
            cost[:, c] = node_costs[unique[int(nidx)], :]
        row = self._assign_for_node(node, cost, slot_nodes)
        if row is None:
            return None
        return pending[row]
