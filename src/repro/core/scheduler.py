"""The probabilistic network-aware (PNA) task scheduler — Algorithms 1 & 2.

On a heartbeat offering a slot on node ``D_i``:

1. compute, for every unassigned candidate task of the offered job, the
   transmission cost ``C_i`` of running it on ``D_i`` and the expected cost
   ``C_ave`` of running it on a uniformly random node with a free slot of
   the same kind (Formulae 1–3, via :class:`~repro.core.cost.JobCostModel`);
2. convert to an acceptance probability ``P = model(C_ave, C_i)``
   (Formulae 4–5, exponential by default);
3. take the candidate with the **largest** ``P`` (i.e. the one whose
   placement here saves the most versus elsewhere);
4. decline the slot if ``P < P_min`` (paper value 0.4), otherwise assign
   with probability ``P`` (one Bernoulli draw per offer).

Reduce offers additionally enforce Algorithm 2's line 1: a node already
running one of the job's reducers is never given a second (I/O contention /
downlink congestion avoidance).

The ``network_condition`` switch (Section II-B-3) replaces the hop-count
distance matrix with the live inverse-path-rate matrix on every decision,
making the cost sensitive to congestion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.core.cost import Distance, JobCostModel
from repro.core.estimator import IntermediateEstimator, ProgressEstimator
from repro.core.probability import ExponentialModel, ProbabilityModel
from repro.schedulers.base import SchedulerContext, TaskScheduler
from repro.trace.events import BELOW_PMIN, BERNOULLI_MISS, COLOCATION_VETO

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.engine.job import Job
    from repro.engine.task import MapTask, ReduceTask

__all__ = ["PNAConfig", "ProbabilisticNetworkAwareScheduler"]


@dataclass(frozen=True)
class PNAConfig:
    """Tuning knobs of the PNA scheduler.

    Attributes
    ----------
    p_min:
        Probability threshold below which a slot offer is declined
        (Algorithm 1 line 10; the paper tunes it to 0.4 on Palmetto).
    network_condition:
        Use the live inverse-path-rate matrix instead of hop counts
        (Section II-B-3).
    avoid_reduce_colocation:
        Enforce Algorithm 2 line 1 (on by default, as in the paper).
    """

    p_min: float = 0.4
    network_condition: bool = False
    avoid_reduce_colocation: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_min < 1.0:
            raise ValueError(f"p_min must be in [0, 1), got {self.p_min}")


class ProbabilisticNetworkAwareScheduler(TaskScheduler):
    """The paper's contribution, ready to drop into a :class:`Simulation`.

    Parameters
    ----------
    config:
        :class:`PNAConfig`; defaults to the paper's settings.
    probability_model:
        Formula (4)/(5) family member; exponential by default.
    estimator:
        Intermediate-size estimator for reduce costs; the paper's
        progress-extrapolation by default (swap for ablation A2).
    """

    name = "probabilistic"

    def __init__(
        self,
        config: Optional[PNAConfig] = None,
        *,
        probability_model: Optional[ProbabilityModel] = None,
        estimator: Optional[IntermediateEstimator] = None,
    ) -> None:
        self.config = config or PNAConfig()
        self.probability_model = probability_model or ExponentialModel()
        self.estimator = estimator or ProgressEstimator()
        self._models: Dict[str, JobCostModel] = {}
        if self.config.network_condition:
            self.name = "probabilistic-netcond"

    # ------------------------------------------------------------------
    def on_job_added(self, job: "Job") -> None:
        self._models[job.spec.job_id] = JobCostModel.attach(job)

    def cost_model(self, job: "Job") -> JobCostModel:
        return self._models[job.spec.job_id]

    def _distance(self, ctx: SchedulerContext) -> Distance:
        """None selects the cached hop matrix; otherwise live inverse rates
        (the cluster's per-epoch path-cost view).

        With a telemetry monitor attached the scheduler sees the
        measurement plane's possibly stale/noisy view (per-path hop-count
        fallback included) instead of oracle truth; the monitor itself
        returns None once every path is stale.
        """
        if not self.config.network_condition:
            return None
        monitor = ctx.telemetry
        if monitor is not None:
            return monitor.path_costs(ctx.now)
        return ctx.cluster.path_costs()

    # ------------------------------------------------------------------
    # Algorithm 1 — map placement
    # ------------------------------------------------------------------
    def select_map(
        self, node: "Node", job: "Job", ctx: SchedulerContext
    ) -> Optional["MapTask"]:
        pending = job.pending_maps()
        if not pending:
            return None
        model = self.cost_model(job)
        _, free_idx, free_pos = ctx.free_map_view()
        task_idx = job.pending_map_index_array()
        row = int(free_pos[node.index])
        assert row >= 0, f"offered node {node.name} not in the free-slot view"
        # C_m(i, j) per candidate and the Line-6 mean over N_m nodes, as a
        # bundle: offers between state changes share one matrix evaluation
        c_here, c_ave = model.map_offer_costs(
            row, free_idx, task_idx, distance=self._distance(ctx)
        )
        probs = self.probability_model.probability(c_ave, c_here)  # Line 7
        if ctx.invariants is not None:
            ctx.invariants.check_probabilities(
                probs, where=f"{self.name}.select_map[{job.spec.job_id}]"
            )

        best = int(np.argmax(probs))              # Line 9
        p_best = float(probs[best])
        if ctx.recorder.enabled:
            ctx.note_evaluation(
                kind="map", job_id=job.spec.job_id, node=node,
                candidates=len(pending), task_index=pending[best].index,
                c_here=float(c_here[best]), c_ave=float(c_ave[best]),
                p=p_best,
            )
        if p_best < self.config.p_min:            # Lines 10-12
            ctx.note_decline(BELOW_PMIN)
            return None
        if ctx.rng.random() < p_best:             # Lines 13-16
            return pending[best]
        ctx.note_decline(BERNOULLI_MISS)
        return None

    # ------------------------------------------------------------------
    # Algorithm 2 — reduce placement
    # ------------------------------------------------------------------
    def select_reduce(
        self, node: "Node", job: "Job", ctx: SchedulerContext
    ) -> Optional["ReduceTask"]:
        if self.config.avoid_reduce_colocation and job.has_running_reduce_on(
            node.name
        ):
            ctx.note_decline(COLOCATION_VETO)
            return None                           # Line 1
        pending = job.pending_reduces()
        if not pending:
            return None
        model = self.cost_model(job)
        _, free_idx, free_pos = ctx.free_reduce_view()
        reduce_idx = job.pending_reduce_index_array()
        row = int(free_pos[node.index])
        assert row >= 0, f"offered node {node.name} not in the free-slot view"
        # Lines 3-5 (Formula 3) and the Line-7 mean over N_r nodes, bundled
        c_here, c_ave = model.reduce_offer_costs(
            row,
            free_idx,
            reduce_idx,
            ctx.now,
            estimator=self.estimator,
            distance=self._distance(ctx),
        )
        probs = self.probability_model.probability(c_ave, c_here)  # Line 8
        if ctx.invariants is not None:
            ctx.invariants.check_probabilities(
                probs, where=f"{self.name}.select_reduce[{job.spec.job_id}]"
            )

        best = int(np.argmax(probs))               # Line 10
        p_best = float(probs[best])
        if ctx.recorder.enabled:
            ctx.note_evaluation(
                kind="reduce", job_id=job.spec.job_id, node=node,
                candidates=len(pending), task_index=pending[best].index,
                c_here=float(c_here[best]), c_ave=float(c_ave[best]),
                p=p_best,
            )
        if p_best < self.config.p_min:              # Lines 11-13
            ctx.note_decline(BELOW_PMIN)
            return None
        if ctx.rng.random() < p_best:               # Lines 14-17
            return pending[best]
        ctx.note_decline(BERNOULLI_MISS)
        return None
