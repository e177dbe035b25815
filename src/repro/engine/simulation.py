"""The simulation front-end: wire everything together and run.

:class:`Simulation` assembles the substrate (clock, cluster, network, HDFS)
around a task scheduler and a workload, runs to completion, and returns a
:class:`RunResult` with the collected metrics — the one-call entry point
used by examples, benchmarks and experiments:

>>> from repro import Simulation, ClusterSpec, table2_batch
>>> from repro.core import ProbabilisticNetworkAwareScheduler
>>> sim = Simulation(
...     cluster=ClusterSpec(num_racks=2, nodes_per_rack=4),
...     scheduler=ProbabilisticNetworkAwareScheduler(),
...     jobs=table2_batch("wordcount", scale=0.02),
...     seed=7,
... )
>>> result = sim.run()
>>> result.collector.job_completion_times().shape
(10,)

Determinism: a single integer ``seed`` fans out (via ``SeedSequence``) into
independent streams for replica placement, per-job data draws, and scheduler
coin flips, so two runs with equal seeds are identical and two schedulers
compared under the same seed see the *same* cluster data layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.cluster.background import BackgroundSpec, BackgroundTraffic
from repro.cluster.cluster import Cluster, ClusterSpec
from repro.cluster.routing import RoutingController
from repro.cluster.telemetry import TelemetryMonitor
from repro.engine.config import EngineConfig
from repro.engine.jobtracker import JobTracker
from repro.faults.injector import FaultInjector
from repro.hdfs.namenode import NameNode
from repro.hdfs.placement import PlacementPolicy
from repro.hdfs.replication import ReplicationMonitor
from repro.metrics.collector import MetricsCollector
from repro.obs.instruments import MetricsRegistry
from repro.obs.plane import MetricsPlane
from repro.schedulers.base import TaskScheduler
from repro.schedulers.joblevel import JobLevelScheduler
from repro.sim import SimulationError, Simulator
from repro.trace.events import RunStart
from repro.trace.recorder import NullRecorder, TraceRecorder
from repro.units import fmt_bytes
from repro.workload.spec import JobSpec

__all__ = ["Simulation", "RunResult", "RNG_STREAMS"]

#: Spawn-index -> purpose of every child stream of the run's root
#: ``SeedSequence`` fan-out.  Append-only: the indices are load-bearing —
#: children are keyed by spawn index, so adding a stream at the end leaves
#: existing runs bit-for-bit intact while renumbering would not.
RNG_STREAMS = {
    0: "placement",
    1: "scheduler",
    2: "background",
    3: "faults",
    4: "telemetry",
    5: "replication",
}


@dataclass
class RunResult:
    """Everything measured in one run."""

    scheduler: str
    seed: int
    collector: MetricsCollector
    sim_time: float
    bytes_over_fabric: float
    bytes_local: float
    flows: int
    map_slots: int
    reduce_slots: int
    #: the run's TraceRecorder when tracing was enabled, else None
    trace: Optional[TraceRecorder] = None
    #: the run's sampled metrics registry when metrics were enabled
    metrics: Optional[MetricsRegistry] = None
    #: link-state control plane activity (0 on non-fabric topologies)
    route_convergences: int = 0
    reroutes: int = 0

    @property
    def job_completion_times(self) -> np.ndarray:
        return self.collector.job_completion_times()

    @property
    def mean_jct(self) -> float:
        times = self.job_completion_times
        return float(times.mean()) if times.size else 0.0

    def locality_shares(self, kind: Optional[str] = None) -> Dict[str, float]:
        return self.collector.locality_shares(kind)

    def utilisation(self, kind: str) -> float:
        cap = self.map_slots if kind == "map" else self.reduce_slots
        return self.collector.mean_utilisation(kind, cap)

    def jct_percentiles(self) -> Dict[str, float]:
        """Exact p50/p90/p99 job-completion times from the collector.

        Exact (``np.percentile`` over the full sample, linear
        interpolation), not the log-bucket approximation the streaming
        histograms report — the tests reconcile the two.
        """
        jct = self.job_completion_times
        if not jct.size:
            return {}
        p50, p90, p99 = np.percentile(jct, [50, 90, 99])
        return {"p50": float(p50), "p90": float(p90), "p99": float(p99)}

    def slot_utilisation(self, kind: str) -> tuple:
        """``(mean, peak)`` fraction of ``kind`` slots busy over the run."""
        cap = self.map_slots if kind == "map" else self.reduce_slots
        return (
            self.collector.mean_utilisation(kind, cap),
            self.collector.peak_utilisation(kind, cap),
        )

    def link_utilisation(self) -> Optional[tuple]:
        """``(mean, peak)`` fabric-link utilisation from the sampled
        metrics series, or ``None`` when the run kept no metrics."""
        if self.metrics is None:
            return None
        means = [v for _, v in self.metrics.series("net_link_util", stat="mean")]
        maxes = [v for _, v in self.metrics.series("net_link_util", stat="max")]
        if not means:
            return None
        return (sum(means) / len(means), max(maxes))

    def summary(self) -> str:
        """One-paragraph human-readable run summary."""
        jct = self.job_completion_times
        loc = self.locality_shares()
        lines = [
            f"scheduler={self.scheduler} seed={self.seed}",
            f"jobs completed: {jct.size}, makespan {self.collector.makespan():.1f} s",
            (
                f"job completion time: mean {jct.mean():.1f} s, "
                f"median {np.median(jct):.1f} s, max {jct.max():.1f} s"
            )
            if jct.size
            else "no jobs completed",
            (
                "jct percentiles: p50 {p50:.1f} s, p90 {p90:.1f} s, "
                "p99 {p99:.1f} s".format(**self.jct_percentiles())
            )
            if jct.size
            else "jct percentiles: n/a",
            (
                "slot utilisation: map mean {:.1%} peak {:.1%}, "
                "reduce mean {:.1%} peak {:.1%}".format(
                    *self.slot_utilisation("map"),
                    *self.slot_utilisation("reduce"),
                )
            ),
            (
                f"locality: node {loc['node']:.1%}, rack {loc['rack']:.1%}, "
                f"remote {loc['remote']:.1%}"
            ),
            f"fabric bytes {fmt_bytes(self.bytes_over_fabric)}, "
            f"local bytes {fmt_bytes(self.bytes_local)}",
            (
                f"slot offers: {self.collector.scheduling_assignments} assigned, "
                f"{self.collector.scheduling_declines} declined, "
                f"{self.collector.speculative_launched} speculative launches"
            ),
        ]
        reasons = self.collector.declines_by_reason()
        if reasons:
            detail = ", ".join(
                f"{kind}/{reason} {n}"
                for (kind, reason), n in sorted(reasons.items())
            )
            lines.append(f"declines by reason: {detail}")
        c = self.collector
        if (
            c.nodes_lost or c.attempts_killed or c.attempts_failed
            or c.maps_reexecuted or c.blacklistings or c.failed_jobs
        ):
            lines.append(
                f"faults: {c.nodes_lost} node losses "
                f"({c.nodes_rejoined} rejoined), "
                f"{c.attempts_killed} attempts killed, "
                f"{c.attempts_failed} attempts failed, "
                f"{c.maps_reexecuted} maps re-executed, "
                f"{c.blacklistings} blacklistings, "
                f"{len(c.failed_jobs)} jobs failed"
            )
        if (
            c.replicas_added or c.replicas_removed or c.blocks_lost
            or c.decommissions
        ):
            lines.append(
                f"durability: {c.replicas_added} replicas re-created "
                f"({fmt_bytes(c.repair_bytes)} repaired), "
                f"{c.replicas_removed} trimmed, "
                f"{c.blocks_lost} blocks lost, "
                f"{c.decommissions} nodes decommissioned"
            )
        if c.tracker_crashes:
            lines.append(
                f"control plane: {c.tracker_crashes} tracker crashes, "
                f"{c.tracker_restarts} restarts"
            )
        if self.route_convergences:
            lines.append(
                f"fabric: {self.route_convergences} route convergences, "
                f"{self.reroutes} in-flight flows migrated"
            )
        link = self.link_utilisation()
        if link is not None:
            lines.append(
                f"link utilisation: mean {link[0]:.1%}, peak {link[1]:.1%} "
                f"({len(self.metrics.sample_times)} samples)"
            )
        return "\n".join(lines)


class Simulation:
    """One configured, runnable experiment."""

    def __init__(
        self,
        *,
        cluster: Union[Cluster, ClusterSpec],
        scheduler: TaskScheduler,
        jobs: Sequence[JobSpec],
        job_scheduler: Optional[JobLevelScheduler] = None,
        placement: Optional[PlacementPolicy] = None,
        config: Optional[EngineConfig] = None,
        background: Optional[BackgroundSpec] = None,
        seed: int = 0,
        recorder: Optional[NullRecorder] = None,
    ) -> None:
        if not jobs:
            raise ValueError("need at least one job spec")
        self.seed = seed
        self.config = config or EngineConfig()
        if recorder is not None:
            self.recorder = recorder
        elif self.config.trace or self.config.trace_jsonl:
            self.recorder = TraceRecorder()
        else:
            self.recorder = NullRecorder()
        if isinstance(cluster, Cluster):
            # adopt a prebuilt cluster (custom topology) and its clock
            self.cluster = cluster
            self.sim = cluster.sim
        else:
            # any spec object with .build(sim) -> Cluster (ClusterSpec,
            # repro.yarn.YarnClusterSpec, ...)
            self.sim = Simulator()
            self.cluster = cluster.build(self.sim)
        ss = np.random.SeedSequence(seed)
        # children are keyed by spawn index, so appending the faults (4th),
        # telemetry (5th) and replication (6th) streams left existing runs
        # bit-for-bit intact
        (
            placement_ss,
            scheduler_ss,
            background_ss,
            faults_ss,
            telemetry_ss,
            replication_ss,
        ) = ss.spawn(len(RNG_STREAMS))
        self.namenode = NameNode(
            self.cluster,
            replication=self.config.replication,
            policy=placement,
            rng=np.random.default_rng(placement_ss),
        )
        self.tracker = JobTracker(
            self.sim,
            self.cluster,
            self.namenode,
            scheduler,
            job_scheduler=job_scheduler,
            config=self.config,
            rng=np.random.default_rng(scheduler_ss),
            seed=seed,
            recorder=self.recorder,
        )
        if self.recorder.enabled:
            self.recorder.emit(
                RunStart(t=self.sim.now, scheduler=scheduler.name, seed=seed)
            )
        self.routing: Optional[RoutingController] = None
        if getattr(self.cluster.topology, "routing", None) == "linkstate":
            self.routing = RoutingController(
                self.cluster,
                convergence_delay=self.config.route_convergence_delay,
                recorder=self.recorder,
            )
            self.cluster.routing = self.routing
        self.replication: Optional[ReplicationMonitor] = None
        if self.config.durability is not None:
            self.replication = ReplicationMonitor(
                self.sim,
                self.cluster,
                self.namenode,
                self.tracker,
                rng=np.random.default_rng(replication_ss),
                config=self.config.durability,
            )
            self.tracker.replication = self.replication
        self.faults: Optional[FaultInjector] = None
        if self.config.faults is not None and not self.config.faults.empty:
            if self.config.faults.decommissions and self.replication is None:
                raise ValueError(
                    "fault plan contains decommissions but the run has no "
                    "durability plane — set EngineConfig(durability=...)"
                )
            self.faults = FaultInjector(
                self.config.faults, self.cluster, self.tracker, faults_ss
            )
            self.tracker.faults = self.faults
        self.telemetry: Optional[TelemetryMonitor] = None
        if self.config.telemetry is not None:
            self.telemetry = TelemetryMonitor(
                self.cluster,
                self.config.telemetry,
                np.random.default_rng(telemetry_ss),
                recorder=self.recorder,
            )
            self.tracker.telemetry = self.telemetry
        self.metrics: Optional[MetricsPlane] = None
        if self.config.metrics is not None:
            self.metrics = MetricsPlane(
                self.sim, self.cluster, self.tracker, self.config.metrics
            )
            self.tracker.metrics = self.metrics
        self.background: Optional[BackgroundTraffic] = None
        if background is not None:
            self.background = BackgroundTraffic(
                self.cluster.network,
                background,
                np.random.default_rng(background_ss),
                should_continue=lambda: not self.tracker.all_done,
            )
        self.specs = list(jobs)
        ids = [s.job_id for s in self.specs]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate job ids in workload: {ids}")
        for spec in self.specs:
            self.tracker.submit_spec(spec)

    def _stall_diagnostics(self) -> str:
        """Engine-level context for StallError dumps: job progress, flows."""
        lines = ["engine state:"]
        net = self.cluster.network
        lines.append(
            f"  live flows: {net.active_flows} "
            f"(started {net.flows_started} total)"
        )
        for job in self.tracker.active_jobs:
            running_maps = len(job.running_maps())
            running_reduces = len(job.running_reduces())
            fetching = sum(
                len(r._fetch.pending) + r._fetch.active
                for r in job.running_reduces()
                if getattr(r, "_fetch", None) is not None
            )
            lines.append(
                f"  job {job.spec.job_id}: maps {job.maps_done}/"
                f"{job.num_maps} done ({running_maps} running), reduces "
                f"{job.reduces_done}/{job.num_reduces} done "
                f"({running_reduces} running, {fetching} undrained fetches)"
            )
        if not self.tracker.active_jobs:
            lines.append("  no active jobs")
        return "\n".join(lines)

    def run(self, until: Optional[float] = None) -> RunResult:
        """Run to completion (or ``until``) and return the measurements."""
        self.tracker.start()
        if self.routing is not None:
            self.tracker.on_all_done_hooks.append(self.routing.stop)
        if self.replication is not None:
            self.replication.start()
        if self.faults is not None:
            self.faults.start()
        if self.background is not None:
            self.background.start()
        if (
            self.telemetry is not None
            and 0 < self.config.telemetry.period < float("inf")
        ):
            sampler = self.sim.every(
                self.config.telemetry.period, self.telemetry.sample,
                start=self.sim.now,
            )
            self.tracker.on_all_done_hooks.append(sampler.stop)
        if (
            self.metrics is not None
            and self.config.metrics.period < float("inf")
        ):
            msampler = self.sim.every(
                self.config.metrics.period, self.metrics.sample,
                start=self.sim.now,
            )
            self.tracker.on_all_done_hooks.append(msampler.stop)
        if self.metrics is not None:
            # one guaranteed sample at the completion instant — after the
            # run loop the kernel clock sits at the horizon, a time no
            # event reached (see MetricsPlane.finalize)
            self.tracker.on_all_done_hooks.append(self.metrics.sample)
        horizon = until if until is not None else self.config.horizon
        self.sim.stall_diagnostics = self._stall_diagnostics
        self.sim.run(
            until=horizon,
            max_stall_iters=self.config.max_stall_iters or None,
        )
        if until is None and not self.tracker.all_done:
            raise SimulationError(
                f"simulation hit the {horizon:.0f} s horizon with "
                f"{len(self.tracker.active_jobs)} jobs unfinished — "
                "likely a scheduler livelock"
            )
        if (
            self.replication is not None
            and self.replication.stopped
            and self.tracker.invariants is not None
        ):
            self.tracker.invariants.check_durability(self.replication)
        net = self.cluster.network
        if self.recorder.enabled and self.config.trace_jsonl:
            from repro.trace.export import events_to_jsonl

            events_to_jsonl(
                self.recorder.events, self.config.trace_jsonl, append=True
            )
        if self.metrics is not None:
            self.metrics.finalize()
            if self.config.metrics.jsonl:
                from repro.obs.export import write_metrics_jsonl

                write_metrics_jsonl(
                    self.metrics.registry,
                    self.config.metrics.jsonl,
                    append=True,
                    meta={
                        "scheduler": self.tracker.task_scheduler.name,
                        "seed": self.seed,
                        "period": self.config.metrics.period,
                    },
                )
        return RunResult(
            scheduler=self.tracker.task_scheduler.name,
            seed=self.seed,
            collector=self.tracker.collector,
            sim_time=self.sim.now,
            bytes_over_fabric=net.bytes_transferred,
            bytes_local=net.bytes_local,
            flows=net.flows_started,
            map_slots=self.cluster.total_map_slots(),
            reduce_slots=self.cluster.total_reduce_slots(),
            trace=self.recorder if self.recorder.enabled else None,
            metrics=self.metrics.registry if self.metrics is not None else None,
            route_convergences=(
                self.routing.convergences if self.routing is not None else 0
            ),
            reroutes=net.reroutes,
        )
