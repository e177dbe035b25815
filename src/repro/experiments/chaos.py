"""Chaos soak harness: randomized fault plans, verified end to end.

The ROADMAP's north star — "handle as many scenarios as you can imagine" —
needs more than hand-written fault tests: it needs *generated* adversity.
This module builds seed-reproducible randomized :class:`FaultPlan`s
(bounded node crashes, churn, heartbeat loss, link degradation, tracker
crashes, and — on fabric rounds — link/switch failures with link-state
re-routing) plus degraded telemetry, runs every scheduler family under
them with runtime invariants enabled, and verifies each run end to end.
Every other round additionally turns on the HDFS durability plane
(:class:`~repro.hdfs.ReplicationMonitor`), so re-replication competes
with shuffle traffic while nodes churn; those rounds must end with zero
permanently lost blocks and every repairable block back at target.
The checks:

* **completion** — every job finishes (plans are survivable by
  construction: crashes always revive, every failed link and switch
  heals, and no charged task failures are injected, so Hadoop-1.x
  recovery must always win);
* **byte conservation** — no reduce fetches more bytes than its
  partition column of the intermediate matrix ``I`` contains;
* **determinism** — re-running a round's first case with the same seed
  yields a byte-identical JSONL trace.

Exposed as ``repro chaos --rounds N --seed S`` (CI runs
``--rounds 3 --quick``) and reused by ``benchmarks/bench_chaos.py`` to
quantify JCT inflation versus fault intensity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster import Cluster
from repro.cluster.telemetry import TelemetryConfig
from repro.cluster.topologies import clos_topology
from repro.core import PNAConfig, ProbabilisticNetworkAwareScheduler
from repro.obs import MetricsConfig
from repro.engine import Simulation
from repro.experiments.scenarios import get_scenario
from repro.hdfs import DurabilityConfig
from repro.faults import (
    FaultPlan,
    HeartbeatLoss,
    LinkDegradation,
    LinkFailure,
    NodeChurn,
    NodeCrash,
    SwitchFailure,
    TrackerCrash,
)
from repro.sim import Simulator
from repro.schedulers import CouplingScheduler, FairScheduler, TaskScheduler
from repro.trace.export import jsonl_lines

__all__ = [
    "ChaosReport",
    "ChaosRun",
    "chaos_schedulers",
    "cluster_targets",
    "fabric_cluster",
    "fabric_targets",
    "random_fault_plan",
    "random_telemetry",
    "run_chaos",
    "run_chaos_case",
]

#: sim-seconds fault activity is confined to; CI-scale rounds finish well
#: inside this, so late-run faults still land on live work.
_FAULT_WINDOW = 240.0


def random_fault_plan(
    rng: np.random.Generator,
    nodes: Tuple[str, ...],
    racks: Tuple[str, ...],
    *,
    intensity: float = 1.0,
    links: Tuple[Tuple[str, str], ...] = (),
    switches: Tuple[str, ...] = (),
) -> FaultPlan:
    """One randomized, survivable fault plan.

    Every crash revives (``down_for`` always set) and no per-attempt task
    failures are injected, so no job can exhaust a retry budget — a run
    that fails to complete is an engine bug, not bad luck.  ``intensity``
    scales both event counts and outage durations; ``0`` yields the empty
    plan.

    ``links``/``switches`` list candidate fabric targets (graph-backed
    topologies only); when given, the plan additionally draws link and
    switch failures.  Every fabric fault heals after a bounded duration,
    so any partition it opens is transient — shuffle fetches park and
    retry, and the plan stays survivable.  The fabric draws happen *after*
    all other draws, so plans without fabric targets are byte-identical
    to plans generated before fabric faults existed.
    """
    if intensity < 0:
        raise ValueError(f"intensity must be >= 0, got {intensity}")
    if intensity == 0:
        return FaultPlan()
    scale = float(intensity)

    n_crashes = int(rng.integers(0, max(2, round(3 * scale)) + 1))
    crashes = tuple(
        NodeCrash(
            at=float(rng.uniform(5.0, _FAULT_WINDOW)),
            node=str(rng.choice(nodes)),
            down_for=float(rng.uniform(20.0, 60.0 * scale + 20.0)),
        )
        for _ in range(n_crashes)
    )

    churn = None
    if rng.random() < min(0.5 * scale, 0.9):
        churn = NodeChurn(
            level=float(rng.uniform(0.01, min(0.05 * scale, 0.2))),
            mean_downtime=float(rng.uniform(30.0, 90.0)),
        )

    heartbeat_loss = None
    if rng.random() < min(0.5 * scale, 0.9):
        heartbeat_loss = HeartbeatLoss(
            prob=float(rng.uniform(0.01, min(0.1 * scale, 0.4)))
        )

    degradations = tuple(
        LinkDegradation(
            at=float(rng.uniform(5.0, _FAULT_WINDOW)),
            factor=float(rng.uniform(0.1, 0.7)),
            duration=float(rng.uniform(20.0, 60.0 * scale + 20.0)),
            **(
                {"node": str(rng.choice(nodes))}
                if rng.random() < 0.5
                else {"rack": str(rng.choice(racks))}
            ),
        )
        for _ in range(int(rng.integers(0, 3)))
    )

    tracker_crashes: Tuple[TrackerCrash, ...] = ()
    if rng.random() < min(0.4 * scale, 0.9):
        tracker_crashes = (
            TrackerCrash(
                at=float(rng.uniform(10.0, _FAULT_WINDOW)),
                down_for=float(rng.uniform(10.0, 30.0 * scale + 10.0)),
            ),
        )

    link_failures: Tuple[LinkFailure, ...] = ()
    if links:
        link_failures = tuple(
            LinkFailure(
                link=links[int(rng.integers(0, len(links)))],
                duration=float(rng.uniform(10.0, 30.0 * scale + 10.0)),
                at=float(rng.uniform(5.0, _FAULT_WINDOW)),
            )
            for _ in range(int(rng.integers(1, max(2, round(2 * scale)) + 1)))
        )

    switch_failures: Tuple[SwitchFailure, ...] = ()
    if switches and rng.random() < min(0.6 * scale, 0.9):
        switch_failures = (
            SwitchFailure(
                switch=str(rng.choice(switches)),
                duration=float(rng.uniform(10.0, 25.0 * scale + 10.0)),
                at=float(rng.uniform(5.0, _FAULT_WINDOW)),
            ),
        )

    return FaultPlan(
        crashes=crashes,
        churn=churn,
        task_failures=None,  # charged failures could legitimately fail jobs
        heartbeat_loss=heartbeat_loss,
        degradations=degradations,
        tracker_crashes=tracker_crashes,
        link_failures=link_failures,
        switch_failures=switch_failures,
    )


def random_telemetry(
    rng: np.random.Generator, *, intensity: float = 1.0
) -> TelemetryConfig:
    """Randomized degraded-measurement-plane knobs (netcond runs only)."""
    scale = max(float(intensity), 0.0)
    return TelemetryConfig(
        period=float(rng.uniform(3.0, 10.0)),
        staleness_budget=float(rng.uniform(10.0, 40.0)),
        noise=float(rng.uniform(0.0, min(0.3 * scale, 0.8))),
        drop_prob=float(rng.uniform(0.0, min(0.3 * scale, 0.8))),
    )


def chaos_schedulers() -> Dict[str, Callable[[], TaskScheduler]]:
    """The scheduler families every round is soaked against."""
    return {
        "pna": lambda: ProbabilisticNetworkAwareScheduler(
            PNAConfig(network_condition=True)
        ),
        "fair": lambda: FairScheduler(),
        "coupling": lambda: CouplingScheduler(),
    }


@dataclass
class ChaosRun:
    """One (round, scheduler) soak result."""

    round_index: int
    scheduler: str
    seed: int
    plan: FaultPlan
    makespan: float = 0.0
    jobs_completed: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class ChaosReport:
    """Everything one ``repro chaos`` invocation produced."""

    rounds: int
    seed: int
    runs: List[ChaosRun] = field(default_factory=list)

    @property
    def violations(self) -> List[str]:
        out = []
        for run in self.runs:
            out.extend(
                f"round {run.round_index} [{run.scheduler}]: {v}"
                for v in run.violations
            )
        return out

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        lines = [
            f"chaos soak: {len(self.runs)} runs over {self.rounds} rounds "
            f"(seed {self.seed})"
        ]
        for run in self.runs:
            status = "ok" if run.ok else "FAIL"
            lines.append(
                f"  round {run.round_index:>2} {run.scheduler:<10} "
                f"{run.jobs_completed} jobs, makespan {run.makespan:7.1f} s  "
                f"{status}"
            )
        if self.violations:
            lines.append("violations:")
            lines.extend(f"  {v}" for v in self.violations)
        else:
            lines.append(
                "all runs completed; invariants held, bytes conserved, "
                "determinism verified"
            )
        return "\n".join(lines)


def _verify_run(sim: Simulation) -> List[str]:
    """Post-run checks beyond the in-run invariant checker."""
    problems: List[str] = []
    tracker = sim.tracker

    if tracker.failed_jobs:
        problems.append(
            f"{len(tracker.failed_jobs)} jobs failed under a survivable plan"
        )
    if not tracker.all_done:
        problems.append(
            f"{len(tracker.active_jobs)} jobs never finished"
        )

    # shuffle byte conservation, re-derived from the intermediate matrices
    for job in tracker.finished_jobs:
        totals = np.asarray(job.I, dtype=np.float64).sum(axis=0)
        for task in job.reduces:
            bound = float(totals[task.index])
            if task.shuffled_bytes > bound * (1.0 + 1e-6) + 1.0:
                problems.append(
                    f"job {job.spec.job_id} reduce {task.index} fetched "
                    f"{task.shuffled_bytes:.0f} B > {bound:.0f} B produced"
                )

    # durability rounds: survivable plans revive every crashed node, so no
    # block may end the run permanently lost, and (with RF >= 2 and a repair
    # source always reachable eventually) the under-replication queues must
    # have drained for every repairable block
    monitor = sim.replication
    if monitor is not None:
        lost = monitor.lost_blocks()
        if lost:
            problems.append(
                f"{len(lost)} blocks permanently lost under a survivable "
                f"plan (first: block {lost[0].block_id} of {lost[0].file})"
            )
        stuck = [
            b for b in monitor.under_replicated()
            if not monitor.unrepairable(b)
        ]
        if stuck:
            problems.append(
                f"{len(stuck)} repairable blocks still under-replicated "
                "at end of run"
            )

    # journal must replay to the final engine state after any restart
    if tracker.journal is not None and not tracker.tracker_down:
        mismatches = tracker.journal.reconcile(tracker)
        if mismatches:
            problems.append(
                "journal reconciliation: " + "; ".join(mismatches[:3])
            )
    return problems


def _chaos_config(scenario, plan, telemetry, metrics_path="", durability=None):
    return replace(
        scenario.config,
        faults=plan,
        telemetry=telemetry,
        metrics=MetricsConfig(jsonl=metrics_path) if metrics_path else None,
        durability=durability,
        tracker_expiry_interval=15.0,
        check_invariants=True,
        trace=True,
        horizon=100_000.0,
    )


def cluster_targets(spec) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """Node and rack names of a ClusterSpec without touching a run's sim."""
    cluster = spec.build(Simulator())
    nodes = tuple(n.name for n in cluster.nodes)
    racks = tuple(dict.fromkeys(n.rack for n in cluster.nodes))
    return nodes, racks


def fabric_cluster() -> Cluster:
    """A fresh link-state Clos cluster for fabric chaos rounds (k=4)."""
    return Cluster(Simulator(), clos_topology(4, routing="linkstate"))


def fabric_targets() -> Tuple[
    Tuple[str, ...],
    Tuple[str, ...],
    Tuple[Tuple[str, str], ...],
    Tuple[str, ...],
]:
    """(nodes, racks, links, switches) of the fabric chaos cluster."""
    cluster = fabric_cluster()
    graph = cluster.topology.graph
    nodes = tuple(n.name for n in cluster.nodes)
    racks = tuple(dict.fromkeys(n.rack for n in cluster.nodes))
    links = tuple(
        sorted((u, v) if u <= v else (v, u) for u, v in graph.edges())
    )
    switches = tuple(
        sorted(
            n for n, d in graph.nodes.items() if d.get("kind") != "host"
        )
    )
    return nodes, racks, links, switches


def run_chaos_case(
    rnd: int,
    name: str,
    factory: Callable[[], TaskScheduler],
    plan: FaultPlan,
    telemetry: Optional[TelemetryConfig],
    seed: int,
    *,
    quick: bool,
    metrics_path: str = "",
    cluster_factory: Optional[Callable[[], Cluster]] = None,
    durability: Optional[DurabilityConfig] = None,
) -> Tuple[ChaosRun, Optional[List[str]]]:
    scenario = get_scenario("ci")
    jobs = scenario.jobs("wordcount")
    if quick:
        jobs = jobs[:4]
    run = ChaosRun(round_index=rnd, scheduler=name, seed=seed, plan=plan)
    sim = Simulation(
        cluster=cluster_factory() if cluster_factory else scenario.cluster,
        scheduler=factory(),
        jobs=jobs,
        placement=scenario.placement,
        config=_chaos_config(
            scenario, plan, telemetry, metrics_path, durability
        ),
        background=scenario.background,
        seed=seed,
    )
    try:
        result = sim.run()
    except Exception as exc:  # noqa: BLE001 - a crash IS the finding
        run.violations.append(f"run raised {type(exc).__name__}: {exc}")
        return run, None
    run.makespan = result.collector.makespan()
    run.jobs_completed = int(result.collector.job_completion_times().size)
    run.violations.extend(_verify_run(sim))
    lines = jsonl_lines(result.trace.events) if result.trace else []
    return run, lines


def run_chaos(
    *,
    rounds: int = 20,
    seed: int = 0,
    intensity: float = 1.0,
    quick: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    trace_path: str = "",
    metrics_path: str = "",
) -> ChaosReport:
    """The soak: ``rounds`` random plans × every scheduler family.

    The first PNA case of round 0 (plain) and round 1 (durability plane
    on) is re-run with identical inputs and its JSONL trace compared
    byte for byte, so every soak also proves seed reproducibility.  ``trace_path`` appends each run's trace to one
    JSONL artifact (CI uploads it).  ``metrics_path`` likewise appends
    each run's metrics export (:mod:`repro.obs`); the determinism re-run
    deliberately runs *without* metrics, so a matching trace doubles as
    proof that enabling the plane never shifts scheduling.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    report = ChaosReport(rounds=rounds, seed=seed)
    scenario = get_scenario("ci")
    nodes, racks = cluster_targets(scenario.cluster)
    fab_nodes, fab_racks, fab_links, fab_switches = fabric_targets()
    schedulers = chaos_schedulers()
    sink = open(trace_path, "a", encoding="utf-8") if trace_path else None
    try:
        for rnd in range(rounds):
            plan_rng = np.random.default_rng(
                np.random.SeedSequence([seed, rnd])
            )
            # every third round runs on a link-state Clos fabric and adds
            # survivable link/switch failures to the plan, so re-routing,
            # park-and-retry and partition healing are soaked too
            fabric_round = rnd % 3 == 2
            # every other round also runs the HDFS durability plane, so
            # re-replication under churn, repair-flow cancellation and
            # loss accounting are soaked alongside the fault kinds —
            # survivable plans must end with zero permanently lost blocks
            durability = (
                DurabilityConfig() if rnd % 2 == 1 else None
            )
            if fabric_round:
                plan = random_fault_plan(
                    plan_rng, fab_nodes, fab_racks, intensity=intensity,
                    links=fab_links, switches=fab_switches,
                )
            else:
                plan = random_fault_plan(
                    plan_rng, nodes, racks, intensity=intensity
                )
            telemetry = random_telemetry(plan_rng, intensity=intensity)
            run_seed = seed + 7919 * rnd
            factory_arg = fabric_cluster if fabric_round else None
            for name, factory in schedulers.items():
                if progress is not None:
                    tag = " (fabric)" if fabric_round else ""
                    if durability is not None:
                        tag += " (durability)"
                    progress(
                        f"round {rnd}{tag} [{name}] plan: {_describe(plan)}"
                    )
                tel = telemetry if name == "pna" else None
                run, lines = run_chaos_case(
                    rnd, name, factory, plan, tel, run_seed, quick=quick,
                    metrics_path=metrics_path, cluster_factory=factory_arg,
                    durability=durability,
                )
                if sink is not None and lines:
                    sink.write("\n".join(lines) + "\n")
                # round 0 proves plain determinism, round 1 proves it with
                # the durability plane (repair flows, trims, loss events) on
                if rnd in (0, 1) and name == "pna" and lines is not None:
                    rerun, relines = run_chaos_case(
                        rnd, name, factory, plan, tel, run_seed, quick=quick,
                        cluster_factory=factory_arg, durability=durability,
                    )
                    if relines != lines:
                        run.violations.append(
                            "same seed produced a different JSONL trace "
                            "(determinism broken)"
                        )
                report.runs.append(run)
    finally:
        if sink is not None:
            sink.close()
    return report


def _describe(plan: FaultPlan) -> str:
    parts = []
    if plan.crashes:
        parts.append(f"{len(plan.crashes)} crashes")
    if plan.churn is not None:
        parts.append(f"churn {plan.churn.level:.2f}")
    if plan.heartbeat_loss is not None:
        parts.append(f"hb loss {plan.heartbeat_loss.prob:.2f}")
    if plan.degradations:
        parts.append(f"{len(plan.degradations)} degradations")
    if plan.tracker_crashes:
        parts.append("tracker crash")
    if plan.link_failures:
        parts.append(f"{len(plan.link_failures)} link failures")
    if plan.switch_failures:
        parts.append(f"{len(plan.switch_failures)} switch failures")
    return ", ".join(parts) if parts else "no faults"
