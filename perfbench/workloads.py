"""The benchmark's workloads: fixed job batches on fixed simulated schedules.

Every workload submits one batch of jobs from
:func:`repro.experiments.perf.batched_workload` — one job every
``STAGGER`` simulated seconds, whatever the simulator does — so the load
is open-loop in simulated time.  The ``--seed`` of a run is the seed of
the :class:`~repro.engine.Simulation`: it drives replica placement, the
scheduler's coin flips and background traffic.  The job
batch itself is seed-independent, so two seeds differ in how the cluster
treats the same jobs, not in how much work they ask for.

Each builder takes ``smoke=True`` for a scaled-down copy of the same
shape (same scheduler, topology family, faults and durability plane),
which the benchmark's tests run to completion.

Only the program's public API is used: ``Simulation``, the
``repro.experiments.perf`` helpers, ``clos_topology``, ``FaultPlan`` and
``DurabilityConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

#: simulated seconds between successive job submissions
STAGGER = 5.0
#: Table II scale of each job (fraction of the paper's input sizes)
TREE_SCALE = 0.05
CLOS_SCALE = 0.05

#: (racks, nodes per rack, jobs) of the tree workloads, full and smoke
TREE_SHAPE = (10, 40, 12)
TREE_SMOKE = (2, 8, 3)
#: (Clos degree k, jobs) of the fault workload, full and smoke
CLOS_SHAPE = (8, 12)
CLOS_SMOKE = (4, 3)


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a named simulation recipe."""

    name: str
    why: str
    #: (seed, check_invariants, smoke) -> a constructed Simulation
    build: Callable[[int, bool, bool], object]


def _uniform_background():
    from repro.cluster import BackgroundSpec

    # uniform endpoints keep every edge below saturation at 20 % intensity
    # (see BenchCase.hotspot_alpha for why Zipf hot spots are avoided)
    return BackgroundSpec(intensity=0.2, hotspot_alpha=0.0)


def _tree_sim(scheduler, seed: int, check: bool, smoke: bool):
    from repro.cluster import ClusterSpec
    from repro.engine import EngineConfig, Simulation
    from repro.experiments.perf import batched_workload

    racks, per_rack, n_jobs = TREE_SMOKE if smoke else TREE_SHAPE
    return Simulation(
        cluster=ClusterSpec(num_racks=racks, nodes_per_rack=per_rack),
        scheduler=scheduler,
        jobs=batched_workload(n_jobs, scale=TREE_SCALE, stagger=STAGGER),
        background=_uniform_background(),
        config=EngineConfig(check_invariants=check),
        seed=seed,
    )


def build_pna_tree(seed: int, check: bool = False, smoke: bool = False):
    from repro.core import PNAConfig, ProbabilisticNetworkAwareScheduler

    scheduler = ProbabilisticNetworkAwareScheduler(
        PNAConfig(network_condition=True)
    )
    return _tree_sim(scheduler, seed, check, smoke)


def build_fair_tree(seed: int, check: bool = False, smoke: bool = False):
    from repro.schedulers import FairScheduler

    return _tree_sim(FairScheduler(), seed, check, smoke)


def fault_plan():
    """Node crashes, recurring fabric-link failures and a flapping core.

    The schedule is fixed in simulated time, so every seed sees the same
    failures.  A renewal-process plan (``NodeChurn``, ``every=``) draws a
    different number of failures per seed; each route invalidation costs
    a re-enumeration of the multi-path routes, so wall time varied by a
    quarter across seeds.  Every fault heals by t = 60 s, before the last
    jobs finish: a fault still open at the end of the run decides whether
    the last job waits for it, which made the makespan bimodal.  Every
    named host, link and switch exists in any k >= 4 Clos fabric, so the
    smoke copy runs the same plan.
    """
    from repro.faults import FaultPlan, LinkFailure, NodeCrash, SwitchFailure

    return FaultPlan(
        crashes=tuple(
            NodeCrash(at=at, node=node, down_for=25.0)
            for at, node in (
                (10.0, "h1_0_0"), (18.0, "h2_1_1"),
                (26.0, "h3_0_1"), (34.0, "h0_1_0"),
            )
        ),
        link_failures=tuple(
            LinkFailure(link=link, at=at, duration=20.0)
            for link, times in (
                (("agg0_0", "core0_0"), (8.0, 32.0)),
                (("edge3_1", "agg3_1"), (15.0, 40.0)),
            )
            for at in times
        ),
        switch_failures=(
            SwitchFailure(switch="core1_1", at=20.0, duration=30.0),
        ),
    )


def build_faults_clos(seed: int, check: bool = False, smoke: bool = False):
    from repro.cluster import Cluster
    from repro.cluster.topologies import clos_topology
    from repro.core import ProbabilisticNetworkAwareScheduler
    from repro.engine import EngineConfig, Simulation
    from repro.experiments.perf import batched_workload
    from repro.hdfs.replication import DurabilityConfig
    from repro.sim import Simulator

    k, n_jobs = CLOS_SMOKE if smoke else CLOS_SHAPE
    return Simulation(
        cluster=Cluster(Simulator(), clos_topology(k, routing="linkstate")),
        scheduler=ProbabilisticNetworkAwareScheduler(),
        jobs=batched_workload(n_jobs, scale=CLOS_SCALE, stagger=STAGGER),
        background=_uniform_background(),
        config=EngineConfig(
            faults=fault_plan(),
            durability=DurabilityConfig(),
            tracker_expiry_interval=15.0,
            check_invariants=check,
        ),
        seed=seed,
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "pna_400",
            "400-node tree, PNA network-condition costs: the dense route "
            "tensor and per-epoch rate matrix dominate",
            build_pna_tree,
        ),
        Workload(
            "fair_400",
            "same cluster, jobs and seed under Fair: no rate matrix or PNA "
            "cost model; fabric tick, background and heartbeats dominate",
            build_fair_tree,
        ),
        Workload(
            "faults_clos",
            "k=8 link-state Clos under node crashes, link and switch "
            "failures and re-replication: routing, hdfs and faults",
            build_faults_clos,
        ),
    )
}
