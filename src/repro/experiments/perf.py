"""Benchmark case definitions for `repro profile` and the benchmark harness.

The scheduler hot path (epoch-cached rate matrices, vectorised estimation,
cached slot/task views — see ``docs/API.md`` § Performance) is only worth
its complexity if the speedup is real and *stays* real.  Two tools keep it
honest, and this module feeds both:

* :func:`batched_workload` — the staggered multi-job batch that the
  wall-time benchmark (``perfbench/``, declared in ``BENCHMARK.json``)
  submits on every workload;
* :func:`bench_cases` / :func:`profile_case` — named scenarios, one per
  scheduler family on 16- to 1000-node clusters, run under the hot-path
  profiler.  :func:`profile_simulation` returns per-component call counts
  and the run's work counts; ``tests/test_work_ledger.py`` compares them
  exactly against a committed ledger, so a layer that starts doing more
  calls (a rate matrix recomputed within one epoch, a refill run twice)
  fails the test suite.

Only the ``self_s`` wall times vary between runs; every count, like every
simulation, is a pure function of the case and its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.cluster import ClusterSpec
from repro.engine import Simulation
from repro.experiments.scenarios import Scenario
from repro.faults import FaultPlan, NodeChurn
from repro.schedulers import TaskScheduler

__all__ = [
    "BenchCase",
    "batched_workload",
    "bench_cases",
    "profile_case",
    "profile_simulation",
]

#: 16 nodes — the CI scale.
SMALL_CLUSTER = ClusterSpec(num_racks=4, nodes_per_rack=4)
#: 100 nodes — the k ≥ 100 regime where the O(k²·route) rate-matrix walk
#: used to dominate (Palmetto-scale sweeps).
LARGE_CLUSTER = ClusterSpec(num_racks=5, nodes_per_rack=20)
#: 200 nodes — the speedup showcase: the naive rate-matrix walk grows
#: quadratically in k while the cached path stays near-linear, so this is
#: where the cached-vs-naive factor is most visible.
XL_CLUSTER = ClusterSpec(num_racks=8, nodes_per_rack=25)
#: 1000 nodes — past the "1000-node barrier": only reachable at practical
#: wall times with the incremental cost vectors, the persistent fabric
#: membership kernel and the O(candidates) offer bundles all engaged.
XXL_CLUSTER = ClusterSpec(num_racks=25, nodes_per_rack=40)

#: seed offset between successive passes over the Table II catalogue in
#: :func:`batched_workload` — far larger than any per-catalogue seed span,
#: so repeated copies of the same application draw disjoint noise streams.
_SEED_STRIDE = 1000


def batched_workload(
    n_jobs: int, *, scale: float = 0.25, stagger: float = 30.0
) -> List:
    """``n_jobs`` jobs cycling the Table II catalogue, re-keyed uniquely.

    The three-application workload repeats with staggered submit times
    (one job every ``stagger`` seconds) so a large cluster sees a steady
    multi-job mix instead of one synchronized burst — the regime the
    xxl benchmark cases target.  Deterministic: job identity, sizing and
    seeds depend only on the arguments.
    """
    from repro.workload import JobSpec, table2_workload

    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    base = table2_workload(scale=scale)
    specs = []
    for i in range(n_jobs):
        src = base[i % len(base)]
        specs.append(
            JobSpec(
                job_id=f"x{i:03d}",
                app=src.app,
                input_size=src.input_size,
                num_maps=src.num_maps,
                num_reduces=src.num_reduces,
                submit_time=i * stagger,
                seed=src.seed + _SEED_STRIDE * (i // len(base)),
                noise_sigma=src.noise_sigma,
            )
        )
    return specs


@dataclass(frozen=True)
class BenchCase:
    """One timed scenario: a scheduler on a cluster, churned or healthy.

    ``n_jobs`` > 0 swaps the single Table II application batch for
    :func:`batched_workload` (``n_jobs`` staggered jobs cycling all three
    applications) — the shape of the xxl cases.
    """

    name: str
    scheduler: str  # "pna" | "pna-netcond" | "fair" | "coupling"
    cluster: ClusterSpec
    scale: float = 0.25
    churn: bool = False
    app: str = "wordcount"
    seed: int = 42
    n_jobs: int = 0
    stagger: float = 30.0
    #: Zipf exponent for background endpoint choice; None keeps the
    #: scenario default (1.0).  The xxl cases pin 0.0 (uniform): at 1000
    #: nodes the Zipf-1.0 hot spot funnels ~13 flows/s onto a 1 Gbps edge
    #: that drains ~0.5 flows/s, so the background flow population grows
    #: without bound and the run never reaches a steady state — a
    #: congestion-collapse regime, not a benchmark.  Uniform spread keeps
    #: every edge below saturation at the same 20 % aggregate intensity.
    hotspot_alpha: Optional[float] = None

    def jobs(self, scenario: Scenario) -> List:
        if self.n_jobs:
            return batched_workload(
                self.n_jobs, scale=self.scale, stagger=self.stagger
            )
        return scenario.jobs(self.app)

    def make_scheduler(self) -> TaskScheduler:
        from repro.core import PNAConfig, ProbabilisticNetworkAwareScheduler
        from repro.schedulers import CouplingScheduler, FairScheduler

        if self.scheduler == "pna":
            return ProbabilisticNetworkAwareScheduler()
        if self.scheduler == "pna-netcond":
            return ProbabilisticNetworkAwareScheduler(
                PNAConfig(network_condition=True)
            )
        if self.scheduler == "fair":
            return FairScheduler()
        if self.scheduler == "coupling":
            return CouplingScheduler()
        raise ValueError(f"unknown scheduler kind {self.scheduler!r}")

    def scenario(self) -> Scenario:
        base = Scenario(
            name=self.name, cluster=self.cluster, scale=self.scale,
            seed=self.seed,
        )
        if self.hotspot_alpha is not None:
            from repro.cluster import BackgroundSpec

            base = base.with_(background=BackgroundSpec(
                intensity=0.2, hotspot_alpha=self.hotspot_alpha
            ))
        if self.churn:
            base = base.with_(
                config=replace(
                    base.config,
                    faults=FaultPlan(
                        churn=NodeChurn(level=0.05, mean_downtime=90.0)
                    ),
                    tracker_expiry_interval=15.0,
                )
            )
        return base


def bench_cases() -> List[BenchCase]:
    """The named cases: five on 16 nodes, the rest on 100 to 1000 nodes."""
    return [
        BenchCase("pna_hop", "pna", SMALL_CLUSTER),
        BenchCase("pna_netcond", "pna-netcond", SMALL_CLUSTER),
        BenchCase("fair", "fair", SMALL_CLUSTER),
        BenchCase("coupling", "coupling", SMALL_CLUSTER),
        BenchCase("pna_netcond_churn", "pna-netcond", SMALL_CLUSTER, churn=True),
        # the xxl shape (batched multi-job workload, uniform background)
        # scaled down to 100 nodes
        BenchCase(
            "xxl_smoke", "pna-netcond", LARGE_CLUSTER, scale=0.1,
            n_jobs=12, stagger=15.0, hotspot_alpha=0.0,
        ),
        BenchCase("large_pna_hop", "pna", LARGE_CLUSTER),
        BenchCase("large_pna_netcond", "pna-netcond", LARGE_CLUSTER),
        BenchCase("large_fair", "fair", LARGE_CLUSTER),
        BenchCase(
            "large_pna_netcond_churn", "pna-netcond", LARGE_CLUSTER,
            churn=True,
        ),
        BenchCase("xl_pna_netcond", "pna-netcond", XL_CLUSTER),
        BenchCase(
            "xxl_pna_netcond", "pna-netcond", XXL_CLUSTER, n_jobs=100,
            stagger=15.0, hotspot_alpha=0.0,
        ),
        BenchCase(
            "xxl_fair", "fair", XXL_CLUSTER, n_jobs=100,
            stagger=15.0, hotspot_alpha=0.0,
        ),
    ]


def profile_case(case: BenchCase) -> Dict:
    """Run one case under the wall-time profiler (`repro profile`).

    Returns :func:`profile_simulation`'s document extended with the case
    name and node count, so the attribution is traceable to its workload.
    """
    scenario = case.scenario()
    doc = profile_simulation(
        scenario.simulation(case.make_scheduler(), case.jobs(scenario))
    )
    doc["case"] = case.name
    doc["nodes"] = case.cluster.num_nodes
    return doc


def profile_simulation(sim: Simulation) -> Dict:
    """Run a built simulation under the wall-time profiler.

    Returns the profiler's canonical document (see
    :meth:`repro.obs.profile.Profiler.to_doc`) extended with the run's
    work counts: processed ``events``, ``flows_started``,
    ``route_convergences`` and ``reroutes``.
    """
    from repro.obs import profile as obs_profile

    with obs_profile.profiled() as prof:
        result = sim.run()
    doc = prof.to_doc()
    doc["events"] = sim.sim.processed
    doc["flows_started"] = result.flows
    doc["route_convergences"] = result.route_convergences
    doc["reroutes"] = result.reroutes
    return doc
