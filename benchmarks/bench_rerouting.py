"""Re-routing ablation — scheduler family × fabric routing policy (extension).

The link-state control plane only matters when the fabric actually breaks.
This bench runs the same seeded terasort on a k=4 Clos fabric under an
identical link-failure plan, crossing three scheduler families (PNA with
live network-condition costs, PNA on static hops, fair) with the three
routing policies (``static``, ``ecmp``, ``linkstate``), and reports job
completion time plus the re-routing work done.

The failure plan is *adversarial by construction*: it downs the most-used
fabric links of the nominal static routes (checked to leave the fabric
connected, so link-state always has a detour).  Static and ECMP fabrics
never react — flows crossing a dead link park at rate zero until the heal
— so their completion time is pinned past the heal.  The link-state fabric
converges after ``route_convergence_delay`` and migrates the stranded
flows, which is the whole point: it must finish **before the fabric
heals**, while static cannot.
"""

from __future__ import annotations

from collections import Counter

from conftest import run_once

from repro.analysis import format_table
from repro.cluster import Cluster
from repro.cluster.graph import components
from repro.cluster.topologies import clos_topology
from repro.core import PNAConfig, ProbabilisticNetworkAwareScheduler
from repro.engine import EngineConfig, Simulation
from repro.faults import FaultPlan, LinkFailure
from repro.schedulers import FairScheduler
from repro.sim import Simulator
from repro.units import MB
from repro.workload import JobSpec

SEED = 23
K = 4
FAIL_AT = 4.0
FAIL_FOR = 90.0
N_LINKS = 3
CONVERGENCE_DELAY = 0.5

SCHEDULERS = {
    "pna-netcond": lambda: ProbabilisticNetworkAwareScheduler(
        PNAConfig(network_condition=True)
    ),
    "pna-hop": lambda: ProbabilisticNetworkAwareScheduler(
        PNAConfig(network_condition=False)
    ),
    "fair": lambda: FairScheduler(),
}

POLICIES = ("static", "ecmp", "linkstate")


def hot_fabric_links(n_links: int):
    """The ``n_links`` fabric links most used by nominal static routes,
    greedily skipping any whose removal would disconnect the fabric."""
    topo = clos_topology(K, routing="static")
    hosts = topo.hosts
    usage = Counter()
    host_set = set(hosts)
    for i, a in enumerate(hosts):
        for b in hosts[i + 1:]:
            for link in topo.route(a, b):
                if link[0] not in host_set and link[1] not in host_set:
                    usage[link] += 1
    picked = []
    for link, _ in usage.most_common():
        if len(components(topo.graph.adjacency(picked + [link]))) == 1:
            picked.append(link)
            if len(picked) == n_links:
                break
    return picked


def run_case(scheduler_factory, routing: str, plan: FaultPlan):
    sim = Simulation(
        cluster=Cluster(Simulator(), clos_topology(K, routing=routing)),
        scheduler=scheduler_factory(),
        jobs=[JobSpec.make("01", "terasort", 16 * 64 * MB, 16, 6)],
        seed=SEED,
        config=EngineConfig(
            faults=plan, route_convergence_delay=CONVERGENCE_DELAY
        ),
    )
    result = sim.run()
    return {
        "jct": float(max(result.job_completion_times)),
        "convergences": result.route_convergences,
        "reroutes": result.reroutes,
    }


def _sweep():
    plan = FaultPlan(
        link_failures=tuple(
            LinkFailure(link=link, duration=FAIL_FOR, at=FAIL_AT)
            for link in hot_fabric_links(N_LINKS)
        )
    )
    results = {}
    for sched_name, factory in SCHEDULERS.items():
        for policy in POLICIES:
            results[(sched_name, policy)] = run_case(factory, policy, plan)
    return results


def test_rerouting_ablation(benchmark):
    results = run_once(benchmark, _sweep)

    heal = FAIL_AT + FAIL_FOR
    rows = []
    for (sched, policy), r in results.items():
        rows.append((
            sched,
            policy,
            f"{r['jct']:.1f}",
            "yes" if r["jct"] < heal else "no",
            r["convergences"],
            r["reroutes"],
        ))
    print()
    print(format_table(
        ["scheduler", "routing", "jct (s)", "beat the heal",
         "convergences", "reroutes"],
        rows,
        title=(
            f"re-routing ablation: k={K} Clos, {N_LINKS} hot links down "
            f"{FAIL_AT:.0f}s→{heal:.0f}s"
        ),
    ))

    for (sched, policy), r in results.items():
        linkstate = results[(sched, "linkstate")]
        static = results[(sched, "static")]
        # link-state converged and re-routed; the others never do
        assert linkstate["convergences"] >= 1, sched
        assert r["convergences"] == 0 or policy == "linkstate", (sched, policy)
        # static parks stranded flows until the heal; link-state finishes
        # before the fabric ever comes back
        assert static["jct"] >= heal, (sched, static["jct"])
        assert linkstate["jct"] < heal, (sched, linkstate["jct"])
        assert linkstate["jct"] < static["jct"], sched

    for (sched, policy), r in results.items():
        benchmark.extra_info[f"jct_{sched}_{policy}"] = round(r["jct"], 1)
