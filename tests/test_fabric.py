"""Fabric fault tolerance: multi-path routing, link/switch failure
injection, and link-state re-routing.

Covers the robustness contract end to end:

* **transparency** — a static-routed Clos fabric at oversubscription 1 is
  byte-identical to the plain fat-tree topology, and an empty fault plan
  leaves a link-state run byte-identical to a build without fabric
  support;
* **determinism** — same seed + same plan reproduces the exact trace,
  including mid-flight flow migrations;
* **re-routing** — the control plane converges within the configured
  delay, migrates stranded flows with byte conservation, parks shuffle
  fetches across partitions, and heals them;
* **degradation** — isolated hosts decline slots with ``no_route``, map
  input reads fail over to reachable replicas.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Cluster, FlowNetwork, fat_tree_topology
from repro.cluster.routing import RoutingController
from repro.cluster.topologies import (
    ROUTING_POLICIES,
    FabricTopology,
    clos_topology,
)
from repro.cluster.topology import fat_tree_graph
from repro.core import PNAConfig, ProbabilisticNetworkAwareScheduler
from repro.engine import EngineConfig, Simulation
from repro.faults import FaultInjector, FaultPlan, LinkFailure, SwitchFailure
from repro.sim import Simulator
from repro.trace.export import jsonl_lines
from repro.units import MB, Gbps
from repro.workload import JobSpec
from tests.nxgraph import to_networkx


def run_sim(topology_factory, *, plan=None, seed=7, trace=True,
            delay=0.5, jobs=None, scheduler=None):
    clock = Simulator()
    cluster = Cluster(clock, topology_factory())
    sim = Simulation(
        cluster=cluster,
        scheduler=scheduler or ProbabilisticNetworkAwareScheduler(),
        jobs=jobs or [JobSpec.make("01", "terasort", 16 * 64 * MB, 16, 6)],
        seed=seed,
        config=EngineConfig(
            faults=plan, trace=trace, route_convergence_delay=delay
        ),
    )
    return sim, sim.run()


def trace_lines(result):
    return jsonl_lines(result.trace.events)


# ----------------------------------------------------------------------
# topology unit behaviour
# ----------------------------------------------------------------------
class TestFabricTopology:
    def test_routing_policy_validated(self):
        with pytest.raises(ValueError, match="routing"):
            FabricTopology(fat_tree_graph(4), routing="rip")

    def test_oversubscription_validated(self):
        with pytest.raises(ValueError, match="oversubscription"):
            clos_topology(4, oversubscription=0.5)

    def test_clos_static_graph_matches_fat_tree(self):
        import networkx as nx

        a = clos_topology(4, routing="static").graph
        b = fat_tree_topology(4).graph
        assert nx.utils.graphs_equal(to_networkx(a), to_networkx(b))
        assert list(a.edges()) == list(b.edges())

    def test_equal_cost_multiplicity_inter_pod(self):
        topo = clos_topology(4)
        paths = topo.equal_cost_paths("h0_0_0", "h2_1_1")
        # k=4: (k/2)^2 = 4 equal-cost inter-pod paths
        assert len(paths) == 4
        lengths = {len(p) for p in paths}
        assert len(lengths) == 1

    def test_ecmp_spreads_flows_across_paths(self):
        topo = clos_topology(4, routing="ecmp")
        routes = {
            tuple(topo.route_for_flow("h0_0_0", "h2_1_1", fid))
            for fid in range(64)
        }
        assert len(routes) > 1  # different fids hash onto different paths

    def test_route_for_flow_is_deterministic(self):
        topo = clos_topology(4, routing="ecmp")
        a = topo.route_for_flow("h0_0_0", "h3_1_0", 17)
        b = topo.route_for_flow("h0_0_0", "h3_1_0", 17)
        assert a == b

    def test_mark_link_down_bumps_route_version(self):
        topo = clos_topology(4)
        v0 = topo.route_version
        assert topo.mark_link_down(("agg0_0", "core0_0"))
        assert topo.route_version > v0
        assert not topo.mark_link_down(("agg0_0", "core0_0"))  # idempotent
        assert topo.mark_link_up(("agg0_0", "core0_0"))
        assert not topo.mark_link_up(("agg0_0", "core0_0"))

    def test_linkstate_routes_avoid_down_links(self):
        topo = clos_topology(4, routing="linkstate")
        route = topo.route("h0_0_0", "h0_1_0")
        fabric_hop = route[1]  # edge -> agg (the access link is unavoidable)
        topo.mark_link_down(fabric_hop)
        for fid in range(16):
            new = topo.route_for_flow("h0_0_0", "h0_1_0", fid)
            assert fabric_hop not in new
            assert tuple(reversed(fabric_hop)) not in new

    def test_partitioned_host_keeps_stale_route(self):
        topo = clos_topology(4, routing="linkstate")
        # cut the host's only access link: no live path remains
        host_link = topo.route("h0_0_0", "h3_1_1")[0]
        topo.mark_link_down(host_link)
        assert topo.equal_cost_paths("h0_0_0", "h3_1_1") == []
        stale = topo.route("h0_0_0", "h3_1_1")
        assert stale  # sentinel: last advertised route, crosses the dead link
        assert host_link in stale or tuple(reversed(host_link)) in stale

    def test_host_components_and_partitioned_pairs(self):
        topo = clos_topology(4)
        assert topo.partitioned_pairs() == 0
        host_link = topo.route("h0_0_0", "h3_1_1")[0]
        topo.mark_link_down(host_link)
        n = topo.num_hosts
        assert topo.partitioned_pairs() == n - 1
        comps = topo.host_components(topo.down_links)
        assert sorted(len(c) for c in comps) == [1, n - 1]


# ----------------------------------------------------------------------
# flow network data plane
# ----------------------------------------------------------------------
class TestNetworkDataPlane:
    def _net(self, routing="linkstate"):
        return FlowNetwork(Simulator(), clos_topology(4, routing=routing))

    def test_down_link_has_zero_capacity(self):
        net = self._net()
        link = ("agg0_0", "core0_0")
        base = net.effective_capacity(link)
        assert base > 0
        assert net.set_link_down(link)
        assert net.effective_capacity(link) == 0.0
        assert not net.set_link_down(link)  # idempotent
        assert net.set_link_up(link)
        assert net.effective_capacity(link) == base

    def test_pair_blocked(self):
        net = self._net()
        assert not net.pair_blocked("h0_0_0", "h3_1_1")
        access = net.topology.route("h0_0_0", "h3_1_1")[0]
        net.set_link_down(access)
        assert net.pair_blocked("h0_0_0", "h3_1_1")
        assert not net.pair_blocked("h2_0_0", "h2_0_1")

    def test_isolated_hosts(self):
        net = self._net()
        assert net.isolated_hosts() == frozenset()
        access = net.topology.route("h0_0_0", "h3_1_1")[0]
        net.set_link_down(access)
        assert net.isolated_hosts() == frozenset({"h0_0_0"})
        net.set_link_up(access)
        assert net.isolated_hosts() == frozenset()

    def test_flow_stalls_on_down_link_and_resumes(self):
        net = self._net()
        sim = net.sim
        done = []
        flow = net.start_flow("h0_0_0", "h1_0_0", 100 * MB,
                              on_complete=lambda f: done.append(f))
        link = flow.route[0]
        sim.run(until=0.01)
        net.set_link_down(link)
        sim.run(until=5.0)
        assert not done  # parked at rate 0
        net.set_link_up(link)
        sim.run(until=60.0)
        assert done and done[0] is flow

    def test_reroute_flow_conserves_bytes(self):
        net = self._net()
        sim = net.sim
        done = []
        flow = net.start_flow("h0_0_0", "h2_0_0", 400 * MB,
                              on_complete=lambda f: done.append(sim.now))
        sim.run(until=0.05)
        transferred = flow.bytes_done(sim.now)
        assert 0 < transferred < 400 * MB
        old_route = list(flow.route)
        fabric_link = old_route[1]
        net.set_link_down(fabric_link)
        topo = net.topology
        topo.mark_link_down(fabric_link)
        new_route = topo.route_ids_for_flow(flow.src, flow.dst, flow.fid)
        assert topo.link_table()[fabric_link] not in new_route.tolist()
        assert fabric_link not in topo.link_keys(new_route)
        for bad in ([-1], [len(topo.link_table())]):
            with pytest.raises(ValueError, match="leaves the link table"):
                net.reroute_flow(flow, bad)
        assert net.active_flows == 1  # a rejected route moves nothing
        assert net.reroute_flow(flow, new_route)
        net.note_route_change()
        sim.run(until=120.0)
        assert done
        # byte conservation: total delivered equals the flow size exactly
        assert flow.bytes_done(done[0]) == pytest.approx(400 * MB, rel=1e-9)

    def test_rate_matrix_tracks_route_version(self):
        net = self._net()
        r0 = net.rate_matrix().copy()
        names = net.topology.hosts
        i, j = names.index("h0_0_0"), names.index("h3_1_1")
        assert r0[i, j] > 0
        access = net.topology.route("h0_0_0", "h3_1_1")[0]
        net.set_link_down(access)
        net.topology.mark_link_down(access)
        net.note_route_change()
        r1 = net.rate_matrix()
        assert r1[i, j] == 0.0  # partitioned pair advertises rate zero

    def test_inverse_rate_matrix_partition_is_inf_without_warning(self):
        net = self._net()
        cluster = Cluster(net.sim, net.topology)
        cluster.network = net
        access = net.topology.route("h0_0_0", "h3_1_1")[0]
        net.set_link_down(access)
        net.topology.mark_link_down(access)
        net.note_route_change()
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inv = cluster.inverse_rate_matrix()
        names = net.topology.hosts
        assert np.isinf(inv[names.index("h0_0_0"), names.index("h3_1_1")])


# ----------------------------------------------------------------------
# injector + control plane
# ----------------------------------------------------------------------
class TestInjectorAndControlPlane:
    def _build(self, topology, plan):
        clock = Simulator()
        cluster = Cluster(clock, topology)
        return Simulation(
            cluster=cluster,
            scheduler=ProbabilisticNetworkAwareScheduler(),
            jobs=[JobSpec.make("01", "grep", 4 * 32 * MB, 4, 2)],
            config=EngineConfig(faults=plan),
        )

    def test_fabric_faults_require_graph_topology(self):
        from repro.cluster.topology import MatrixTopology

        topo = MatrixTopology([[0, 2], [2, 0]], host_names=["a", "b"])
        plan = FaultPlan(link_failures=(
            LinkFailure(node="a", duration=5.0, at=1.0),
        ))
        with pytest.raises(ValueError, match="graph-backed"):
            self._build(topo, plan)

    def test_unknown_link_rejected(self):
        plan = FaultPlan(link_failures=(
            LinkFailure(link=("h0_0_0", "core0_0"), duration=5.0, at=1.0),
        ))
        with pytest.raises(ValueError, match="link"):
            self._build(clos_topology(4), plan)

    def test_switch_failure_downs_all_incident_links(self):
        sim, result = run_sim(
            lambda: clos_topology(4),
            plan=FaultPlan(switch_failures=(
                SwitchFailure(switch="agg0_0", duration=5.0, at=2.0),
            )),
        )
        events = result.trace.events
        downs = [e for e in events if e.type == "switch_down"]
        assert len(downs) == 1
        # agg0_0 touches k/2 edge switches + k/2 cores = 4 links
        assert downs[0].links == 4
        ups = [e for e in events if e.type == "link_up"]
        assert len(ups) == 4

    def test_overlapping_link_faults_are_ref_counted(self):
        sim, result = run_sim(
            lambda: clos_topology(4),
            plan=FaultPlan(link_failures=(
                LinkFailure(link=("edge0_0", "agg0_0"), duration=6.0, at=2.0),
                LinkFailure(link=("edge0_0", "agg0_0"), duration=3.0, at=4.0),
            )),
        )
        events = result.trace.events
        downs = [e for e in events if e.type == "link_down"]
        ups = [e for e in events if e.type == "link_up"]
        assert len(downs) == 1  # second fault overlaps: no double down
        assert len(ups) == 1    # healed only when the last fault releases
        assert ups[0].t == pytest.approx(8.0)

    def test_convergence_happens_after_configured_delay(self):
        delay = 1.25
        sim, result = run_sim(
            lambda: clos_topology(4),
            plan=FaultPlan(link_failures=(
                LinkFailure(link=("edge0_0", "agg0_0"), duration=15.0, at=3.0),
            )),
            delay=delay,
        )
        events = result.trace.events
        down_t = next(e.t for e in events if e.type == "link_down")
        change_t = next(e.t for e in events if e.type == "route_change")
        assert change_t == pytest.approx(down_t + delay)

    def test_routing_controller_requires_linkstate(self):
        clock = Simulator()
        cluster = Cluster(clock, clos_topology(4, routing="static"))
        with pytest.raises(ValueError, match="linkstate"):
            RoutingController(cluster, convergence_delay=0.5)

    def test_static_fabric_gets_no_controller(self):
        for routing in ROUTING_POLICIES:
            clock = Simulator()
            cluster = Cluster(clock, clos_topology(4, routing=routing))
            sim = Simulation(
                cluster=cluster,
                scheduler=ProbabilisticNetworkAwareScheduler(),
                jobs=[JobSpec.make("01", "grep", 4 * 32 * MB, 4, 2)],
            )
            if routing == "linkstate":
                assert sim.routing is not None
            else:
                assert sim.routing is None


# ----------------------------------------------------------------------
# end-to-end: transparency, determinism, recovery
# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_static_clos_transparent_to_fat_tree(self):
        _, a = run_sim(lambda: clos_topology(4, routing="static"))
        _, b = run_sim(lambda: fat_tree_topology(4))
        assert trace_lines(a) == trace_lines(b)

    def test_empty_plan_is_transparent_on_linkstate_fabric(self):
        _, a = run_sim(lambda: clos_topology(4), plan=None)
        _, b = run_sim(lambda: clos_topology(4), plan=FaultPlan())
        assert trace_lines(a) == trace_lines(b)

    def test_same_seed_failure_run_is_deterministic(self):
        plan = FaultPlan(
            link_failures=(
                LinkFailure(link=("edge0_0", "agg0_0"), duration=20.0, at=5.0),
                LinkFailure(node="h1_0_0", duration=10.0, at=8.0),
                LinkFailure(link=("agg2_0", "core0_0"), duration=6.0,
                            every=40.0),
            ),
            switch_failures=(
                SwitchFailure(switch="agg1_1", duration=15.0, at=12.0),
            ),
        )
        _, a = run_sim(lambda: clos_topology(4), plan=plan)
        _, b = run_sim(lambda: clos_topology(4), plan=plan)
        assert a.route_convergences == b.route_convergences
        assert a.reroutes == b.reroutes
        assert trace_lines(a) == trace_lines(b)

    def test_link_failure_run_completes_with_reroutes(self):
        plan = FaultPlan(
            link_failures=(
                LinkFailure(link=("edge0_0", "agg0_0"), duration=20.0, at=5.0),
            ),
            switch_failures=(
                SwitchFailure(switch="agg1_1", duration=15.0, at=12.0),
            ),
        )
        sim, result = run_sim(lambda: clos_topology(4), plan=plan)
        assert sim.tracker.all_done
        assert result.route_convergences >= 1
        types = {e.type for e in result.trace.events}
        assert "route_change" in types

    def test_partition_parks_shuffle_and_heals(self):
        # cut a host's access link mid-run: fetches from it must park,
        # the partition must heal, and the job must still complete with
        # bytes conserved
        plan = FaultPlan(link_failures=(
            LinkFailure(node="h0_0_0", duration=25.0, at=4.0),
        ))
        sim, result = run_sim(lambda: clos_topology(4), plan=plan)
        assert sim.tracker.all_done
        events = result.trace.events
        types = {e.type for e in events}
        assert "partition_healed" in types
        healed = [e for e in events if e.type == "partition_healed"]
        assert sum(e.pairs for e in healed) >= sim.cluster.num_nodes - 1
        # byte conservation across the park/retry/migration machinery
        for job in sim.tracker.finished_jobs:
            totals = np.asarray(job.I, dtype=np.float64).sum(axis=0)
            for task in job.reduces:
                bound = float(totals[task.index])
                assert task.shuffled_bytes <= bound * (1 + 1e-6) + 1.0

    def test_no_route_declines_for_isolated_host(self):
        plan = FaultPlan(link_failures=(
            LinkFailure(node="h0_0_0", duration=30.0, at=1.0),
        ))
        sim, result = run_sim(lambda: clos_topology(4), plan=plan)
        declines = [e for e in result.trace.events
                    if e.type == "decline" and e.reason == "no_route"]
        assert declines
        assert {e.node for e in declines} == {"h0_0_0"}

    def test_netcond_scheduler_survives_partition(self):
        plan = FaultPlan(link_failures=(
            LinkFailure(node="h0_0_0", duration=20.0, at=3.0),
        ))
        sim, result = run_sim(
            lambda: clos_topology(4),
            plan=plan,
            scheduler=ProbabilisticNetworkAwareScheduler(
                PNAConfig(network_condition=True)
            ),
        )
        assert sim.tracker.all_done

    def test_run_summary_mentions_fabric(self):
        plan = FaultPlan(link_failures=(
            LinkFailure(link=("edge0_0", "agg0_0"), duration=20.0, at=5.0),
        ))
        _, result = run_sim(lambda: clos_topology(4), plan=plan)
        assert "route convergences" in result.summary()

    def test_metrics_plane_reports_fabric_counters(self):
        from repro.obs import MetricsConfig

        plan = FaultPlan(link_failures=(
            LinkFailure(node="h0_0_0", duration=25.0, at=4.0),
        ))
        clock = Simulator()
        cluster = Cluster(clock, clos_topology(4))
        sim = Simulation(
            cluster=cluster,
            scheduler=ProbabilisticNetworkAwareScheduler(),
            jobs=[JobSpec.make("01", "terasort", 16 * 64 * MB, 16, 6)],
            seed=7,
            config=EngineConfig(
                faults=plan, metrics=MetricsConfig(period=1.0)
            ),
        )
        result = sim.run()
        names = {inst.name for inst in result.metrics.instruments()}
        assert {"net_reroutes", "net_down_links",
                "net_partitioned_pairs"} <= names
