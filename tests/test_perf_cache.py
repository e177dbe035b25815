"""Behaviour-invisibility tests for the scheduler hot-path caches (PR 4).

The caches (epoch-keyed rate matrices, job/cluster index views, vectorised
estimation) must be pure accelerations: a run with caching enabled and the
same run with ``REPRO_NO_CACHE=1`` (which routes every call through the
original naive code paths) have to produce byte-identical traces.  The flag
is read once at construction time, so each comparison builds a fresh
simulation under ``monkeypatch``-controlled environment.

Also covered here, white-box: the rate matrix and its epoch cache, the
free-slot views, the O(1) ``Simulator.pending`` counter with heap
compaction (satellite of this PR), and the zero-rate guard in
``FlowNetwork._schedule_next``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import ClusterSpec, EngineConfig, Simulation, accel, table2_batch
from repro.cluster import Cluster
from repro.cluster.network import FlowNetwork
from repro.cluster.topology import rack_topology
from repro.core import PNAConfig, ProbabilisticNetworkAwareScheduler
from repro.faults import FaultPlan, NodeChurn
from repro.sim import Simulator
from repro.units import MB, Gbps

# ---------------------------------------------------------------------------
# end-to-end: cached and naive runs emit byte-identical traces
# ---------------------------------------------------------------------------


def run_traced(tmp_path, tag, *, netcond, churn):
    trace = tmp_path / f"{tag}.jsonl"
    config = EngineConfig(trace_jsonl=str(trace))
    if churn:
        config = replace(
            config,
            faults=FaultPlan(churn=NodeChurn(level=0.3, mean_downtime=60.0)),
            tracker_expiry_interval=15.0,
        )
    sim = Simulation(
        cluster=ClusterSpec(num_racks=2, nodes_per_rack=3),
        scheduler=ProbabilisticNetworkAwareScheduler(
            PNAConfig(network_condition=netcond)
        ),
        jobs=table2_batch("wordcount", scale=0.02)[:4],
        config=config,
        seed=123,
    )
    result = sim.run()
    return trace.read_bytes(), result


@pytest.mark.parametrize(
    "variant", ["hop", "netcond", "netcond_churn", "netcond_churn_no_ckernel"]
)
def test_same_seed_trace_identical_with_and_without_caches(
    tmp_path, monkeypatch, variant
):
    netcond = variant != "hop"
    churn = "churn" in variant

    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_NO_CKERNEL", raising=False)
    cached_bytes, cached_result = run_traced(
        tmp_path, "cached", netcond=netcond, churn=churn
    )
    if variant.endswith("no_ckernel"):
        # the compiler-less path: caches on, numpy refill.  The kernel
        # handle is resolved once per process, so forget it for this run.
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
        monkeypatch.setattr(accel, "_loaded", None)
        monkeypatch.setattr(accel, "_load_attempted", False)
        assert accel.refill_kernel() is None
    else:
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
    naive_bytes, _ = run_traced(tmp_path, "naive", netcond=netcond, churn=churn)

    assert cached_bytes, "trace was empty — nothing was compared"
    assert cached_bytes == naive_bytes
    if churn:
        # the fault plan must actually fire, otherwise this variant never
        # exercises epoch invalidation under node loss
        assert cached_result.collector.nodes_lost > 0


# ---------------------------------------------------------------------------
# rate matrix and its epoch cache
# ---------------------------------------------------------------------------


def make_net(racks=2, per_rack=3):
    sim = Simulator()
    topo = rack_topology(racks, per_rack, host_link=1 * Gbps, tor_uplink=10 * Gbps)
    return sim, FlowNetwork(sim, topo, local_bandwidth=400 * MB)


class TestRateMatrixCache:
    def test_matches_uncached_under_live_flows(self, family_topology):
        topo = family_topology
        net = FlowNetwork(Simulator(), topo, local_bandwidth=400 * MB)
        for link in getattr(topo, "down_links", ()):
            net.set_link_down(link)
        rng = np.random.default_rng(7)
        hosts = topo.hosts
        for _ in range(12):
            src, dst = rng.choice(len(hosts), size=2, replace=False)
            net.start_flow(hosts[src], hosts[dst], 1 * Gbps)
        links = list(topo.links())
        net.set_capacity_factor(links[int(rng.integers(len(links)))], 0.5)
        assert np.array_equal(net.rate_matrix(), net._rate_matrix_uncached())

    def test_cache_hit_returns_same_object(self):
        sim, net = make_net()
        cluster = Cluster(sim, net.topology)
        first = cluster.inverse_rate_matrix()
        assert cluster.inverse_rate_matrix() is first
        with pytest.raises(ValueError):
            first[0, 1] = 0.0  # cached matrix is frozen
        with pytest.raises(ValueError):
            net.rate_matrix()[0, 1] = 0.0  # so is the rate view it reads

    def test_flow_attach_and_detach_bump_epoch(self):
        sim, net = make_net()
        before = net.epoch
        flow = net.start_flow("r0n0", "r1n0", 1 * Gbps)
        attached = net.epoch
        assert attached > before
        net.cancel_flow(flow)
        assert net.epoch > attached

    def test_invalidated_after_flow_change(self):
        sim, net = make_net()
        idle = net.rate_matrix()
        flow = net.start_flow("r0n0", "r1n0", 1 * Gbps)
        loaded = net.rate_matrix()
        assert loaded is not idle
        assert np.array_equal(loaded, net._rate_matrix_uncached())
        net.cancel_flow(flow)
        assert np.array_equal(net.rate_matrix(), idle)

    def test_invalidated_after_capacity_change(self):
        sim, net = make_net()
        idle = net.rate_matrix()
        link = net.topology.route("r0n0", "r1n0")[0]
        net.set_capacity_factor(link, 0.5)
        degraded = net.rate_matrix()
        assert degraded is not idle
        assert np.array_equal(degraded, net._rate_matrix_uncached())
        assert not np.array_equal(degraded, idle)


# ---------------------------------------------------------------------------
# free-slot views
# ---------------------------------------------------------------------------


class TestSlotViews:
    def make_cluster(self):
        sim = Simulator()
        return ClusterSpec(num_racks=2, nodes_per_rack=3).build(sim)

    def test_view_matches_list_api(self):
        cluster = self.make_cluster()
        nodes, idx, pos = cluster.free_slot_view("map")
        assert list(nodes) == cluster.nodes_with_free_map_slots()
        assert [cluster.nodes[i].name for i in idx] == [n.name for n in nodes]
        for row, i in enumerate(idx):
            assert pos[i] == row
        with pytest.raises(ValueError):
            idx[0] = 0  # views are frozen

    def test_slot_transition_invalidates_view(self):
        cluster = self.make_cluster()
        _, idx_before, _ = cluster.free_slot_view("map")
        node = cluster.nodes[0]
        node.running_maps = node.map_slots  # fills the node: no free slot
        _, idx_after, pos_after = cluster.free_slot_view("map")
        assert node.index in idx_before
        assert node.index not in idx_after
        assert pos_after[node.index] == -1

    def test_alive_toggle_invalidates_view(self):
        cluster = self.make_cluster()
        node = cluster.nodes[0]
        assert node.index in cluster.free_slot_view("reduce")[1]
        node.alive = False
        assert node.index not in cluster.free_slot_view("reduce")[1]


# ---------------------------------------------------------------------------
# Simulator.pending counter + heap compaction (satellite)
# ---------------------------------------------------------------------------


class TestPendingCounter:
    def test_pending_tracks_push_pop_cancel(self):
        sim = Simulator()
        events = [sim.at(float(i + 1), lambda: None) for i in range(6)]
        assert sim.pending == 6
        events[0].cancel()
        events[0].cancel()  # idempotent: must not double-count
        assert sim.pending == 5
        sim.run(until=3.0)  # fires t=2 and t=3 (t=1 was cancelled)
        assert sim.pending == 3

    def test_compaction_bounds_the_heap(self):
        sim = Simulator()
        doomed = [sim.at(1000.0 + i, lambda: None) for i in range(200)]
        survivors = [sim.at(1.0 + i, lambda: None) for i in range(10)]
        for event in doomed:
            event.cancel()
        # tombstones far outnumber the 10 live events -> heap was rebuilt
        assert sim.pending == 10
        assert len(sim._queue) <= sim.pending + 64
        fired = []
        for event in survivors:
            event.callback = lambda t=event.time: fired.append(t)
        sim.run()
        assert fired == sorted(e.time for e in survivors)

    def test_compaction_preserves_pop_order(self):
        sim = Simulator()
        fired = []
        for i in range(300):
            sim.at(float(i), fired.append, float(i))
        # cancel every odd event to force at least one compaction
        cancelled = set()
        for _, _, event in list(sim._queue):
            if int(event.time) % 2 == 1:
                event.cancel()
                cancelled.add(event.time)
        sim.run()
        expected = [float(i) for i in range(300) if float(i) not in cancelled]
        assert fired == expected


# ---------------------------------------------------------------------------
# zero-rate guard in the fabric tick (satellite)
# ---------------------------------------------------------------------------


class TestZeroRateGuard:
    def test_stalled_flow_does_not_poison_the_horizon(self):
        sim, net = make_net()
        net.start_flow("r0n0", "r0n1", 1 * Gbps)
        net.start_flow("r1n0", "r1n1", 1 * Gbps)
        sim.run(until=0.0)  # process the zero-delay refill tick
        # simulate a flow stalled at exactly rate 0 (e.g. a capacity factor
        # driven to underflow): the tick must ignore it rather than divide
        net._rates[0] = 0.0
        with np.errstate(divide="raise", invalid="raise"):
            net._schedule_next()

    def test_all_flows_stalled_is_an_invariant_violation(self):
        sim, net = make_net()
        net.start_flow("r0n0", "r0n1", 1 * Gbps)
        sim.run(until=0.0)  # process the zero-delay refill tick
        net._rates[0] = 0.0
        with pytest.raises(AssertionError):
            net._schedule_next()
