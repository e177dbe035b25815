"""Unit tests for the flow-level network (repro.cluster.network)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cluster.network import FlowNetwork
from repro.cluster.topology import MatrixTopology, rack_topology, star_topology
from repro.sim import Simulator
from repro.units import MB, Gbps


def make_net(racks=2, per_rack=3, host_link=1 * Gbps, uplink=10 * Gbps, local=400 * MB):
    sim = Simulator()
    topo = rack_topology(racks, per_rack, host_link=host_link, tor_uplink=uplink)
    return sim, topo, FlowNetwork(sim, topo, local_bandwidth=local)


class TestSingleFlow:
    def test_duration_matches_capacity(self):
        sim, topo, net = make_net(host_link=1 * Gbps)
        done = []
        net.start_flow("r0n0", "r0n1", 1 * Gbps, on_complete=lambda f: done.append(sim.now))
        sim.run()
        # 1 Gbps of bytes over a 1 Gbps link = 1 second
        assert done == [pytest.approx(1.0, rel=1e-6)]

    def test_local_flow_uses_disk_rate(self):
        sim, topo, net = make_net(local=100 * MB)
        done = []
        net.start_flow("r0n0", "r0n0", 200 * MB, on_complete=lambda f: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(2.0, rel=1e-6)]
        assert net.bytes_local == 200 * MB
        assert net.bytes_transferred == 0.0

    def test_local_rate_override(self):
        sim, topo, net = make_net(local=100 * MB)
        done = []
        net.start_flow(
            "r0n0", "r0n0", 100 * MB,
            on_complete=lambda f: done.append(sim.now), local_rate=50 * MB,
        )
        sim.run()
        assert done == [pytest.approx(2.0, rel=1e-6)]

    def test_max_rate_cap(self):
        sim, topo, net = make_net(host_link=1 * Gbps)
        done = []
        net.start_flow(
            "r0n0", "r0n1", 100 * MB,
            on_complete=lambda f: done.append(sim.now), max_rate=10 * MB,
        )
        sim.run()
        assert done == [pytest.approx(10.0, rel=1e-6)]

    def test_zero_size_completes_immediately(self):
        sim, topo, net = make_net()
        done = []
        net.start_flow("r0n0", "r0n1", 0.0, on_complete=lambda f: done.append(sim.now))
        sim.run()
        assert done == [0.0]

    def test_negative_size_rejected(self):
        sim, topo, net = make_net()
        with pytest.raises(ValueError):
            net.start_flow("r0n0", "r0n1", -1.0)

    def test_bad_max_rate_rejected(self):
        sim, topo, net = make_net()
        with pytest.raises(ValueError):
            net.start_flow("r0n0", "r0n1", 1.0, max_rate=0.0)

    def test_flow_progress_tracking(self):
        sim, topo, net = make_net(host_link=1 * Gbps)
        f = net.start_flow("r0n0", "r0n1", 2 * Gbps)
        sim.run(until=1.0)
        assert f.bytes_done(sim.now) == pytest.approx(1 * Gbps, rel=1e-6)
        assert f.progress(sim.now) == pytest.approx(0.5, rel=1e-6)
        sim.run()
        assert f.done
        assert f.progress(sim.now) == 1.0


class TestFairSharing:
    def test_two_flows_share_a_link(self):
        sim, topo, net = make_net(host_link=1 * Gbps)
        # both flows traverse r0n0's host link
        ends = {}
        net.start_flow("r0n0", "r0n1", 1 * Gbps, lambda f: ends.setdefault("a", sim.now))
        net.start_flow("r0n0", "r0n2", 1 * Gbps, lambda f: ends.setdefault("b", sim.now))
        sim.run()
        # each gets 0.5 Gbps while both active -> both finish at t=2
        assert ends["a"] == pytest.approx(2.0, rel=1e-6)
        assert ends["b"] == pytest.approx(2.0, rel=1e-6)

    def test_released_bandwidth_speeds_up_remaining_flow(self):
        sim, topo, net = make_net(host_link=1 * Gbps)
        ends = {}
        net.start_flow("r0n0", "r0n1", 0.5 * Gbps, lambda f: ends.setdefault("small", sim.now))
        net.start_flow("r0n0", "r0n2", 1.5 * Gbps, lambda f: ends.setdefault("big", sim.now))
        sim.run()
        # share 0.5 each until small drains 0.5 GB at t=1; big then has 1.0 GB
        # left at full 1 Gbps -> finishes at t=2
        assert ends["small"] == pytest.approx(1.0, rel=1e-6)
        assert ends["big"] == pytest.approx(2.0, rel=1e-6)

    def test_disjoint_flows_do_not_interact(self):
        sim, topo, net = make_net(host_link=1 * Gbps)
        ends = {}
        net.start_flow("r0n0", "r0n1", 1 * Gbps, lambda f: ends.setdefault("a", sim.now))
        net.start_flow("r1n0", "r1n1", 1 * Gbps, lambda f: ends.setdefault("b", sim.now))
        sim.run()
        assert ends["a"] == pytest.approx(1.0, rel=1e-6)
        assert ends["b"] == pytest.approx(1.0, rel=1e-6)

    def test_uplink_bottleneck(self):
        # 4 cross-rack flows from distinct sources to distinct sinks share
        # the 2-capacity uplink fabric
        sim = Simulator()
        topo = rack_topology(2, 4, host_link=1 * Gbps, tor_uplink=2 * Gbps)
        net = FlowNetwork(sim, topo)
        ends = {}
        for i in range(4):
            net.start_flow(
                f"r0n{i}", f"r1n{i}", 1 * Gbps,
                lambda f, i=i: ends.setdefault(i, sim.now),
            )
        sim.run()
        # each gets 0.5 Gbps (uplink fair share), finishing at t=2
        for i in range(4):
            assert ends[i] == pytest.approx(2.0, rel=1e-6)

    def test_capped_flow_leaves_bandwidth_to_others(self):
        sim, topo, net = make_net(host_link=1 * Gbps)
        ends = {}
        net.start_flow(
            "r0n0", "r0n1", 0.2 * Gbps,
            lambda f: ends.setdefault("capped", sim.now), max_rate=0.1 * Gbps,
        )
        net.start_flow("r0n0", "r0n2", 1.8 * Gbps, lambda f: ends.setdefault("free", sim.now))
        sim.run()
        # capped at 0.1; free flow gets 0.9 -> finishes at t=2.0
        assert ends["capped"] == pytest.approx(2.0, rel=1e-6)
        assert ends["free"] == pytest.approx(2.0, rel=1e-6)

    def test_max_min_no_link_oversubscribed(self):
        """Property: after arbitrary arrivals, no link carries more than its
        capacity and every active flow has a positive rate."""
        sim = Simulator()
        topo = rack_topology(3, 4, host_link=1 * Gbps, tor_uplink=4 * Gbps)
        net = FlowNetwork(sim, topo)
        rng = np.random.default_rng(0)
        hosts = topo.hosts
        for i in range(40):
            a, b = rng.choice(len(hosts), size=2, replace=False)
            net.start_flow(hosts[a], hosts[b], float(rng.uniform(1, 100) * MB))
        sim.run(until=0.001)  # force at least one reallocation
        loads: dict = {}
        for f in net._flows:
            assert f.rate > 0
            for link in f.route:
                loads[link] = loads.get(link, 0.0) + f.rate
        for link, load in loads.items():
            assert load <= topo.link_capacity(link) * (1 + 1e-9)

    def test_bytes_conservation(self):
        """Bytes reported as transferred equal the sum of completed sizes."""
        sim, topo, net = make_net()
        sizes = [10 * MB, 25 * MB, 5 * MB, 100 * MB]
        for i, s in enumerate(sizes):
            net.start_flow("r0n0", f"r1n{i % 3}", s)
        sim.run()
        assert net.bytes_transferred == pytest.approx(sum(sizes))
        assert net.flows_completed == len(sizes)
        assert net.active_flows == 0


class TestCancellation:
    def test_cancelled_flow_never_completes(self):
        sim, topo, net = make_net()
        done = []
        f = net.start_flow("r0n0", "r0n1", 1 * Gbps, lambda f: done.append(1))
        sim.schedule(0.1, lambda: net.cancel_flow(f))
        sim.run()
        assert done == []
        assert f.cancelled
        assert net.active_flows == 0

    def test_cancel_releases_bandwidth(self):
        sim, topo, net = make_net(host_link=1 * Gbps)
        ends = {}
        f1 = net.start_flow("r0n0", "r0n1", 1 * Gbps, lambda f: ends.setdefault("a", sim.now))
        net.start_flow("r0n0", "r0n2", 1 * Gbps, lambda f: ends.setdefault("b", sim.now))
        sim.schedule(1.0, lambda: net.cancel_flow(f1))
        sim.run()
        # b: 0.5 GB done at t=1, then full rate -> 0.5 remaining -> t=1.5
        assert ends["b"] == pytest.approx(1.5, rel=1e-6)
        assert "a" not in ends

    def test_cancel_is_idempotent(self):
        sim, topo, net = make_net()
        f = net.start_flow("r0n0", "r0n1", 1 * MB)
        net.cancel_flow(f)
        net.cancel_flow(f)
        sim.run()
        assert net.active_flows == 0


class TestPathRate:
    def test_idle_path_rate_is_bottleneck_estimate(self):
        sim, topo, net = make_net(host_link=1 * Gbps, uplink=10 * Gbps)
        # idle: new flow would get the full host link
        assert net.path_rate("r0n0", "r0n1") == pytest.approx(1 * Gbps)

    def test_path_rate_degrades_with_load(self):
        sim, topo, net = make_net(host_link=1 * Gbps)
        before = net.path_rate("r0n0", "r0n1")
        net.start_flow("r0n0", "r0n1", 1 * Gbps)
        sim.run(until=0.01)
        after = net.path_rate("r0n0", "r0n1")
        assert after == pytest.approx(before / 2)

    def test_local_path_rate_is_disk(self):
        sim, topo, net = make_net(local=123.0)
        assert net.path_rate("r0n0", "r0n0") == 123.0

    def test_rate_matrix_symmetric_with_disk_diagonal(self):
        sim, topo, net = make_net(local=400 * MB)
        r = net.rate_matrix()
        assert np.allclose(r, r.T)
        assert np.all(np.diag(r) == 400 * MB)


class TestLinkKeys:
    """The capacity API reads a link in either orientation and rejects a
    link the topology does not have."""

    def test_capacity_factor_canonicalises_link_key(self):
        sim, topo, net = make_net(racks=2, per_rack=2, host_link=1 * Gbps)
        net.set_capacity_factor(("tor0", "r0n0"), 0.5)
        assert net.capacity_factor(("r0n0", "tor0")) == 0.5
        assert net.effective_capacity(("r0n0", "tor0")) == 0.5 * Gbps
        assert net.path_rate("r0n0", "r0n1") == 0.5 * Gbps

    def test_flows_on_link_canonicalises_link_key(self):
        sim, topo, net = make_net(racks=2, per_rack=2)
        net.start_flow("r0n0", "r0n1", 100 * MB)
        assert net.flows_on_link(("tor0", "r0n0")) == 1
        assert net.flows_on_link(("r0n0", "tor0")) == 1

    @pytest.mark.parametrize(
        "call",
        [
            lambda net, link: net.set_capacity_factor(link, 0.5),
            lambda net, link: net.capacity_factor(link),
            lambda net, link: net.effective_capacity(link),
            lambda net, link: net.flows_on_link(link),
            lambda net, link: net.set_link_down(link),
            lambda net, link: net.set_link_up(link),
        ],
        ids=["set_factor", "factor", "effective", "flows", "down", "up"],
    )
    def test_unknown_link_rejected(self, call):
        sim, topo, net = make_net(racks=2, per_rack=2)
        with pytest.raises(ValueError, match="'nope', 'zzz'"):
            call(net, ("nope", "zzz"))
        assert net.epoch == 0


class TestStress:
    def test_many_random_flows_drain(self):
        sim = Simulator()
        topo = rack_topology(2, 5)
        net = FlowNetwork(sim, topo)
        rng = np.random.default_rng(42)
        hosts = topo.hosts
        done = []
        count = 200

        def launch(i):
            a, b = rng.choice(len(hosts), size=2, replace=False)
            net.start_flow(
                hosts[a], hosts[b], float(rng.uniform(0.1, 50) * MB),
                on_complete=lambda f: done.append(i),
            )

        for i in range(count):
            sim.schedule(float(rng.uniform(0, 5)), launch, i)
        sim.run()
        assert len(done) == count
        assert net.active_flows == 0

    def test_determinism(self):
        def run_once():
            sim = Simulator()
            topo = rack_topology(2, 4)
            net = FlowNetwork(sim, topo)
            rng = np.random.default_rng(7)
            ends = []
            for i in range(50):
                a, b = rng.choice(8, size=2, replace=False)
                sim.schedule(
                    float(rng.uniform(0, 2)),
                    lambda a=a, b=b: net.start_flow(
                        topo.hosts[a], topo.hosts[b],
                        float(rng.uniform(1, 20) * MB),
                        on_complete=lambda f: ends.append((f.fid, sim.now)),
                    ),
                )
            sim.run()
            return ends

        assert run_once() == run_once()
