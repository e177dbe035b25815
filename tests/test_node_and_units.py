"""Unit tests for Node slot accounting, ClusterSpec, and unit helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterSpec, Node, SlotExhausted
from repro.cluster.topology import rack_topology
from repro.sim import Simulator
from repro.units import (
    GB,
    Gbps,
    KB,
    MB,
    TB,
    fmt_bytes,
    fmt_rate,
    fmt_time,
    gb,
    gbps,
    kb,
    mb,
    mbps,
)


class TestNodeSlots:
    def make(self):
        return Node(name="n0", rack="rack0", map_slots=2, reduce_slots=1)

    def test_initial_slots_free(self):
        n = self.make()
        assert n.free_map_slots == 2
        assert n.free_reduce_slots == 1

    def test_acquire_release_cycle(self):
        n = self.make()
        n.acquire_map_slot()
        n.acquire_map_slot()
        assert n.free_map_slots == 0
        n.release_map_slot()
        assert n.free_map_slots == 1

    def test_over_acquire_raises(self):
        n = self.make()
        n.acquire_map_slot()
        n.acquire_map_slot()
        with pytest.raises(SlotExhausted):
            n.acquire_map_slot()

    def test_over_release_raises(self):
        n = self.make()
        with pytest.raises(SlotExhausted):
            n.release_map_slot()
        with pytest.raises(SlotExhausted):
            n.release_reduce_slot()

    def test_reduce_slots_independent(self):
        n = self.make()
        n.acquire_reduce_slot()
        assert n.free_reduce_slots == 0
        assert n.free_map_slots == 2
        with pytest.raises(SlotExhausted):
            n.acquire_reduce_slot()


class TestClusterSpec:
    def test_default_matches_paper(self):
        spec = ClusterSpec()
        assert spec.num_nodes == 60
        assert spec.map_slots == 4
        assert spec.reduce_slots == 2

    def test_build(self):
        sim = Simulator()
        cluster = ClusterSpec(num_racks=2, nodes_per_rack=3).build(sim)
        assert cluster.num_nodes == 6
        assert cluster.total_map_slots() == 24
        assert cluster.total_reduce_slots() == 12

    def test_node_lookup(self):
        sim = Simulator()
        cluster = ClusterSpec(num_racks=2, nodes_per_rack=2).build(sim)
        node = cluster.node("r1n0")
        assert node.rack == "rack1"
        assert "r1n0" in cluster
        assert "missing" not in cluster
        assert len(cluster) == 4
        assert {n.name for n in cluster} == {"r0n0", "r0n1", "r1n0", "r1n1"}

    def test_compute_factors(self):
        sim = Simulator()
        cluster = ClusterSpec(
            num_racks=1, nodes_per_rack=2, compute_factors=[1.0, 2.0]
        ).build(sim)
        assert cluster.nodes[1].compute_factor == 2.0

    def test_compute_factor_length_mismatch(self):
        sim = Simulator()
        topo = rack_topology(1, 3)
        with pytest.raises(ValueError):
            Cluster(sim, topo, compute_factors=[1.0])

    def test_free_slot_views(self):
        sim = Simulator()
        cluster = ClusterSpec(num_racks=1, nodes_per_rack=2).build(sim)
        assert len(cluster.nodes_with_free_map_slots()) == 2
        cluster.nodes[0].running_maps = cluster.nodes[0].map_slots
        assert len(cluster.nodes_with_free_map_slots()) == 1
        assert cluster.running_map_tasks() == 4

    def test_hop_matrix_view(self):
        sim = Simulator()
        cluster = ClusterSpec(num_racks=2, nodes_per_rack=2).build(sim)
        h = cluster.hop_costs.dense()
        assert h.shape == (4, 4)
        a, b, c = (cluster.node(n).index for n in ("r0n0", "r0n1", "r1n0"))
        assert cluster.hop_costs.take(a, b) == 2.0
        assert cluster.hop_costs.take(a, c) == 4.0

    def test_inverse_rate_matrix_idle(self):
        sim = Simulator()
        cluster = ClusterSpec(num_racks=2, nodes_per_rack=2).build(sim)
        inv = cluster.inverse_rate_matrix()
        assert np.all(np.diag(inv) == 0.0)
        # idle same-rack path normalises to the 2-hop reference
        i, j = cluster.node("r0n0").index, cluster.node("r0n1").index
        assert inv[i, j] == pytest.approx(2.0)
        # cross-rack path bottlenecked by the same host link when idle
        k = cluster.node("r1n0").index
        assert inv[i, k] == pytest.approx(2.0)

    def test_inverse_rate_matrix_reacts_to_load(self):
        sim = Simulator()
        cluster = ClusterSpec(num_racks=2, nodes_per_rack=2).build(sim)
        i, j = cluster.node("r0n0").index, cluster.node("r0n1").index
        before = cluster.inverse_rate_matrix()[i, j]
        cluster.network.start_flow("r0n0", "r0n1", 1 * GB)
        sim.run(until=0.001)
        after = cluster.inverse_rate_matrix()[i, j]
        assert after > before


class TestUnits:
    def test_byte_units(self):
        assert kb(1) == KB == 1024
        assert mb(1) == MB
        assert gb(2) == 2 * GB
        assert TB == 1024 * GB

    def test_rate_units(self):
        assert gbps(1) == Gbps == 1e9 / 8
        assert mbps(8) == 1e6

    def test_fmt_bytes(self):
        assert fmt_bytes(512) == "512 B"
        assert fmt_bytes(2 * KB) == "2.00 KB"
        assert fmt_bytes(1.5 * GB) == "1.50 GB"
        assert fmt_bytes(2 * TB) == "2.00 TB"

    def test_fmt_rate(self):
        assert fmt_rate(Gbps) == "1.00 Gbps"
        assert fmt_rate(125.0) == "1.00 Kbps"
        assert fmt_rate(12.5) == "100 bps"

    def test_fmt_time(self):
        assert fmt_time(30.0) == "30.00 s"
        assert fmt_time(90.0) == "1.50 min"
        assert fmt_time(7200.0) == "2.00 h"
