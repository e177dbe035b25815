"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

# The whole suite runs with the runtime invariant layer on, so every
# engine-level test doubles as an invariant regression test.  Must be set
# before repro is imported: Scenario's default EngineConfig is built at
# import time.
os.environ.setdefault("REPRO_CHECK_INVARIANTS", "1")

import networkx as nx
import numpy as np
import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.cluster.topologies import clos_topology
from repro.cluster.topology import (
    GraphTopology,
    fat_tree_topology,
    paper_example_topology,
    rack_topology,
    star_topology,
)
from repro.hdfs import NameNode
from repro.sim import Simulator
from repro.units import Gbps


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def small_cluster(sim: Simulator) -> Cluster:
    """2 racks x 3 nodes, paper-style slots."""
    return ClusterSpec(num_racks=2, nodes_per_rack=3).build(sim)


@pytest.fixture
def namenode(small_cluster: Cluster) -> NameNode:
    return NameNode(small_cluster, replication=2, rng=np.random.default_rng(1))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def _faulted_linkstate_clos():
    """Link-state k=4 Clos with one fabric link down and ``h0_0_0`` cut off
    (its only access link down), so every pair with it is partitioned."""
    topo = clos_topology(4, routing="linkstate")
    topo.mark_link_down(("edge1_0", "agg1_0"))
    topo.mark_link_down(("h0_0_0", "edge0_0"))
    return topo


def _switch_ring(n=6):
    """``n`` switches in a ring, one host each.  Opposite hosts of an even
    ring have two shortest paths, and a BFS parent walk picks the other
    one than ``networkx.shortest_path`` for some of them."""
    g = nx.Graph()
    for i in range(n):
        g.add_node(f"s{i}", kind="switch")
        g.add_node(f"h{i}", kind="host", rack=f"rack{i}")
        g.add_edge(f"h{i}", f"s{i}", capacity=1 * Gbps)
    for i in range(n):
        g.add_edge(f"s{i}", f"s{(i + 1) % n}", capacity=2 * Gbps)
    return GraphTopology(g)


#: One builder per topology family the route tensor must cover: trees,
#: single-path and multi-path fat-trees, every Clos routing policy, and the
#: paper's matrix topology.
TOPOLOGY_FAMILIES = {
    "rack": lambda: rack_topology(
        2, 3, host_link=1 * Gbps, tor_uplink=10 * Gbps
    ),
    "single_rack": lambda: rack_topology(1, 4),
    "star": lambda: star_topology(5),
    "fat_tree": lambda: fat_tree_topology(4),
    "ring": _switch_ring,
    "clos_static": lambda: clos_topology(4, routing="static"),
    "clos_ecmp": lambda: clos_topology(4, routing="ecmp"),
    "clos_linkstate_faulted": _faulted_linkstate_clos,
    "paper": paper_example_topology,
}


@pytest.fixture(params=list(TOPOLOGY_FAMILIES))
def family_topology(request):
    """A fresh topology of each family in :data:`TOPOLOGY_FAMILIES`."""
    return TOPOLOGY_FAMILIES[request.param]()
