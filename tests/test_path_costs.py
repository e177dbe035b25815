"""Path-cost views: the tree fast path against the per-pair reference.

``Cluster.path_costs`` serves a tree topology from static host up-chains
and a per-epoch prefix-min of link shares (``TreePathCosts``), with no
route tensor, and every other topology from the dense route-tensor
gather-min (``DensePathCosts``).  The tree view must equal the per-pair
``path_rate`` walk bit for bit — 0 on the diagonal, +inf for a pair cut
by a failed link — on random trees under random load, capacity factors
and link failures, and the cost model must return the same bytes whether
it reads the view or its dense matrix.
"""

from __future__ import annotations

import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.cluster.pathcost import DensePathCosts, TreePathCosts
from repro.cluster.topology import GraphTopology, Topology, rack_topology
from repro.core import JobCostModel
from repro.engine import Simulation
from repro.schedulers import RandomScheduler
from repro.sim import Simulator
from repro.units import MB, Gbps
from repro.workload import JobSpec

CAPACITIES = np.array([1.0, 2.5, 10.0, 40.0]) * Gbps


@st.composite
def trees(draw):
    """A random switch tree, 1-4 switch levels deep, with hosts hanging at
    varying depths and random link capacities.  The shape comes from a
    drawn seed, so draws spread evenly over shapes."""
    depth = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = nx.Graph()
    g.add_node("s", kind="switch")
    hosts = []

    def attach(parent, child, kind):
        attrs = {"kind": kind}
        if kind == "host":
            attrs["rack"] = parent
            hosts.append(child)
        g.add_node(child, **attrs)
        g.add_edge(parent, child, capacity=float(rng.choice(CAPACITIES)))

    def grow(node, level):
        for i in range(int(rng.integers(1, 5))):
            child = f"{node}.{i}"
            if level + 1 < depth and rng.random() < 0.6:
                attach(node, child, "switch")
                grow(child, level + 1)
            else:
                attach(node, child, "host")

    grow("s", 0)
    while len(hosts) < 4:
        attach("s", f"s.h{len(hosts)}", "host")
    return GraphTopology(g)


def _job_cluster(topo, seed):
    """A tree cluster part-way through one job: some maps done, some
    running, fabric flows in flight."""
    maps = 5 * topo.num_hosts  # more maps than map slots
    spec = JobSpec.make("01", "terasort", maps * 64 * MB, maps, 3)
    sim = Simulation(
        cluster=Cluster(Simulator(), topo),
        scheduler=RandomScheduler(),
        jobs=[spec],
        seed=seed,
    )
    sim.tracker.start()
    sim.sim.run(until=0.001)
    job = sim.tracker.active_jobs[0]
    while not (job.maps_done and job.running_maps()):
        sim.sim.run(until=sim.sim.now + 1.0)
    return sim, job


@settings(max_examples=25, deadline=None)
@given(
    topo=trees(),
    seed=st.integers(0, 2**16),
    flows=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
                   max_size=12),
    factors=st.lists(
        st.tuples(st.integers(0, 10**6), st.sampled_from([0.25, 0.5, 3.0])),
        max_size=3,
    ),
    down=st.lists(st.integers(0, 10**6), max_size=2),
)
def test_tree_view_matches_per_pair_reference(topo, seed, flows, factors, down):
    sim, job = _job_cluster(topo, seed)
    cluster = sim.cluster
    net = cluster.network
    hosts = topo.hosts
    links = sorted(topo.links())
    for a, b in flows:
        src, dst = hosts[a % len(hosts)], hosts[b % len(hosts)]
        if src != dst:
            net.start_flow(src, dst, 1e6 * MB)
    for i, factor in factors:
        net.set_capacity_factor(links[i % len(links)], factor)
    for i in down:
        net.set_link_down(links[i % len(links)])

    view = cluster.path_costs()
    assert isinstance(view, TreePathCosts)
    dense = view.dense()
    reference = cluster._inverse_rate_matrix_uncached()
    assert dense.tobytes() == reference.tobytes()
    assert not np.diag(dense).any()
    cut = np.array([[net.pair_blocked(a, b) for b in hosts] for a in hosts])
    assert np.all(np.isinf(dense[cut])) and np.all(np.isfinite(dense[~cut]))

    # the cost model reads the same bytes through the view as through
    # its dense matrix
    now = sim.sim.now
    nodes = np.arange(len(hosts))
    tasks = np.arange(job.num_maps)
    reduces = np.arange(job.num_reduces)
    on_view, on_dense = JobCostModel(job), JobCostModel(job)
    assert (
        on_view.map_costs(nodes, tasks, view).tobytes()
        == on_dense.map_costs(nodes, tasks, DensePathCosts(dense)).tobytes()
    )
    assert (
        on_view.reduce_costs(nodes, reduces, now, distance=view).tobytes()
        == on_dense.reduce_costs(
            nodes, reduces, now, distance=DensePathCosts(dense)
        ).tobytes()
    )


@pytest.fixture
def tensor_builds(monkeypatch):
    """Record ``route_tensor`` builds: every topology class ends in the
    base method or the ``GraphTopology`` override."""
    calls = []
    for cls in (Topology, GraphTopology):
        original = vars(cls)["route_tensor"]

        def spy(self, _original=original):
            calls.append(type(self).__name__)
            return _original(self)

        monkeypatch.setattr(cls, "route_tensor", spy)
    return calls


def test_families_get_the_right_view(family_topology, tensor_builds):
    topo = family_topology
    cluster = Cluster(Simulator(), topo)
    for link in getattr(topo, "down_links", ()):
        cluster.network.set_link_down(link)
    hosts = topo.hosts
    cluster.network.start_flow(hosts[0], hosts[-1], 1e6 * MB)
    view = cluster.path_costs()
    graph = getattr(topo, "graph", None)
    if graph is not None and nx.is_tree(graph):
        assert isinstance(view, TreePathCosts)
        assert tensor_builds == []
    else:
        assert isinstance(view, DensePathCosts)
        assert tensor_builds
    reference = cluster._inverse_rate_matrix_uncached()
    assert view.dense().tobytes() == reference.tobytes()
    assert cluster.inverse_rate_matrix() is view.dense()


def test_tree_read_stays_below_one_dense_matrix(monkeypatch):
    """Building the view on 1,000 hosts and reading 8 free nodes x 3
    replicas allocates less than one dense k x k float64 matrix."""
    topo = rack_topology(25, 40)
    cluster = Cluster(Simulator(), topo)
    k = topo.num_hosts

    def no_tensor(self):
        raise AssertionError("route tensor built on a tree")

    monkeypatch.setattr(Topology, "route_tensor", no_tensor)
    monkeypatch.setattr(GraphTopology, "route_tensor", no_tensor)
    free = np.arange(0, k, k // 8)[:8]
    replicas = np.array([[3, 450, 998]])
    tracemalloc.start()
    try:
        view = cluster.path_costs()
        costs = view.take(free[:, None, None], replicas[None])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert costs.shape == (8, 1, 3)
    assert peak < k * k * 8, f"peak {peak} B"
