"""Path-cost views: the tree fast paths against their references.

``Cluster.path_costs`` serves a tree topology from static host up-chains
and a per-epoch prefix-min of link shares (``TreePathCosts``), with no
route tensor, and every other topology from the dense route-tensor
gather-min (``DensePathCosts``).  The tree view must equal the per-pair
``path_rate`` walk bit for bit — 0 on the diagonal, +inf for a pair cut
by a failed link — on random trees under random load, capacity factors
and link failures, and the cost model must return the same bytes whether
it reads the view or its dense matrix.

``Cluster.hop_costs`` is the same split for hop counts: up-chain lengths
on a tree, with no ``k × k`` hop matrix, and a dense view of
``hop_matrix()`` elsewhere.  The tree view must equal the BFS hop matrix
bit for bit.
"""

from __future__ import annotations

import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterSpec
from repro.cluster.pathcost import DensePathCosts, TreePathCosts
from repro.cluster.topology import GraphTopology, Topology, rack_topology
from repro.core import JobCostModel, ProbabilisticNetworkAwareScheduler
from repro.engine import Simulation
from repro.schedulers import FairScheduler, RandomScheduler
from repro.sim import Simulator
from repro.units import MB, Gbps
from repro.workload import JobSpec
from tests.nxgraph import to_networkx

CAPACITIES = np.array([1.0, 2.5, 10.0, 40.0]) * Gbps


@st.composite
def tree_graphs(draw, internal_hosts=False):
    """A random switch tree as a ``networkx.Graph``, 1-4 switch levels
    deep, with hosts hanging at varying depths and random link capacities.
    The shape comes from a drawn seed, so draws spread evenly over shapes.
    ``internal_hosts`` also turns some switches, the root included, into
    hosts with vertices below them."""
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
    if internal_hosts:
        for v in list(g):
            if g.nodes[v]["kind"] == "switch" and rng.random() < 0.3:
                g.nodes[v].update(kind="host", rack=v)
                hosts.append(v)
    while len(hosts) < 4:
        attach("s", f"s.h{len(hosts)}", "host")
    return g


def trees(internal_hosts=False):
    """A :class:`GraphTopology` over :func:`tree_graphs`."""
    return tree_graphs(internal_hosts).map(GraphTopology)


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
    view_class = (
        TreePathCosts
        if graph is not None and nx.is_tree(to_networkx(graph))
        else DensePathCosts
    )
    assert isinstance(view, view_class)
    assert isinstance(cluster.hop_costs, view_class)
    assert (tensor_builds == []) == (view_class is TreePathCosts)
    reference = cluster._inverse_rate_matrix_uncached()
    assert view.dense().tobytes() == reference.tobytes()
    assert cluster.inverse_rate_matrix() is view.dense()
    hops = topo.hop_matrix().astype(np.float64)
    assert cluster.hop_costs.dense().tobytes() == hops.tobytes()


@settings(max_examples=30, deadline=None)
@given(topo=trees(internal_hosts=True))
def test_tree_hop_view_matches_hop_matrix(topo):
    view = Cluster(Simulator(), topo).hop_costs
    assert isinstance(view, TreePathCosts)
    hops = topo.hop_matrix().astype(np.float64)
    assert view.dense().tobytes() == hops.tobytes()
    # a row read, as the cost model's Sc update and HDFS reads make it
    k = topo.num_hosts
    assert view.take(k - 1, np.arange(k)).tobytes() == hops[k - 1].tobytes()


@pytest.fixture
def no_hop_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError("dense hop matrix built on a tree")

    monkeypatch.setattr(GraphTopology, "hop_matrix", refuse)


@pytest.mark.parametrize(
    "scheduler", [ProbabilisticNetworkAwareScheduler, FairScheduler]
)
def test_tree_runs_never_build_the_hop_matrix(no_hop_matrix, scheduler):
    """Hop-mode PNA (Formulas 1-3), HDFS replica reads and reduce-cost
    accounting on a tree all read the up-chain hop view."""
    sim = Simulation(
        cluster=ClusterSpec(num_racks=2, nodes_per_rack=4),
        scheduler=scheduler(),
        jobs=[
            JobSpec.make(f"{i:02d}", "wordcount", 6 * 64 * MB, 6, 2)
            for i in range(1, 3)
        ],
        seed=5,
    )
    collector = sim.run().collector
    assert isinstance(sim.cluster.hop_costs, TreePathCosts)
    assert len(collector.job_records) == 2
    reduces = [t for t in collector.task_records if t.kind == "reduce"]
    assert len(reduces) == 4 and any(t.cost > 0 for t in reduces)


def test_tree_read_stays_below_one_dense_matrix(monkeypatch, no_hop_matrix):
    """Building the cluster with its hop view and the rate view on 1,000
    hosts and reading 8 free nodes x 3 replicas from each allocates less
    than one dense k x k float64 matrix."""
    topo = rack_topology(25, 40)
    k = topo.num_hosts

    def no_tensor(self):
        raise AssertionError("route tensor built on a tree")

    monkeypatch.setattr(Topology, "route_tensor", no_tensor)
    monkeypatch.setattr(GraphTopology, "route_tensor", no_tensor)
    free = np.arange(0, k, k // 8)[:8]
    replicas = np.array([[3, 450, 998]])
    tracemalloc.start()
    try:
        cluster = Cluster(Simulator(), topo)
        hops = cluster.hop_costs.take(free[:, None, None], replicas[None])
        view = cluster.path_costs()
        costs = view.take(free[:, None, None], replicas[None])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert costs.shape == hops.shape == (8, 1, 3)
    assert set(hops.ravel()) <= {2.0, 4.0}
    assert peak < k * k * 8, f"peak {peak} B"
