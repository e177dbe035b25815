"""Unit tests for network topologies (repro.cluster.topology)."""

from __future__ import annotations

import itertools
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import BackgroundSpec, Cluster, ClusterSpec
from repro.cluster.graph import Graph
from repro.cluster.network import FlowNetwork
from repro.cluster.topologies import FabricTopology
from repro.cluster.topology import (
    GraphTopology,
    MatrixTopology,
    Topology,
    _canon,
    fat_tree_graph,
    fat_tree_topology,
    paper_example_topology,
    rack_topology,
    star_topology,
)
from repro.core import ProbabilisticNetworkAwareScheduler
from repro.engine import Simulation
from repro.sim import Simulator
from repro.units import MB, Gbps
from repro.workload import JobSpec
from tests.nxgraph import to_networkx
from tests.test_path_costs import tree_graphs, trees


class TestRackTopology:
    def test_host_count(self):
        topo = rack_topology(4, 15)
        assert topo.num_hosts == 60
        assert len(topo.hosts) == 60

    def test_hosts_sorted_and_indexed(self):
        topo = rack_topology(2, 3)
        assert topo.hosts == sorted(topo.hosts)
        for i, h in enumerate(topo.hosts):
            assert topo.host_index(h) == i

    def test_rack_labels(self):
        topo = rack_topology(2, 2)
        assert topo.rack_of("r0n0") == "rack0"
        assert topo.rack_of("r1n1") == "rack1"

    def test_hop_matrix_structure(self):
        topo = rack_topology(2, 3)
        h = topo.hop_matrix()
        names = topo.hosts
        for a, na in enumerate(names):
            for b, nb in enumerate(names):
                if a == b:
                    assert h[a, b] == 0
                elif topo.rack_of(na) == topo.rack_of(nb):
                    assert h[a, b] == 2  # host-tor-host
                else:
                    assert h[a, b] == 4  # host-tor-core-tor-host

    def test_hop_matrix_symmetric(self):
        h = rack_topology(3, 4).hop_matrix()
        assert np.array_equal(h, h.T)

    def test_single_rack_has_no_core(self):
        topo = rack_topology(1, 5)
        assert "core" not in topo.graph.nodes
        h = topo.hop_matrix()
        off_diag = h[~np.eye(5, dtype=bool)]
        assert np.all(off_diag == 2)

    def test_route_same_rack(self):
        topo = rack_topology(2, 3)
        route = topo.route("r0n0", "r0n1")
        assert len(route) == 2
        assert all("tor0" in link for link in route)

    def test_route_cross_rack(self):
        topo = rack_topology(2, 3)
        route = topo.route("r0n0", "r1n0")
        assert len(route) == 4

    def test_route_self_is_empty(self):
        topo = rack_topology(2, 3)
        assert topo.route("r0n0", "r0n0") == []

    def test_route_symmetric_links(self):
        topo = rack_topology(2, 3)
        fwd = topo.route("r0n0", "r1n2")
        rev = topo.route("r1n2", "r0n0")
        assert fwd == list(reversed(rev))

    def test_link_capacities(self):
        topo = rack_topology(2, 2, host_link=1 * Gbps, tor_uplink=10 * Gbps)
        host_links = [l for l in topo.links() if any("n" in str(e) and "tor" not in str(e) and "core" not in str(e) for e in l)]
        for link in topo.links():
            cap = topo.link_capacity(link)
            if "core" in link:
                assert cap == 10 * Gbps
            else:
                assert cap == 1 * Gbps

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            rack_topology(0, 5)
        with pytest.raises(ValueError):
            rack_topology(2, 0)


class TestStarTopology:
    def test_is_single_rack(self):
        topo = star_topology(6)
        assert topo.num_hosts == 6
        assert len({topo.rack_of(h) for h in topo.hosts}) == 1


class TestFatTree:
    def test_host_count_k4(self):
        topo = fat_tree_topology(4)
        assert topo.num_hosts == 4**3 // 4  # 16

    def test_host_count_k6(self):
        assert fat_tree_topology(6).num_hosts == 54

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            fat_tree_topology(3)

    def test_hops_within_edge(self):
        topo = fat_tree_topology(4)
        h = topo.hop_matrix()
        i = topo.host_index("h0_0_0")
        j = topo.host_index("h0_0_1")
        assert h[i, j] == 2

    def test_hops_cross_pod(self):
        topo = fat_tree_topology(4)
        h = topo.hop_matrix()
        i = topo.host_index("h0_0_0")
        j = topo.host_index("h1_0_0")
        assert h[i, j] == 6  # host-edge-agg-core-agg-edge-host

    def test_racks_are_edge_switch_groups(self):
        topo = fat_tree_topology(4)
        assert topo.rack_of("h0_0_0") == topo.rack_of("h0_0_1")
        assert topo.rack_of("h0_0_0") != topo.rack_of("h0_1_0")


class TestMatrixTopology:
    def test_paper_example_distances(self):
        topo = paper_example_topology()
        h = topo.hop_matrix()
        # distances quoted in the paper's worked example (Section II-B)
        d3 = topo.host_index("D3")
        assert h[d3, topo.host_index("D1")] == 2
        assert h[d3, topo.host_index("D2")] == 10
        assert h[d3, topo.host_index("D4")] == 6
        assert h[topo.host_index("D2"), topo.host_index("D1")] == 4

    def test_route_is_direct(self):
        topo = paper_example_topology()
        assert len(topo.route("D1", "D2")) == 1
        assert topo.route("D1", "D1") == []

    def test_capacity_decays_with_distance(self):
        topo = MatrixTopology([[0, 2], [2, 0]], base_capacity=1 * Gbps)
        (link,) = topo.route("D1", "D2")
        assert topo.link_capacity(link) == pytest.approx(0.5 * Gbps)

    def test_explicit_capacities(self):
        caps = [[0, 7], [7, 0]]
        topo = MatrixTopology([[0, 2], [2, 0]], capacities=caps)
        (link,) = topo.route("D1", "D2")
        assert topo.link_capacity(link) == 7

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValueError):
            MatrixTopology([[0, 1], [2, 0]])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError):
            MatrixTopology([[1, 2], [2, 0]])

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            MatrixTopology([[0, -1], [-1, 0]])

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            MatrixTopology([[0, 1, 2], [1, 0, 2]])

    def test_custom_names_and_racks(self):
        topo = MatrixTopology(
            [[0, 1], [1, 0]], host_names=["a", "b"], racks=["r1", "r2"]
        )
        assert topo.hosts == ["a", "b"]
        assert topo.rack_of("a") == "r1"

    def test_name_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MatrixTopology([[0, 1], [1, 0]], host_names=["a"])


class TestGraphValidation:
    def test_missing_capacity_rejected(self):
        import networkx as nx

        g = nx.Graph()
        g.add_node("h0", kind="host", rack="rack0")
        g.add_node("s", kind="switch")
        g.add_edge("h0", "s")
        with pytest.raises(ValueError):
            GraphTopology(g)

    def test_no_hosts_rejected(self):
        import networkx as nx

        g = nx.Graph()
        g.add_node("s", kind="switch")
        with pytest.raises(ValueError):
            GraphTopology(g)

    def test_disconnected_hosts_rejected_up_front(self):
        g = nx.Graph()
        g.add_node("s0", kind="switch")
        g.add_node("s1", kind="switch")
        for host, switch in (("a", "s0"), ("b", "s0"), ("c", "s1")):
            g.add_node(host, kind="host", rack=switch)
            g.add_edge(host, switch, capacity=1 * Gbps)
        topo = GraphTopology(g)
        with pytest.raises(ValueError, match="host 'c' is unreachable from host 'a'"):
            Cluster(Simulator(), topo)


def _route_link_sets(topo, tensor):
    """``{(a, b): set of links}`` from a ``route_tensor()`` result."""
    links = list(topo.link_table())
    k = tensor.shape[0]
    pad = len(links)
    return {
        (a, b): {links[i] for i in tensor[a, b] if i != pad}
        for a in range(k)
        for b in range(k)
    }


class TestRouteTensor:
    def test_matches_reference_per_pair_loop(self, family_topology):
        topo = family_topology
        fast = topo.route_tensor()
        reference = Topology.route_tensor(topo)
        assert fast.shape[:2] == (topo.num_hosts, topo.num_hosts)
        assert _route_link_sets(topo, fast) == _route_link_sets(topo, reference)

    @staticmethod
    def _count_route_calls(monkeypatch):
        calls = []
        route = GraphTopology.route

        def counting(self, src, dst):
            calls.append((src, dst))
            return route(self, src, dst)

        monkeypatch.setattr(GraphTopology, "route", counting)
        return calls

    def test_tree_build_makes_no_route_search(self, monkeypatch):
        topo = rack_topology(10, 40)
        net = FlowNetwork(Simulator(), topo)
        calls = self._count_route_calls(monkeypatch)
        net.rate_matrix()
        assert calls == []

    def test_only_multipath_pairs_search(self, monkeypatch):
        topo = fat_tree_topology(4)
        graph = to_networkx(topo.graph)
        multipath = sum(
            1
            for a, b in itertools.combinations(topo.hosts, 2)
            if len(list(nx.all_shortest_paths(graph, a, b))) >= 2
        )
        assert 0 < multipath < topo.num_hosts * (topo.num_hosts - 1) // 2
        net = FlowNetwork(Simulator(), topo)
        calls = self._count_route_calls(monkeypatch)
        net.rate_matrix()
        assert len(calls) == multipath


def _links(path):
    """A node path as link keys."""
    return [_canon(u, v) for u, v in zip(path[:-1], path[1:])]


def _assert_routes_match_networkx(graph):
    """Every ordered pair's ``route`` equals networkx's shortest path, with
    each direction computed first on one of two fresh topologies (the
    other direction is then read back reversed from the route cache)."""
    reference = to_networkx(graph)
    for forward in (True, False):
        topo = GraphTopology(graph)
        assert topo.up_chains() is not None
        for a, b in itertools.combinations(topo.hosts, 2):
            src, dst = (a, b) if forward else (b, a)
            for u, v in ((src, dst), (dst, src)):
                assert topo.route(u, v) == _links(nx.shortest_path(reference, u, v))


class TestTreeRoutes:
    """On a tree, ``route`` is read off the up-chains; networkx's
    ``shortest_path`` is the oracle (a tree has one path per pair)."""

    @pytest.mark.parametrize(
        "build",
        [lambda: rack_topology(4, 5), lambda: rack_topology(1, 3),
         lambda: star_topology(6)],
        ids=["rack", "one-rack", "star"],
    )
    def test_builders_match_networkx(self, build):
        _assert_routes_match_networkx(build().graph)

    @given(topo=trees())
    @settings(max_examples=40, deadline=None)
    def test_random_trees_match_networkx(self, topo):
        _assert_routes_match_networkx(topo.graph)

    @given(topo=trees(internal_hosts=True))
    @settings(max_examples=40, deadline=None)
    def test_hosts_inside_the_tree_match_networkx(self, topo):
        _assert_routes_match_networkx(topo.graph)

    @staticmethod
    def _count_searches(monkeypatch):
        calls = []
        search = Graph.shortest_path

        def counting(self, *args):
            calls.append(args)
            return search(self, *args)

        monkeypatch.setattr(Graph, "shortest_path", counting)
        return calls

    def test_tree_run_makes_no_shortest_path_call(self, monkeypatch):
        """A whole run on a rack tree, background traffic included, routes
        every flow without one bidirectional path search."""
        calls = self._count_searches(monkeypatch)
        result = Simulation(
            cluster=ClusterSpec(num_racks=3, nodes_per_rack=4),
            scheduler=ProbabilisticNetworkAwareScheduler(),
            jobs=[JobSpec.make("01", "terasort", 12 * 64 * MB, 12, 3)],
            background=BackgroundSpec(intensity=0.2),
            seed=5,
        ).run()
        assert result.flows > 0
        assert calls == []

    def test_off_trees_route_by_search(self, monkeypatch):
        topo = fat_tree_topology(4)
        assert topo.up_chains() is None
        calls = self._count_searches(monkeypatch)
        topo.route("h0_0_0", "h1_0_0")
        assert len(calls) == 1


# ----------------------------------------------------------------------
# networkx as the independent oracle
# ----------------------------------------------------------------------
@st.composite
def shuffled_graphs(draw):
    """A random connected switch graph with hosts on one or two switches,
    built by node and edge insertions in a drawn order, each edge in a
    drawn orientation, so node, neighbour and edge orders all vary."""
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    switches = [f"s{i}" for i in rnd.sample(range(20), rnd.randint(2, 8))]
    hosts = [f"h{i}" for i in rnd.sample(range(20), rnd.randint(2, 7))]
    edges = [(s, rnd.choice(switches[:i])) for i, s in enumerate(switches) if i]
    edges += [
        tuple(rnd.sample(switches, 2))
        for _ in range(rnd.randint(0, 2 * len(switches)))
    ]
    for h in hosts:
        edges += [(h, s) for s in rnd.sample(switches, rnd.randint(1, 2))]
    ops = [(n,) for n in switches + hosts] + edges
    rnd.shuffle(ops)
    g = nx.Graph()
    for op in ops:
        if len(op) == 1:
            n = op[0]
            if n in hosts:
                g.add_node(n, kind="host", rack="rack0")
            else:
                g.add_node(n, kind="switch")
        else:
            u, v = op if rnd.random() < 0.5 else op[::-1]
            g.add_edge(u, v, capacity=rnd.choice([1, 2, 10]) * Gbps)
    return g


def _nx_up_chains(g, topo):
    """Up-chains from networkx: root at the middle of the path between a
    vertex farthest from the first host and one farthest from that."""
    hosts = topo.hosts
    far = nx.single_source_shortest_path_length(g, hosts[0])
    u = max(far, key=far.get)
    far = nx.single_source_shortest_path_length(g, u)
    diameter = nx.shortest_path(g, u, max(far, key=far.get))
    root = diameter[len(diameter) // 2]
    paths = [nx.shortest_path(g, root, h) for h in hosts]
    vertex = {v: i for i, v in enumerate(g)}
    lid = topo.link_table()
    depth = max(len(p) for p in paths) - 1
    ancestors = np.empty((depth + 1, len(hosts)), dtype=np.int64)
    link_ids = np.full((depth + 1, len(hosts)), len(lid), dtype=np.int64)
    for a, path in enumerate(paths):
        ancestors[:, a] = -(a + 1)
        ancestors[: len(path), a] = [vertex[v] for v in path]
        for level, link in enumerate(_links(path), 1):
            link_ids[level, a] = lid[link]
    return ancestors, link_ids


def check_against_networkx(g, picks):
    """Every graph answer of the topologies built from ``g`` equals
    networkx's on ``g`` itself, with the links ``picks`` selects down."""
    edges = list(g.edges())
    down = sorted({_canon(*edges[i % len(edges)]) for i in picks})
    topo = GraphTopology(g)
    hosts = topo.hosts
    assert list(topo.graph.nodes) == list(g)
    assert all(list(topo.graph.adj[u]) == list(g.adj[u]) for u in g)
    assert list(topo.links()) == [_canon(u, v) for u, v in edges]

    hops = topo.hop_matrix()
    for a, src in enumerate(hosts):
        lengths = nx.single_source_shortest_path_length(g, src)
        assert hops[a].tolist() == [lengths[dst] for dst in hosts]

    # static routes and the route tensor, with either direction asked first
    pairs = list(itertools.combinations(range(len(hosts)), 2))
    sets = _route_link_sets(topo, topo.route_tensor())
    backward = GraphTopology(g)
    for a, b in pairs:
        src, dst = hosts[a], hosts[b]
        path = _links(nx.shortest_path(g, src, dst))
        assert sets[a, b] == sets[b, a] == set(path)
        assert topo.route(src, dst) == path
        assert topo.route(dst, src) == path[::-1]
        path = _links(nx.shortest_path(g, dst, src))
        assert backward.route(dst, src) == path
        assert backward.route(src, dst) == path[::-1]

    chains = topo.up_chains()
    if nx.is_tree(g):
        ancestors, link_ids = _nx_up_chains(g, topo)
        assert np.array_equal(chains.ancestors, ancestors)
        assert np.array_equal(chains.link_ids, link_ids)
    else:
        assert chains is None

    # live components, on the topology and in the data plane
    live = g.copy()
    live.remove_edges_from(down)
    host_set = set(hosts)
    comps = [c & host_set for c in nx.connected_components(live)]
    comps = [c for c in comps if c]
    assert topo.host_components(down) == comps
    net = FlowNetwork(Simulator(), topo)
    for link in down:
        net.set_link_down(link)
    main = max(comps, key=lambda c: (len(c), sorted(c)))
    assert net.isolated_hosts() == host_set - main

    # equal-cost paths of a link-state fabric on the same graph
    fabric = FabricTopology(g, routing="linkstate")
    for link in down:
        fabric.mark_link_down(link)
    for a, b in pairs:
        src, dst = hosts[a], hosts[b]
        if nx.has_path(live, src, dst):
            want = sorted(nx.all_shortest_paths(live, src, dst))
        else:
            want = []
        assert fabric.equal_cost_paths(src, dst) == [_links(p) for p in want]


down_picks = st.lists(st.integers(0, 10**6), max_size=4)


class TestNetworkxOracle:
    """The simulator's own graph code against networkx, run on the very
    ``nx.Graph`` the topologies were built from."""

    @given(g=shuffled_graphs(), picks=down_picks)
    @settings(max_examples=60, deadline=None)
    def test_shuffled_random_graphs(self, g, picks):
        check_against_networkx(g, picks)

    @given(g=tree_graphs(internal_hosts=True), picks=down_picks)
    @settings(max_examples=30, deadline=None)
    def test_trees_with_internal_hosts(self, g, picks):
        check_against_networkx(g, picks)

    @given(k=st.sampled_from([4, 6]), picks=down_picks)
    @settings(max_examples=6, deadline=None)
    def test_clos(self, k, picks):
        check_against_networkx(to_networkx(fat_tree_graph(k)), picks)
