"""Unit tests for network topologies (repro.cluster.topology)."""

from __future__ import annotations

import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings

from repro.cluster import BackgroundSpec, Cluster, ClusterSpec
from repro.cluster.network import FlowNetwork
from repro.cluster.topology import (
    GraphTopology,
    MatrixTopology,
    Topology,
    _canon,
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
from tests.test_path_costs import trees


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
        multipath = sum(
            1
            for a, b in itertools.combinations(topo.hosts, 2)
            if len(list(nx.all_shortest_paths(topo.graph, a, b))) >= 2
        )
        assert 0 < multipath < topo.num_hosts * (topo.num_hosts - 1) // 2
        net = FlowNetwork(Simulator(), topo)
        calls = self._count_route_calls(monkeypatch)
        net.rate_matrix()
        assert len(calls) == multipath


def _nx_route(topo, src, dst):
    """The reference route: networkx's shortest path as link keys."""
    path = nx.shortest_path(topo.graph, src, dst)
    return [_canon(u, v) for u, v in zip(path[:-1], path[1:])]


def _assert_routes_match_networkx(graph):
    """Every ordered pair's ``route`` equals networkx's, with each
    direction computed first on one of two fresh topologies (the other
    direction is then read back reversed from the route cache)."""
    for forward in (True, False):
        topo = GraphTopology(graph)
        assert topo.up_chains() is not None
        for a, b in itertools.combinations(topo.hosts, 2):
            src, dst = (a, b) if forward else (b, a)
            assert topo.route(src, dst) == _nx_route(topo, src, dst)
            assert topo.route(dst, src) == _nx_route(topo, dst, src)


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
        search = nx.shortest_path

        def counting(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(nx, "shortest_path", counting)
        return calls

    def test_tree_run_makes_no_shortest_path_call(self, monkeypatch):
        """A whole run on a rack tree, background traffic included, routes
        every flow without one networkx path search."""
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
