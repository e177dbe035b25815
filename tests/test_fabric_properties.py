"""Property-based tests (hypothesis) for k-ary fat-tree / Clos invariants.

The classic fat-tree facts, checked for every generated even ``k`` and
oversubscription ratio:

* host count is ``k^3 / 4``;
* inter-pod host pairs see ``(k/2)^2`` equal-cost shortest paths and
  intra-pod (different edge switch) pairs see ``k/2``;
* at oversubscription 1 the fabric has full bisection bandwidth — each
  pod's aggregate uplink capacity equals its host capacity;
* the graph is connected, and stays connected after any single fabric
  link failure when ``k >= 4`` (multi-path redundancy).

The unranked ECMP paths are checked against :class:`EnumeratedFabric`, the
all-paths enumeration the fabric used before: every ``equal_cost_paths``,
``route`` and ``route_for_flow`` answer must match on random Clos and
random switch graphs under random down links and query orders, and whole
traced runs must be byte-identical on either fabric.

Link ids are order-free: the same random flow churn on two fabrics whose
link tables list the links in permuted orders gives bit-identical rates,
remaining bytes and completion times, on the C kernel and on the numpy
reference.
"""

from __future__ import annotations

import random
import zlib
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import accel
from repro.cluster import Cluster
from repro.cluster.network import FlowNetwork
from repro.cluster.topologies import FabricTopology, clos_topology
from repro.cluster.topology import _canon, fat_tree_graph
from repro.core import ProbabilisticNetworkAwareScheduler
from repro.engine import EngineConfig, Simulation
from repro.faults import FaultPlan, LinkFailure, SwitchFailure
from repro.sim import Simulator
from repro.trace.export import jsonl_lines
from repro.units import MB, Gbps
from repro.workload import JobSpec
from tests import test_refill_properties as churn
from tests.nxgraph import to_networkx

ks = st.sampled_from([2, 4, 6])
oversubs = st.sampled_from([1.0, 2.0, 4.0])


class TestFatTreeInvariants:
    @given(k=ks, oversub=oversubs)
    @settings(max_examples=20, deadline=None)
    def test_host_count_is_k_cubed_over_four(self, k, oversub):
        topo = clos_topology(k, oversubscription=oversub)
        assert topo.num_hosts == k**3 // 4

    @given(k=st.sampled_from([4, 6]))
    @settings(max_examples=10, deadline=None)
    def test_equal_cost_multiplicity(self, k):
        topo = clos_topology(k)
        half = k // 2
        inter = topo.equal_cost_paths(
            "h0_0_0", f"h{k - 1}_{half - 1}_{half - 1}"
        )
        assert len(inter) == half * half
        intra = topo.equal_cost_paths("h0_0_0", f"h0_{half - 1}_0")
        assert len(intra) == half
        # all candidates are genuine simple shortest paths of equal length
        for paths in (inter, intra):
            lengths = {len(p) for p in paths}
            assert len(lengths) == 1

    @given(k=ks)
    @settings(max_examples=10, deadline=None)
    def test_full_bisection_at_oversubscription_one(self, k):
        link = 10.0 * Gbps
        topo = clos_topology(k, oversubscription=1.0, link=link)
        g = topo.graph
        half = k // 2
        for pod in range(k):
            uplinks = sum(
                g.adj[f"agg{pod}_{a}"][f"core{a}_{j}"]["capacity"]
                for a in range(half)
                for j in range(half)
            )
            hosts = sum(
                g.adj[f"edge{pod}_{e}"][f"h{pod}_{e}_{h}"]["capacity"]
                for e in range(half)
                for h in range(half)
            )
            assert uplinks == hosts

    @given(k=ks, oversub=oversubs)
    @settings(max_examples=15, deadline=None)
    def test_oversubscription_thins_fabric_links(self, k, oversub):
        link = 10.0 * Gbps
        topo = clos_topology(k, oversubscription=oversub, link=link)
        g = topo.graph
        assert g.adj["edge0_0"]["h0_0_0"]["capacity"] == link
        assert g.adj["edge0_0"]["agg0_0"]["capacity"] == link / oversub

    @given(k=ks, oversub=oversubs)
    @settings(max_examples=15, deadline=None)
    def test_connected_and_every_pair_routable(self, k, oversub):
        topo = clos_topology(k, oversubscription=oversub)
        assert nx.is_connected(to_networkx(topo.graph))
        hosts = topo.hosts
        probe = hosts[:: max(1, len(hosts) // 4)]
        for a in probe:
            for b in probe:
                if a != b:
                    assert topo.route(a, b)

    @given(k=st.sampled_from([4, 6]), seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_single_fabric_link_failure_never_partitions(self, k, seed):
        import random

        topo = clos_topology(k)
        fabric_links = [
            (u, v)
            for u, v in topo.graph.edges()
            if topo.graph.nodes[u].get("kind") != "host"
            and topo.graph.nodes[v].get("kind") != "host"
        ]
        link = random.Random(seed).choice(fabric_links)
        topo.mark_link_down(link)
        assert topo.partitioned_pairs() == 0
        assert len(topo.host_components(topo.down_links)) == 1


class EnumeratedFabric(FabricTopology):
    """Reference: the per-pair ``nx.all_shortest_paths`` enumeration that
    unranking replaced, kept verbatim (cache ``_ecmp`` included)."""

    def __init__(self, graph, *, routing="linkstate"):
        super().__init__(graph, routing=routing)
        self._ecmp = {}

    def _bump(self):
        super()._bump()
        if self.routing == "linkstate":
            self._ecmp.clear()

    def equal_cost_paths(self, src, dst):
        if src == dst:
            return []
        key = (src, dst)
        cached = self._ecmp.get(key)
        if cached is None:
            g = to_networkx(self.graph)
            if self.routing == "linkstate":
                g.remove_edges_from(self.down_links)
            try:
                paths = sorted(nx.all_shortest_paths(g, src, dst))
            except (nx.NetworkXNoPath, nx.NodeNotFound):
                paths = []
            cached = [
                [_canon(u, v) for u, v in zip(p[:-1], p[1:])] for p in paths
            ]
            self._ecmp[key] = cached
            self._ecmp[(dst, src)] = [list(reversed(p)) for p in cached]
        return cached

    def route(self, src, dst):
        if self.routing == "static":
            return super().route(src, dst)
        if src == dst:
            return []
        paths = self.equal_cost_paths(src, dst)
        if not paths:
            stale = self._advertised.get((src, dst))
            return stale if stale is not None else super(
                FabricTopology, self
            ).route(src, dst)
        self._advertised[(src, dst)] = paths[0]
        return paths[0]

    def route_for_flow(self, src, dst, fid):
        if self.routing == "static" or src == dst:
            return self.route(src, dst)
        paths = self.equal_cost_paths(src, dst)
        if not paths:
            return self.route(src, dst)
        if len(paths) == 1:
            return paths[0]
        h = zlib.crc32(f"{src}|{dst}|{fid}".encode())
        return paths[h % len(paths)]

    # the id routes the flow network reads, as the oracle's keys
    def route_ids(self, src, dst):
        return self.link_ids(self.route(src, dst))

    def route_ids_for_flow(self, src, dst, fid):
        return self.link_ids(self.route_for_flow(src, dst, fid))


def switch_graph(seed):
    """A random connected switch graph with hosts on one or two switches.

    Unlike a Clos fabric, its name order can differ between the two
    directions of a pair, so the first-queried orientation shows.
    """
    rnd = random.Random(seed)
    n = rnd.randint(4, 9)
    g = nx.Graph()
    switches = [f"s{i}" for i in rnd.sample(range(20), n)]
    for i, s in enumerate(switches):
        g.add_node(s, kind="switch")
        if i:
            g.add_edge(s, rnd.choice(switches[:i]), capacity=Gbps)
    for _ in range(rnd.randint(0, 2 * n)):
        u, v = rnd.sample(switches, 2)
        g.add_edge(u, v, capacity=Gbps)
    for i in range(rnd.randint(3, 7)):
        h = f"h{i}"
        g.add_node(h, kind="host", rack="rack0")
        for s in rnd.sample(switches, rnd.randint(1, 2)):
            g.add_edge(h, s, capacity=Gbps)
    return g


def check_against_oracle(graph, routing, ops):
    """Replay ``ops`` on the fabric and the oracle; every answer must match.

    Each op is ``(kind, pair, forward, fid)``: ``kind`` 0-2 queries
    ``equal_cost_paths``, ``route`` or ``route_for_flow`` on one of a few
    host pairs (so both directions of a pair interleave), 3 toggles a link.
    """
    fabric = FabricTopology(graph, routing=routing)
    oracle = EnumeratedFabric(graph, routing=routing)
    hosts = fabric.hosts
    links = sorted(_canon(u, v) for u, v in graph.edges())
    for kind, pair, forward, fid in ops:
        if kind == 3:
            link = links[fid % len(links)]
            up = link in fabric.down_links
            for topo in (fabric, oracle):
                assert (topo.mark_link_up if up else topo.mark_link_down)(link)
            continue
        a = hosts[pair % len(hosts)]
        b = hosts[(pair * 7 + 1) % len(hosts)]
        src, dst = (a, b) if forward else (b, a)
        if kind == 0:
            got = fabric.equal_cost_paths(src, dst)
            want = oracle.equal_cost_paths(src, dst)
        elif kind == 1:
            got, want = fabric.route(src, dst), oracle.route(src, dst)
        else:
            got = fabric.route_for_flow(src, dst, fid)
            want = oracle.route_for_flow(src, dst, fid)
        assert got == want, (kind, src, dst, fid, fabric.down_links)


oracle_ops = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, 4),
        st.booleans(),
        st.integers(0, 2**16),
    ),
    min_size=1,
    max_size=40,
)
routings = st.sampled_from(["linkstate", "ecmp"])


class TestUnrankedMatchesEnumeration:
    @given(
        k=st.sampled_from([4, 6]),
        routing=routings,
        down=st.sets(st.integers(0, 10**6), max_size=6),
        ops=oracle_ops,
    )
    @settings(max_examples=40, deadline=None)
    def test_clos(self, k, routing, down, ops):
        graph = fat_tree_graph(k)
        n = len(list(graph.edges()))
        start = [(3, 0, True, i) for i in sorted({i % n for i in down})]
        check_against_oracle(graph, routing, start + ops)

    @given(seed=st.integers(0, 2**16), routing=routings, ops=oracle_ops)
    @settings(max_examples=60, deadline=None)
    def test_random_switch_graph(self, seed, routing, ops):
        check_against_oracle(switch_graph(seed), routing, ops)


class TestUnrankingEdgeCases:
    @pytest.mark.parametrize("routing", ["static", "ecmp", "linkstate"])
    def test_equal_and_unknown_hosts_have_no_paths(self, routing):
        topo = clos_topology(4, routing=routing)
        assert topo.equal_cost_paths("h0_0_0", "h0_0_0") == []
        assert topo.equal_cost_paths("h0_0_0", "nowhere") == []
        assert topo.equal_cost_paths("nowhere", "h0_0_0") == []
        assert topo.route("h1_0_0", "h1_0_0") == []
        assert topo.route_for_flow("h1_0_0", "h1_0_0", 3) == []

    def test_ecmp_ignores_down_links(self):
        topo = clos_topology(4, routing="ecmp")
        pairs = [
            ("h0_0_0", "h2_1_1"), ("h3_1_0", "h0_1_1"), ("h1_0_0", "h1_1_1"),
        ]
        before = {
            (a, b, fid): topo.route_for_flow(a, b, fid)
            for a, b in pairs
            for fid in range(16)
        }
        topo.mark_link_down(("agg0_0", "core0_0"))
        topo.mark_link_down(("edge1_0", "agg1_0"))
        assert {
            key: topo.route_for_flow(*key) for key in before
        } == before

    def test_linkstate_resets_orientation_and_counts_on_every_bump(self):
        graph = nx.Graph()
        for h in ("a", "b"):
            graph.add_node(h, kind="host", rack="rack0")
        for u, v in [("a", "x1"), ("x1", "y2"), ("y2", "b"),
                     ("a", "x2"), ("x2", "y1"), ("y1", "b"),
                     ("x1", "z")]:
            graph.add_edge(u, v, capacity=Gbps)
        topo = FabricTopology(graph, routing="linkstate")
        forward = topo.equal_cost_paths("a", "b")
        mirrored = [list(reversed(p)) for p in forward]
        # the wart: b -> a mirrors the first-queried a -> b order ...
        assert topo.equal_cost_paths("b", "a") == mirrored
        assert topo._first and topo._toward
        topo.mark_link_down(("x1", "z"))  # off every a-b path
        assert not topo._first and not topo._toward
        # ... until the next routing change lets b -> a rank itself
        own = topo.equal_cost_paths("b", "a")
        assert own != mirrored and sorted(own) == sorted(mirrored)
        topo.mark_link_up(("x1", "z"))
        assert not topo._first and not topo._toward
        assert topo.equal_cost_paths("a", "b") == forward


def _assert_pairs_match(fabric, oracle, hosts, fids=range(6)):
    """Every ordered pair of ``hosts`` answers as the oracle does."""
    for src in hosts:
        for dst in hosts:
            assert fabric.equal_cost_paths(src, dst) == (
                oracle.equal_cost_paths(src, dst)
            ), (src, dst)
            assert fabric.route(src, dst) == oracle.route(src, dst)
            for fid in fids:
                assert fabric.route_for_flow(src, dst, fid) == (
                    oracle.route_for_flow(src, dst, fid)
                ), (src, dst, fid)


def _roots(topo):
    """The names of the vertices ``topo`` holds BFS records toward."""
    names = list(topo.graph.adj)
    return {names[root] for root in topo._toward}


class TestSharedBfsRecords:
    """A single-homed destination reads its attachment switch's BFS
    record; a multi-homed one keeps its own."""

    #: ``h0_0_0`` last, so its pairs are first ranked toward it
    HOSTS = ["h0_0_1", "h0_1_0", "h1_0_1", "h3_1_1", "h0_0_0"]

    @pytest.mark.parametrize("routing", ["linkstate", "ecmp"])
    def test_leaf_host_with_its_only_link_down(self, routing):
        graph = fat_tree_graph(4)
        fabric = FabricTopology(graph, routing=routing)
        oracle = EnumeratedFabric(graph, routing=routing)
        for topo in (fabric, oracle):
            topo.mark_link_down(("edge0_0", "h0_0_0"))
        _assert_pairs_match(fabric, oracle, self.HOSTS)
        cut = fabric.equal_cost_paths("h0_0_1", "h0_0_0")
        if routing == "linkstate":
            # no live neighbour: h0_0_0 is its own (one-node) BFS root
            assert cut == [] and "h0_0_0" in _roots(fabric)
            assert ("edge0_0", "h0_0_0") in fabric.route("h0_0_1", "h0_0_0")
        else:
            assert len(cut) == 1

    @pytest.mark.parametrize("routing", ["linkstate", "ecmp"])
    def test_multi_homed_host(self, routing):
        graph = fat_tree_graph(4)
        graph.add_edge("h0_0_0", "edge0_1", capacity=10 * Gbps)
        fabric = FabricTopology(graph, routing=routing)
        oracle = EnumeratedFabric(graph, routing=routing)
        _assert_pairs_match(fabric, oracle, self.HOSTS)
        assert "h0_0_0" in _roots(fabric)
        assert len(fabric.equal_cost_paths("h0_1_0", "h0_0_0")) == 1
        # one of its two links down: single-homed under linkstate
        for topo in (fabric, oracle):
            topo.mark_link_down(("edge0_1", "h0_0_0"))
        _assert_pairs_match(fabric, oracle, self.HOSTS)
        if routing == "linkstate":
            assert "h0_0_0" not in _roots(fabric)

    def test_one_bfs_per_edge_switch(self):
        topo = clos_topology(4)
        for dst in topo.hosts:
            topo.route_for_flow(topo.hosts[0], dst, 1)
        # 16 destinations on 8 edge switches
        assert topo.bfs_runs == 8
        assert _roots(topo) == {
            f"edge{pod}_{e}" for pod in range(4) for e in range(2)
        }


def _reroute_plan():
    """The link-and-switch plan of CI's re-routing smoke test."""
    return FaultPlan(
        link_failures=(
            LinkFailure(link=("agg0_0", "core0_0"), duration=6.0, at=2.0),
            LinkFailure(link=("agg0_0", "core0_1"), duration=5.0, at=3.0),
        ),
        switch_failures=(
            SwitchFailure(switch="agg1_0", duration=4.0, at=2.5),
        ),
    )


def _trace(fabric_cls, routing):
    sim = Simulation(
        cluster=Cluster(
            Simulator(), fabric_cls(fat_tree_graph(4), routing=routing)
        ),
        scheduler=ProbabilisticNetworkAwareScheduler(),
        jobs=[JobSpec.make("01", "terasort", 16 * 64 * MB, 16, 6)],
        seed=123,
        config=EngineConfig(
            faults=_reroute_plan(), trace=True, route_convergence_delay=0.5
        ),
    )
    return jsonl_lines(sim.run().trace.events)


class TestUnrankedTraceIdentity:
    @pytest.mark.parametrize("routing", ["linkstate", "ecmp"])
    def test_faulted_run_matches_enumeration(self, routing):
        got = _trace(FabricTopology, routing)
        assert any('"link_down"' in line for line in got)
        assert got == _trace(EnumeratedFabric, routing)


class PermutedLinks(FabricTopology):
    """A fabric whose link table lists the same links in another order."""

    def __init__(self, graph, order, *, routing):
        super().__init__(graph, routing=routing)
        self._order = order

    def links(self):
        return iter(self._order)


def _flow_state(flows):
    return [
        (f.rate.hex(), f.remaining.hex(), repr(f.end_time)) for f in flows
    ]


class TestLinkIdsOrderFree:
    """The churn of ``tests/test_refill_properties.py`` on the same Clos
    fabric twice, under two link-table orders."""

    @pytest.mark.parametrize("ckernel", [True, False], ids=["ckernel", "numpy"])
    @given(
        order=st.permutations(churn.LINKS),
        steps=st.lists(churn.ops, min_size=15, max_size=60),
    )
    @settings(max_examples=40, deadline=None)
    def test_permuted_link_table_moves_no_bit(self, ckernel, order, steps):
        if ckernel and accel.refill_kernel() is None:
            pytest.skip("C refill kernel unavailable")
        permuted = PermutedLinks(churn.TOPO.graph, order, routing="ecmp")
        assert list(permuted.link_table()) == order
        with mock.patch.object(
            accel, "refill_kernel",
            accel.refill_kernel if ckernel else (lambda: None),
        ):
            nets = [
                FlowNetwork(Simulator(), topo, local_bandwidth=400 * MB)
                for topo in (churn.TOPO, permuted)
            ]
        assert all((net._kern is not None) == ckernel for net in nets)
        # every flow ever started, per fabric: a start op never completes
        # its flow, so each new flow is still live right after that op
        started = ([], [])
        lives = ([], [])
        for op in steps:
            for net, live, flows in zip(nets, lives, started):
                churn.apply(net, live, op)
                flows.extend(f for f in live if f not in flows)
            assert _flow_state(started[0]) == _flow_state(started[1]), op
        for net in nets:
            net.sim.run(until=net.sim.now + 1000.0)
        assert _flow_state(started[0]) == _flow_state(started[1])
