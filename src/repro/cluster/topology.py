"""Network topologies: graphs, routing and the distance matrix ``H``.

The paper's cost model is parameterised by a distance matrix ``H`` whose
entry ``h_ab`` is the hop count of the path between data nodes ``a`` and
``b`` (Section II-B-1), optionally replaced by the inverse of the live path
transmission rate (Section II-B-3).  This module supplies both:

* :class:`GraphTopology` — a switch/host graph
  (:class:`~repro.cluster.graph.Graph`) with per-link capacities.  Hop
  counts come from shortest paths.  The flow-level network simulator
  takes each flow's route as link ids (:meth:`Topology.route_ids_for_flow`),
  read straight off the up-chains on a tree; elsewhere shortest-path
  routes are cached per pair.  A graph
  whose hosts are not all connected is rejected by
  :meth:`~GraphTopology.hop_matrix`.  The route tensor behind
  ``FlowNetwork.rate_matrix`` comes from one BFS per host; a tree graph
  also offers its static host up-chains (:meth:`~GraphTopology.up_chains`),
  from which path costs are read without any tensor.
* :class:`MatrixTopology` — a topology specified directly by a hop matrix,
  as in the paper's 4-node worked example (Figure 2).  Paths are modelled as
  dedicated pipes whose capacity decays with distance.

Builders cover the shapes used in the evaluation and beyond: the Palmetto
rack/ToR/core tree, a single-switch star, and a k-ary fat-tree.
"""

from __future__ import annotations

from typing import (
    Collection, Dict, Hashable, Iterable, List, NamedTuple, Optional,
    Sequence, Set, Tuple,
)

import numpy as np

from repro.cluster.graph import Graph, GraphLike, bfs, components
from repro.units import Gbps

__all__ = [
    "LinkKey",
    "UpChains",
    "Topology",
    "GraphTopology",
    "MatrixTopology",
    "rack_topology",
    "star_topology",
    "fat_tree_graph",
    "fat_tree_topology",
    "paper_example_topology",
]

LinkKey = Tuple[Hashable, Hashable]
#: per-host ancestor rows of :class:`UpChains`, and each host's link-id row
#: cut after its own level
_TreeWalks = Tuple[List[List[int]], List[List[int]]]
#: the route of a node-local pair
_NO_LINKS = np.empty(0, dtype=np.int64)
_NO_LINKS.setflags(write=False)


def _canon(u: Hashable, v: Hashable) -> LinkKey:
    """Canonical undirected link key."""
    return (u, v) if repr(u) <= repr(v) else (v, u)


class UpChains(NamedTuple):
    """Static host-to-root chains of a tree topology.

    Levels count down from the root (level 0).  Host ``a`` sits at its own
    level ``d_a``; past it, its columns hold padding.  Link ids index
    :meth:`Topology.link_table`, whose length is the padding id.
    """

    #: ``(depth + 1, k)``: vertex number of each host's level-``L``
    #: ancestor (the host itself at ``d_a``), ``-(a + 1)`` past ``d_a``
    ancestors: np.ndarray
    #: ``(depth + 1, k)``: id of the link joining each host's level-``L``
    #: ancestor to its level ``L - 1`` one; padding at level 0 and past
    #: ``d_a``
    link_ids: np.ndarray


class Topology:
    """Abstract interface shared by graph- and matrix-backed topologies.

    A topology knows the *host* (compute-node) names, their rack labels, the
    pairwise hop matrix, and — for flow simulation — the route between any
    two hosts together with each link's capacity.  A route is a sequence of
    :meth:`link_table` ids (:meth:`route_ids`); :meth:`route` is its view
    as link keys.
    """

    hosts: List[str]
    _link_table: Optional[Dict[LinkKey, int]] = None
    _link_keys: Optional[List[LinkKey]] = None

    def host_index(self, name: str) -> int:
        return self._host_index[name]

    def rack_of(self, host: str) -> str:
        raise NotImplementedError

    def hop_matrix(self) -> np.ndarray:
        """``H[a, b]`` = hops between hosts ``a`` and ``b`` (0 on diagonal)."""
        raise NotImplementedError

    def route(self, src: str, dst: str) -> List[LinkKey]:
        """Ordered link keys along the path ``src → dst`` (empty if equal)."""
        raise NotImplementedError

    def route_ids(self, src: str, dst: str) -> np.ndarray:
        """:meth:`route` as an ``int64`` array of :meth:`link_table` ids."""
        return self.link_ids(self.route(src, dst))

    def route_ids_for_flow(self, src: str, dst: str, fid: int) -> np.ndarray:
        """Link ids of the route assigned to one specific flow.

        Single-route topologies ignore ``fid``; multi-path fabrics
        (:class:`repro.cluster.topologies.FabricTopology`) hash it over the
        equal-cost path set for deterministic ECMP spreading.  The array
        is shared: callers must not write to it.
        """
        return self.route_ids(src, dst)

    def route_for_flow(self, src: str, dst: str, fid: int) -> List[LinkKey]:
        """:meth:`route_ids_for_flow` as link keys."""
        return self.link_keys(self.route_ids_for_flow(src, dst, fid))

    def link_capacity(self, link: LinkKey) -> float:
        raise NotImplementedError

    def links(self) -> Iterable[LinkKey]:
        raise NotImplementedError

    def link_table(self) -> Dict[LinkKey, int]:
        """Every link once, in :meth:`links` order, mapped to its integer id.

        The id is the link's position, so ``len(table)`` is free as the
        padding id.  Route tensors, up-chains and the flow network's
        per-link arrays all index this one numbering.  Built once.
        """
        if self._link_table is None:
            self._link_table = {link: i for i, link in enumerate(self.links())}
        return self._link_table

    def link_ids(self, links: Iterable[LinkKey]) -> np.ndarray:
        """The :meth:`link_table` ids of canonical link keys, in order."""
        table = self.link_table()
        return np.array([table[link] for link in links], dtype=np.int64)

    def link_keys(self, ids: Iterable[int]) -> List[LinkKey]:
        """The canonical keys of :meth:`link_table` ids, in order."""
        keys = self._link_keys
        if keys is None:
            keys = self._link_keys = list(self.link_table())
        return [keys[i] for i in np.asarray(ids, dtype=np.int64).tolist()]

    def route_tensor(self) -> np.ndarray:
        """Per-pair route link ids, for the vectorised ``rate_matrix``.

        ``tensor[a, b]`` lists the :meth:`link_table` ids of the links on
        the route between hosts ``a`` and ``b``, padded with the id
        ``len(link_table())``; the diagonal is all padding.  Link order
        within a row is unspecified.

        This is the reference: :meth:`route` for each pair ``a < b``,
        mirrored into ``(b, a)``, which matches the per-pair ``path_rate``
        walk exactly even if a topology's routes were asymmetric.
        """
        hosts = self.hosts
        k = len(hosts)
        table = self.link_table()
        routes = {}
        max_len = 1
        for a in range(k):
            for b in range(a + 1, k):
                ids = self.route_ids(hosts[a], hosts[b])
                routes[(a, b)] = ids
                max_len = max(max_len, len(ids))
        tensor = np.full((k, k, max_len), len(table), dtype=np.int64)
        for (a, b), ids in routes.items():
            tensor[a, b, : len(ids)] = ids
            tensor[b, a, : len(ids)] = ids
        return tensor

    def up_chains(self) -> Optional[UpChains]:
        """Host up-chains when every route is the unique tree path, else None."""
        return None

    def host_components(self, down: Collection[LinkKey]) -> List[Set[str]]:
        """Hosts split by connectivity once the ``down`` links fail.

        Here every host pair has its own pipe, which link faults do not
        target: one component.
        """
        return [set(self.hosts)]

    def access_link_capacities(self) -> List[float]:
        """Each host's access-link capacity, in host order: the first link
        of its route to the first other host (none on a single host)."""
        hosts = self.hosts
        caps = []
        for h in hosts:
            for other in hosts:
                if other != h:
                    caps.append(self.link_capacity(self.route(h, other)[0]))
                    break
        return caps

    @property
    def num_hosts(self) -> int:
        return len(self.hosts)


class GraphTopology(Topology):
    """A topology backed by an undirected switch/host graph.

    ``graph`` is any object with networkx-style ``nodes``/``adj`` mappings
    (a :class:`~repro.cluster.graph.Graph` or a ``networkx.Graph``); the
    topology keeps its own :class:`~repro.cluster.graph.Graph` copy, in
    the same node and neighbour orders, as ``self.graph``.  Hosts are
    graph vertices flagged with ``kind='host'`` and a ``rack`` attribute;
    everything else is a switch.  Every edge carries a ``capacity``
    attribute in bytes/s.  Shortest-path routes (hop-count metric) are
    computed once per pair and cached.  On a tree each is the unique path,
    read off :meth:`up_chains` (link ids are read afresh per call, with no
    cache); elsewhere it is the bidirectional BFS of
    :meth:`Graph.shortest_path <repro.cluster.graph.Graph.shortest_path>`,
    whose tie-break is stable for a fixed construction order.
    """

    def __init__(self, graph: GraphLike) -> None:
        self.graph = graph = Graph.of(graph)
        self.hosts = sorted(
            (n for n, d in graph.nodes.items() if d.get("kind") == "host"),
            key=str,
        )
        if not self.hosts:
            raise ValueError("topology has no hosts")
        for u, v in graph.edges():
            d = graph.adj[u][v]
            if "capacity" not in d or d["capacity"] <= 0:
                raise ValueError(f"edge {u!r}-{v!r} lacks a positive capacity")
        self._host_index = {h: i for i, h in enumerate(self.hosts)}
        self._routes: Dict[Tuple[str, str], List[LinkKey]] = {}
        self._hops: Optional[np.ndarray] = None
        self._chains: Optional[UpChains] = None
        self._chains_known = False
        self._walks: Optional[_TreeWalks] = None

    # -- interface ------------------------------------------------------
    def rack_of(self, host: str) -> str:
        return self.graph.nodes[host].get("rack", "rack0")

    def hop_matrix(self) -> np.ndarray:
        if self._hops is None:
            k = len(self.hosts)
            hops = np.zeros((k, k), dtype=np.int64)
            # one BFS per host over the switch fabric
            for a, src in enumerate(self.hosts):
                lengths = bfs(self.graph.adj, src)[0]
                try:
                    for b, dst in enumerate(self.hosts):
                        hops[a, b] = lengths[dst]
                except KeyError:
                    raise ValueError(
                        f"topology graph is disconnected: host {dst!r} "
                        f"is unreachable from host {src!r}"
                    ) from None
            self._hops = hops
        return self._hops

    def route(self, src: str, dst: str) -> List[LinkKey]:
        if src == dst:
            return []
        key = (src, dst)
        cached = self._routes.get(key)
        if cached is None:
            ids = self._tree_route(src, dst)
            if ids is None:
                path = self.graph.shortest_path(src, dst)
                cached = [_canon(u, v) for u, v in zip(path[:-1], path[1:])]
            else:
                cached = self.link_keys(ids)
            self._routes[key] = cached
            # a path is symmetric; cache the reverse too
            self._routes[(dst, src)] = list(reversed(cached))
        return cached

    def route_ids(self, src: str, dst: str) -> np.ndarray:
        if src == dst:
            return _NO_LINKS
        ids = self._tree_route(src, dst)
        if ids is None:
            return self.link_ids(GraphTopology.route(self, src, dst))
        return np.array(ids, dtype=np.int64)

    def _tree_walks(self) -> Optional[_TreeWalks]:
        """Per-host rows of :meth:`up_chains` as lists; None off trees.
        Built once."""
        if self._walks is None:
            chains = self.up_chains()
            if chains is None:
                return None
            pad = len(self.link_table())
            self._walks = (
                chains.ancestors.T.tolist(),
                [
                    row[: 1 + sum(i != pad for i in row)]
                    for row in chains.link_ids.T.tolist()
                ],
            )
        return self._walks

    def _tree_route(self, src: str, dst: str) -> Optional[List[int]]:
        """Link ids of the unique tree path from host ``src`` to host
        ``dst``: up ``src``'s chain to the level below the two chains'
        meeting point, then down ``dst``'s.  None off trees or when an end
        is not a host; the ends must differ."""
        walks = self._tree_walks()
        a = self._host_index.get(src)
        b = self._host_index.get(dst)
        if walks is None or a is None or b is None:
            return None
        up, ids = walks
        ua, ub = up[a], up[b]
        level = 1
        # two hosts' chains differ by the deeper one's own level at the
        # latest (past its level a column holds host-specific padding)
        while ua[level] == ub[level]:
            level += 1
        return ids[a][: level - 1 : -1] + ids[b][level:]

    def link_capacity(self, link: LinkKey) -> float:
        u, v = link
        return self.graph.adj[u][v]["capacity"]

    def links(self) -> Iterable[LinkKey]:
        return (_canon(u, v) for u, v in self.graph.edges())

    def host_components(self, down: Collection[LinkKey]) -> List[Set[str]]:
        """Connected components of the graph minus the ``down`` links,
        restricted to hosts, in order of each component's first node."""
        hosts = set(self.hosts)
        comps = (c & hosts for c in components(self.graph.adjacency(down)))
        return [c for c in comps if c]

    def route_tensor(self) -> np.ndarray:
        """Route link ids from one BFS per host, not one search per pair.

        Each host's BFS records every vertex's parent node and parent link
        plus its shortest-path count capped at 2.  A pair joined by exactly
        one shortest path has the route any shortest-path search returns,
        so its row is read off the parent arrays: one gather per hop over
        all ``k × k`` pairs at once.  Only pairs with several shortest
        paths ask :meth:`route`, which keeps the tie-break.
        """
        # raises on unreachable hosts, so every walk below ends at its source
        depth = max(1, int(self.hop_matrix().max()))
        graph = self.graph.adj
        nodes = list(graph)
        index = {v: i for i, v in enumerate(nodes)}
        lid = self.link_table()
        pad = len(lid)
        adj = [
            [(index[v], lid[_canon(u, v)]) for v in graph[u]] for u in nodes
        ]
        hosts = self.hosts
        k = len(hosts)
        n = len(nodes)
        starts = [index[h] for h in hosts]
        parent = np.empty((k, n), dtype=np.int64)
        parent_link = np.empty((k, n), dtype=np.int64)
        npaths = np.empty((k, n), dtype=np.int8)
        for a, s in enumerate(starts):
            dist = [-1] * n
            count = [0] * n
            par = list(range(n))
            plink = [pad] * n
            dist[s] = 0
            count[s] = 1
            queue = [s]
            for u in queue:
                du = dist[u] + 1
                cu = count[u]
                for v, e in adj[u]:
                    dv = dist[v]
                    if dv < 0:
                        dist[v] = du
                        count[v] = cu
                        par[v] = u
                        plink[v] = e
                        queue.append(v)
                    elif dv == du:
                        count[v] = 2  # both counts are >= 1: capped sum
            parent[a] = par
            parent_link[a] = plink
            npaths[a] = count
        tensor = np.empty((k, k, depth), dtype=np.int64)
        rows = np.arange(k)[:, None]
        cur = np.broadcast_to(np.asarray(starts, dtype=np.int64), (k, k))
        # walking past the source stays there on the padding link
        for hop in range(depth):
            tensor[:, :, hop] = parent_link[rows, cur]
            cur = parent[rows, cur]
        for a, b in zip(*np.nonzero(np.triu(npaths[:, starts] != 1, 1))):
            ids = self.route_ids(hosts[a], hosts[b])
            tensor[a, b] = pad
            tensor[a, b, : len(ids)] = ids
            tensor[b, a] = tensor[a, b]
        return tensor

    def up_chains(self) -> Optional[UpChains]:
        """Each host's chain of ancestors and links up to one root.

        Only a tree qualifies (:meth:`Graph.is_tree
        <repro.cluster.graph.Graph.is_tree>`): there every route is the
        unique path, up from one host to the two hosts' lowest common
        ancestor and down to the other.  The root is the middle of a
        longest path, which keeps the chains short.  Built once; the
        chains never change.
        """
        if not self._chains_known:
            self._chains_known = True
            if self.graph.is_tree():
                self._chains = self._build_up_chains()
        return self._chains

    def _build_up_chains(self) -> UpChains:
        adj = self.graph.adj
        far = bfs(adj, self.hosts[0])[0]
        u = max(far, key=far.get)
        far, toward_u = bfs(adj, u)
        diameter = [max(far, key=far.get)]
        while diameter[-1] != u:
            diameter.append(toward_u[diameter[-1]])
        diameter.reverse()
        root = diameter[len(diameter) // 2]
        parent = bfs(adj, root)[1]
        vertex = {v: i for i, v in enumerate(adj)}
        lid = self.link_table()
        chains = []
        for host in self.hosts:
            chain = [host]
            while chain[-1] != root:
                chain.append(parent[chain[-1]])
            chain.reverse()
            chains.append(chain)
        depth = max(len(chain) for chain in chains) - 1
        k = len(chains)
        ancestors = np.empty((depth + 1, k), dtype=np.int64)
        link_ids = np.full((depth + 1, k), len(lid), dtype=np.int64)
        for a, chain in enumerate(chains):
            ancestors[:, a] = -(a + 1)
            ancestors[: len(chain), a] = [vertex[v] for v in chain]
            for level in range(1, len(chain)):
                link_ids[level, a] = lid[_canon(chain[level - 1], chain[level])]
        return UpChains(ancestors, link_ids)


class MatrixTopology(Topology):
    """A topology given directly as a hop matrix, per the paper's Figure 2.

    Each host pair gets a *dedicated* pipe (no cross-flow contention) whose
    capacity is ``base_capacity / max(hops, 1)`` unless an explicit capacity
    matrix is supplied.  This is the right abstraction for unit-testing the
    cost model against the paper's worked example, where ``H`` is data, not
    derived from a switch graph.
    """

    def __init__(
        self,
        hops: Sequence[Sequence[float]],
        *,
        host_names: Optional[Sequence[str]] = None,
        racks: Optional[Sequence[str]] = None,
        base_capacity: float = 1.0 * Gbps,
        capacities: Optional[Sequence[Sequence[float]]] = None,
    ) -> None:
        h = np.asarray(hops, dtype=np.float64)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError(f"hop matrix must be square, got {h.shape}")
        if not np.allclose(h, h.T):
            raise ValueError("hop matrix must be symmetric")
        if np.any(np.diag(h) != 0):
            raise ValueError("hop matrix diagonal must be zero")
        if np.any(h < 0):
            raise ValueError("hop matrix entries must be non-negative")
        k = h.shape[0]
        self._h = h
        self.hosts = list(host_names) if host_names else [f"D{i + 1}" for i in range(k)]
        if len(self.hosts) != k:
            raise ValueError("host_names length must match matrix size")
        self._racks = list(racks) if racks else ["rack0"] * k
        if len(self._racks) != k:
            raise ValueError("racks length must match matrix size")
        self._host_index = {h_: i for i, h_ in enumerate(self.hosts)}
        if capacities is not None:
            cap = np.asarray(capacities, dtype=np.float64)
            if cap.shape != h.shape:
                raise ValueError("capacity matrix shape mismatch")
            self._cap = cap
        else:
            with np.errstate(divide="ignore"):
                self._cap = base_capacity / np.maximum(h, 1.0)

    def rack_of(self, host: str) -> str:
        return self._racks[self._host_index[host]]

    def hop_matrix(self) -> np.ndarray:
        return self._h

    def route(self, src: str, dst: str) -> List[LinkKey]:
        if src == dst:
            return []
        return [_canon(src, dst)]

    def link_capacity(self, link: LinkKey) -> float:
        u, v = link
        return float(self._cap[self._host_index[u], self._host_index[v]])

    def links(self) -> Iterable[LinkKey]:
        k = len(self.hosts)
        for a in range(k):
            for b in range(a + 1, k):
                yield _canon(self.hosts[a], self.hosts[b])


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------
def rack_topology(
    num_racks: int,
    nodes_per_rack: int,
    *,
    host_link: float = 10.0 * Gbps,
    tor_uplink: float = 40.0 * Gbps,
    name_prefix: str = "r",
) -> GraphTopology:
    """The Palmetto-style tree: hosts — ToR switches — one core switch.

    Matches the testbed description in Section III: every node connects to
    its top-of-rack switch; ToR switches uplink to the core.  Hop counts are
    0 (same node), 2 (same rack) and 4 (cross-rack).
    """
    if num_racks < 1 or nodes_per_rack < 1:
        raise ValueError("need at least one rack and one node per rack")
    g = Graph()
    core = "core"
    if num_racks > 1:
        g.add_node(core, kind="switch")
    for r in range(num_racks):
        rack = f"rack{r}"
        tor = f"tor{r}"
        g.add_node(tor, kind="switch")
        if num_racks > 1:
            g.add_edge(tor, core, capacity=tor_uplink)
        for n in range(nodes_per_rack):
            host = f"{name_prefix}{r}n{n}"
            g.add_node(host, kind="host", rack=rack)
            g.add_edge(host, tor, capacity=host_link)
    return GraphTopology(g)


def star_topology(
    num_hosts: int,
    *,
    host_link: float = 10.0 * Gbps,
) -> GraphTopology:
    """All hosts hang off a single switch (one rack).  Hops: 0 or 2."""
    return rack_topology(1, num_hosts, host_link=host_link)


def fat_tree_graph(
    k: int,
    *,
    host_link: float = 10.0 * Gbps,
    fabric_link: Optional[float] = None,
) -> Graph:
    """The raw graph of a k-ary fat-tree with ``k^3 / 4`` hosts.

    ``k`` must be even.  Pods contain ``k/2`` edge and ``k/2`` aggregation
    switches; there are ``(k/2)^2`` core switches.  ``fabric_link`` is the
    capacity of the edge→agg and agg→core links (defaults to ``host_link``,
    i.e. a full-bisection fabric).
    """
    if k < 2 or k % 2 != 0:
        raise ValueError("fat-tree degree k must be an even integer >= 2")
    if fabric_link is None:
        fabric_link = host_link
    half = k // 2
    g = Graph()
    # core switches, indexed (i, j) in a half x half grid
    cores = [[f"core{i}_{j}" for j in range(half)] for i in range(half)]
    for row in cores:
        for c in row:
            g.add_node(c, kind="switch")
    for pod in range(k):
        aggs = [f"agg{pod}_{a}" for a in range(half)]
        edges = [f"edge{pod}_{e}" for e in range(half)]
        for a, agg in enumerate(aggs):
            g.add_node(agg, kind="switch")
            for j in range(half):
                g.add_edge(agg, cores[a][j], capacity=fabric_link)
        for e, edge in enumerate(edges):
            g.add_node(edge, kind="switch", rack=f"pod{pod}_edge{e}")
            for agg in aggs:
                g.add_edge(edge, agg, capacity=fabric_link)
            for h in range(half):
                host = f"h{pod}_{e}_{h}"
                g.add_node(host, kind="host", rack=f"pod{pod}_edge{e}")
                g.add_edge(host, edge, capacity=host_link)
    return g


def fat_tree_topology(k: int, *, link: float = 10.0 * Gbps) -> GraphTopology:
    """A classic k-ary fat-tree with ``k^3 / 4`` hosts and single-path routes.

    Every host's rack label is its edge switch, matching the locality
    granularity Hadoop uses.  For the multi-path / re-routing variant see
    :func:`repro.cluster.topologies.clos_topology`.
    """
    return GraphTopology(fat_tree_graph(k, host_link=link))


def paper_example_topology() -> MatrixTopology:
    """The 4-node distance matrix of the paper's Figure 2 worked example."""
    h = [
        [0, 4, 2, 8],
        [4, 0, 10, 2],
        [2, 10, 0, 6],
        [8, 2, 6, 0],
    ]
    return MatrixTopology(h, host_names=["D1", "D2", "D3", "D4"])
