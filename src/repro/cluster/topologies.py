"""Multi-path fabrics: equal-cost routing, link-state tables and Clos builders.

:mod:`repro.cluster.topology` models one static oracle route per host pair.
This module adds the fabric the robustness story needs:

* :class:`FabricTopology` — a :class:`~repro.cluster.topology.GraphTopology`
  that routes over **all** equal-cost shortest paths per pair and selects
  among them per flow.  Three routing policies:

  - ``static`` — delegate to the base class (single nominal shortest path).
    Byte-identical to a plain :class:`GraphTopology` on the same graph,
    including its one-BFS-per-host ``route_tensor()``.
  - ``ecmp`` — deterministic hash of the flow id over the *nominal*
    equal-cost set.  Spreads load but never reacts to failures.
  - ``linkstate`` — ECMP over the *live* equal-cost set.  The routing table
    is versioned (``route_version``); the control plane
    (:class:`repro.cluster.routing.RoutingController`) marks links down/up
    after its convergence delay, which bumps the version and invalidates
    both the fabric's own path records and the route tensor behind
    ``rate_matrix()`` downstream.

  Under ``ecmp``/``linkstate`` ``route_tensor()`` is the per-pair
  :meth:`~repro.cluster.topology.Topology.route_tensor` loop, because
  :meth:`FabricTopology.route` reads the live graph and records the
  partitioned sentinel for every pair it answers.

* :func:`clos_topology` — the k-ary fat-tree as a multi-rooted Clos fabric
  with a configurable oversubscription factor (1.0 = full bisection).

Path selection is deterministic: a pair's candidates are its equal-cost
shortest paths sorted by node-name sequence, and ECMP picks number
``crc32(f"{src}|{dst}|{fid}") % n`` — a pure function of the (seeded) flow
id, so same-seed runs stay byte-identical.  The list is never enumerated
to pick one path.  A BFS records each vertex's distance and shortest-path
count toward ``dst`` over a name-sorted adjacency; path ``h`` is *unranked*
by walking from ``src``, trying the one-hop-closer neighbours in name order
and subtracting each one's count until ``h`` fits.  That is exactly entry
``h`` of the full shortest-path enumeration (networkx's
``all_shortest_paths``) sorted, with
``n = count[src]``, at O(hops × degree) per flow after the BFS.  A ``dst``
with one live neighbour — a host on its edge switch — shares that
neighbour's record, whose counts are its own, so there is one BFS per
attachment switch (plus one per multi-homed destination) and routing
version.  Records are lists over vertex numbers, the adjacency holds
name-sorted ``(vertex, link id)`` pairs built once from the nominal graph,
and the walk appends link ids, so a route is picked without building a
link key.  Under ``static``/``ecmp`` the records are kept for good; under
``linkstate`` the live adjacency is the nominal one minus the down link
ids, and it and the records are dropped on every routing change.

Known wart: a pair's order follows whichever direction was queried first
(since the last routing change, under ``linkstate``), and the other
direction gets the same paths reversed, in the same order — which need not
be its own sorted order.  Data-plane reads such as
``FlowNetwork.pair_blocked`` call :meth:`FabricTopology.route_ids` and so
fix the orientation too.  Making the order canonical changes traces and is
left to its own change.

When a pair has **no** live path the fabric keeps the last advertised route
as a *partitioned sentinel*: that route necessarily crosses a down link, so
flows placed on it sit at rate zero until the fabric heals — interfaces stay
total and byte conservation is untouched.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.units import Gbps

from repro.cluster.graph import GraphLike
from repro.cluster.topology import (
    _NO_LINKS,
    GraphTopology,
    LinkKey,
    Topology,
    _canon,
    fat_tree_graph,
)

__all__ = [
    "ROUTING_POLICIES",
    "FabricTopology",
    "clos_topology",
]

#: Closed set of fabric routing policies.
ROUTING_POLICIES = ("static", "ecmp", "linkstate")

#: a BFS record as read: (link id into the destination, or -1;
#: distance by vertex; shortest-path count by vertex)
_Record = Tuple[int, List[int], List[int]]


class FabricTopology(GraphTopology):
    """A graph topology with equal-cost multi-path routing and a live view.

    The *nominal* graph never changes; link failures are overlaid as a set
    of down links (a failed switch is modelled as all of its incident links
    going down, which is equivalent for connectivity).  ``route_version``
    increments on every routing-table change so downstream caches (the
    route tensor behind ``FlowNetwork.rate_matrix``) can detect staleness
    cheaply.
    """

    def __init__(self, graph: GraphLike, *, routing: str = "linkstate") -> None:
        super().__init__(graph)
        if routing not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {routing!r}; expected one of {ROUTING_POLICIES}"
            )
        self.routing = routing
        #: Monotone routing-table version; bumped on every mark_link_* call.
        self.route_version = 0
        self.down_links: Set[LinkKey] = set()
        # vertex numbers in graph order; each vertex's name-sorted
        # (vertex, link id) neighbours, nominal and live; per BFS root
        # vertex (a destination, or the one live neighbour of a
        # single-homed one) every vertex's distance and shortest-path
        # count toward it (-1 and 0 when unreached).
        self._vertex = {v: i for i, v in enumerate(self.graph.adj)}
        self._nominal_adj: Optional[List[List[Tuple[int, int]]]] = None
        self._adj: Optional[List[List[Tuple[int, int]]]] = None
        self._toward: Dict[int, Tuple[List[int], List[int]]] = {}
        #: BFS records built so far (a work counter; never reset)
        self.bfs_runs = 0
        # the first-queried (src, dst) vertex orientation of each pair
        self._first: Set[Tuple[int, int]] = set()
        # last advertised route ids per pair — the partitioned sentinel.
        self._advertised: Dict[Tuple[str, str], np.ndarray] = {}

    # -- control-plane interface ---------------------------------------
    def mark_link_down(self, link: LinkKey) -> bool:
        """Remove ``link`` from the routing tables.  Returns True if new."""
        link = _canon(*link)
        if link in self.down_links:
            return False
        if not self.graph.has_edge(*link):
            raise ValueError(f"unknown link {link!r}")
        self.down_links.add(link)
        self._bump()
        return True

    def mark_link_up(self, link: LinkKey) -> bool:
        """Restore ``link``.  Returns True if it was down."""
        link = _canon(*link)
        if link not in self.down_links:
            return False
        self.down_links.discard(link)
        self._bump()
        return True

    def _bump(self) -> None:
        self.route_version += 1
        if self.routing == "linkstate":
            self._adj = None
            self._toward.clear()
            self._first.clear()

    def partitioned_pairs(self) -> int:
        """Number of unordered host pairs with no live path."""
        comps = self.host_components(self.down_links)
        n = len(self.hosts)
        connected = sum(len(c) * (len(c) - 1) // 2 for c in comps)
        return n * (n - 1) // 2 - connected

    # -- routing --------------------------------------------------------
    def _routing_adjacency(self) -> List[List[Tuple[int, int]]]:
        """Each vertex's live ``(vertex, link id)`` neighbours, by name."""
        nominal = self._nominal_adj
        if nominal is None:
            adj, vertex = self.graph.adj, self._vertex
            table = self.link_table()
            nominal = self._nominal_adj = [
                [(vertex[v], table[_canon(u, v)]) for v in sorted(adj[u])]
                for u in adj
            ]
        if self.routing != "linkstate" or not self.down_links:
            return nominal
        down = {self.link_table()[link] for link in self.down_links}
        return [[(v, e) for v, e in nbrs if e not in down] for nbrs in nominal]

    def _record(self, dst: int) -> _Record:
        """``(link, dist, count)``: BFS distance and shortest-path count of
        each vertex toward a root that stands in for ``dst``.

        A ``dst`` with exactly one live neighbour ``e`` (a host on its
        attachment switch) is reached only through ``e``, so for every
        other vertex ``v``, ``dist_dst(v) = dist_e(v) + 1`` and
        ``count_dst(v) = count_e(v)``: the root is ``e``, whose record
        every host on it shares, and ``link`` is the id of the link from
        ``e`` to ``dst``.  Any other ``dst`` is its own root (``link`` -1).
        """
        adj = self._adj
        if adj is None:
            adj = self._adj = self._routing_adjacency()
        nbrs = adj[dst]
        root, link = nbrs[0] if len(nbrs) == 1 else (dst, -1)
        rec = self._toward.get(root)
        if rec is None:
            self.bfs_runs += 1
            dist = [-1] * len(adj)
            count = [0] * len(adj)
            dist[root] = 0
            count[root] = 1
            queue = [root]
            for u in queue:
                du = dist[u] + 1
                cu = count[u]
                for v, _ in adj[u]:
                    dv = dist[v]
                    if dv < 0:
                        dist[v] = du
                        count[v] = cu
                        queue.append(v)
                    elif dv == du:
                        count[v] += cu
            rec = self._toward[root] = (dist, count)
        return (link, *rec)

    def _oriented(
        self, src: str, dst: str
    ) -> Tuple[int, int, bool, Optional[_Record]]:
        """``(a, n, forward, rec)``: the pair's ranking source vertex, its
        path count, whether ``a`` is ``src``, and the record toward the
        other end.

        The ranking orientation is whichever of ``src → dst`` and
        ``dst → src`` was queried first since the last routing change; the
        count is 0 (and ``rec`` None when no record is read) when the pair
        is partitioned, equal or unknown.
        """
        a = self._vertex.get(src)
        b = self._vertex.get(dst)
        if a is None or b is None or a == b:
            return -1, 0, True, None
        forward = (b, a) not in self._first
        if forward:
            self._first.add((a, b))
        else:
            a, b = b, a
        rec = self._record(b)
        return a, rec[2][a], forward, rec

    def _unrank(
        self, a: int, h: int, forward: bool, rec: _Record
    ) -> List[int]:
        """Link ids of path ``h`` of the sorted equal-cost list from ``a``
        toward ``rec``'s destination, reversed unless ``forward``.

        At each hop take the first name-ordered neighbour one hop closer
        whose path count exceeds what is left of ``h``, subtracting the
        counts skipped over.  Toward a shared root, the walk ends at the
        root and the last hop is the root's link to the destination.
        """
        link, dist, count = rec
        adj = self._adj
        path = []
        u = a
        d = dist[a]
        while d:
            d -= 1
            for v, e in adj[u]:
                if dist[v] == d:
                    c = count[v]
                    if h < c:
                        break
                    h -= c
            path.append(e)
            u = v
        if link >= 0:
            path.append(link)
        if not forward:
            path.reverse()
        return path

    def equal_cost_paths(self, src: str, dst: str) -> List[List[LinkKey]]:
        """All equal-cost shortest paths, deterministically ordered.

        Computed on the nominal graph for ``static``/``ecmp`` and on the
        live graph for ``linkstate``.  Empty when the pair is partitioned.
        """
        a, n, forward, rec = self._oriented(src, dst)
        return [
            self.link_keys(self._unrank(a, h, forward, rec)) for h in range(n)
        ]

    def route(self, src: str, dst: str) -> List[LinkKey]:
        """:meth:`route_ids` as link keys."""
        if self.routing == "static":
            return super().route(src, dst)
        return self.link_keys(self.route_ids(src, dst))

    def route_ids(self, src: str, dst: str) -> np.ndarray:
        """Representative route for the pair (the first equal-cost path).

        This is what rate estimation (``rate_matrix``/``path_rate``) sees;
        individual flows spread over the full set via
        :meth:`route_ids_for_flow`.  A partitioned pair keeps its last
        advertised route, which crosses a down link by construction.
        """
        if self.routing == "static":
            return super().route_ids(src, dst)
        if src == dst:
            return _NO_LINKS
        a, n, forward, rec = self._oriented(src, dst)
        if not n:
            stale = self._advertised.get((src, dst))
            # a pair that never routed falls back to the nominal path; with
            # no live path every nominal route crosses a down link too.
            return stale if stale is not None else super().route_ids(src, dst)
        ids = self._advertised[(src, dst)] = np.array(
            self._unrank(a, 0, forward, rec), dtype=np.int64
        )
        return ids

    def route_tensor(self) -> np.ndarray:
        """BFS tensor under ``static``; the per-pair reference otherwise."""
        if self.routing == "static":
            return super().route_tensor()
        return Topology.route_tensor(self)

    def route_ids_for_flow(self, src: str, dst: str, fid: int) -> np.ndarray:
        if self.routing == "static" or src == dst:
            return self.route_ids(src, dst)
        a, n, forward, rec = self._oriented(src, dst)
        if not n:
            return self.route_ids(src, dst)  # partitioned sentinel
        h = zlib.crc32(f"{src}|{dst}|{fid}".encode()) % n if n > 1 else 0
        return np.array(self._unrank(a, h, forward, rec), dtype=np.int64)


def clos_topology(
    k: int,
    *,
    oversubscription: float = 1.0,
    link: float = 10.0 * Gbps,
    routing: str = "linkstate",
) -> FabricTopology:
    """A k-ary fat-tree as a multi-rooted Clos fabric.

    ``k^3/4`` hosts; inter-pod pairs see ``(k/2)^2`` equal-cost paths and
    same-pod cross-edge pairs ``k/2``.  ``oversubscription`` thins the
    fabric (edge→agg and agg→core) links by that factor: 1.0 is full
    bisection bandwidth, 4.0 the classic 4:1 oversubscribed datacentre.

    With ``routing="static"`` and ``oversubscription=1.0`` the result is
    graph-identical to :func:`repro.cluster.topology.fat_tree_topology` and
    runs byte-identically to it.
    """
    if not oversubscription >= 1.0:
        raise ValueError("oversubscription factor must be >= 1.0")
    g = fat_tree_graph(k, host_link=link, fabric_link=link / oversubscription)
    return FabricTopology(g, routing=routing)
