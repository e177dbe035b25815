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
to pick one path.  A BFS records each node's distance and shortest-path
count toward ``dst`` over a name-sorted adjacency; path ``h`` is *unranked*
by walking from ``src``, trying the one-hop-closer neighbours in name order
and subtracting each one's count until ``h`` fits.  That is exactly entry
``h`` of the full shortest-path enumeration (networkx's
``all_shortest_paths``) sorted, with
``n = count[src]``, at O(hops × degree) per flow after the BFS.  A ``dst``
with one live neighbour — a host on its edge switch — shares that
neighbour's record, whose counts are its own, so there is one BFS per
attachment switch (plus one per multi-homed destination) and routing
version.  The records and the adjacency are nominal and kept for good
under ``static``/``ecmp``, and dropped on every routing change under
``linkstate``.

Known wart: a pair's order follows whichever direction was queried first
(since the last routing change, under ``linkstate``), and the other
direction gets the same paths reversed, in the same order — which need not
be its own sorted order.  Data-plane reads such as
``FlowNetwork.pair_blocked`` call :meth:`route` and so fix the orientation
too.  Making the order canonical changes traces and is left to its own
change.

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
        # name-sorted adjacency of the routing graph and, per BFS root (a
        # destination, or the one live neighbour of a single-homed one),
        # (distance, shortest-path count) toward it.  Nominal and kept for
        # good under ``static``/``ecmp``; dropped on every routing-table
        # change under ``linkstate``, with the orientation memo.
        self._adj: Optional[Dict[str, List[str]]] = None
        self._toward: Dict[str, Tuple[Dict[str, int], Dict[str, int]]] = {}
        #: BFS records built so far (a work counter; never reset)
        self.bfs_runs = 0
        # the first-queried (src, dst) orientation of each unordered pair
        self._first: Set[Tuple[str, str]] = set()
        # last advertised route per pair — the partitioned sentinel.
        self._advertised: Dict[Tuple[str, str], List[LinkKey]] = {}

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
    def _record(self, dst: str) -> Tuple[str, Dict[str, int], Dict[str, int]]:
        """``(root, dist, count)``: BFS distance and shortest-path count of
        each node toward ``root``, which stands in for ``dst``.

        A ``dst`` with exactly one live neighbour ``e`` (a host on its
        attachment switch) is reached only through ``e``, so for every
        other node ``v``, ``dist_dst(v) = dist_e(v) + 1`` and
        ``count_dst(v) = count_e(v)``: ``root`` is ``e``, whose record
        every host on it shares.  Any other ``dst`` is its own root.
        """
        adj = self._adj
        if adj is None:
            down = self.down_links if self.routing == "linkstate" else ()
            adj = self._adj = {
                u: sorted(nbrs) for u, nbrs in self.graph.adjacency(down).items()
            }
        nbrs = adj[dst]
        root = nbrs[0] if len(nbrs) == 1 else dst
        rec = self._toward.get(root)
        if rec is None:
            self.bfs_runs += 1
            dist = {root: 0}
            count = {root: 1}
            queue = [root]
            for u in queue:
                du = dist[u] + 1
                cu = count[u]
                for v in adj[u]:
                    dv = dist.get(v)
                    if dv is None:
                        dist[v] = du
                        count[v] = cu
                        queue.append(v)
                    elif dv == du:
                        count[v] += cu
            rec = self._toward[root] = (dist, count)
        return (root, *rec)

    def _oriented(self, src: str, dst: str) -> Tuple[str, str, int]:
        """The pair's ranking orientation ``(a, b)`` and its path count.

        ``(a, b)`` is whichever of ``src → dst`` and ``dst → src`` was
        queried first since the last routing change; the count is 0 when
        the pair is partitioned, equal or unknown.
        """
        nodes = self.graph.nodes
        if src == dst or src not in nodes or dst not in nodes:
            return src, dst, 0
        if (dst, src) in self._first:
            src, dst = dst, src
        else:
            self._first.add((src, dst))
        return src, dst, self._record(dst)[2].get(src, 0)

    def _unrank(self, a: str, b: str, h: int, src: str) -> List[LinkKey]:
        """Path ``h`` of the sorted ``a → b`` equal-cost list, from ``src``.

        At each hop take the first name-ordered neighbour one hop closer to
        ``b`` whose path count exceeds what is left of ``h``, subtracting
        the counts skipped over.  Toward a shared root, the walk ends at
        the root and the last hop is the root's link to ``b``.
        """
        root, dist, count = self._record(b)
        adj = self._adj
        path = []
        u = a
        d = dist[a]
        while d:
            d -= 1
            for v in adj[u]:
                if dist.get(v) == d:
                    c = count[v]
                    if h < c:
                        break
                    h -= c
            path.append(_canon(u, v))
            u = v
        if root != b:
            path.append(_canon(root, b))
        if a != src:
            path.reverse()
        return path

    def equal_cost_paths(self, src: str, dst: str) -> List[List[LinkKey]]:
        """All equal-cost shortest paths, deterministically ordered.

        Computed on the nominal graph for ``static``/``ecmp`` and on the
        live graph for ``linkstate``.  Empty when the pair is partitioned.
        """
        a, b, n = self._oriented(src, dst)
        return [self._unrank(a, b, h, src) for h in range(n)]

    def route(self, src: str, dst: str) -> List[LinkKey]:
        """Representative route for the pair (the first equal-cost path).

        This is what rate estimation (``rate_matrix``/``path_rate``) sees;
        individual flows spread over the full set via
        :meth:`route_for_flow`.  A partitioned pair keeps its last
        advertised route, which crosses a down link by construction.
        """
        if self.routing == "static":
            return super().route(src, dst)
        if src == dst:
            return []
        a, b, n = self._oriented(src, dst)
        if not n:
            stale = self._advertised.get((src, dst))
            # a pair that never routed falls back to the nominal path; with
            # no live path every nominal route crosses a down link too.
            return stale if stale is not None else super().route(src, dst)
        path = self._advertised[(src, dst)] = self._unrank(a, b, 0, src)
        return path

    def route_tensor(self) -> np.ndarray:
        """BFS tensor under ``static``; the per-pair reference otherwise."""
        if self.routing == "static":
            return super().route_tensor()
        return Topology.route_tensor(self)

    def route_for_flow(self, src: str, dst: str, fid: int) -> List[LinkKey]:
        if self.routing == "static" or src == dst:
            return self.route(src, dst)
        a, b, n = self._oriented(src, dst)
        if not n:
            return self.route(src, dst)  # partitioned sentinel
        h = zlib.crc32(f"{src}|{dst}|{fid}".encode()) % n if n > 1 else 0
        return self._unrank(a, b, h, src)


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
