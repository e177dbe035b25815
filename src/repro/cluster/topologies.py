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
to pick one path.  One BFS per destination and routing version records each
node's distance and shortest-path count toward ``dst`` over a name-sorted
adjacency; path ``h`` is *unranked* by walking from ``src``, trying the
one-hop-closer neighbours in name order and subtracting each one's count
until ``h`` fits.  That is exactly entry ``h`` of networkx's full
shortest-path enumeration sorted, with ``n = count[src]``, at O(hops ×
degree) per flow after the BFS.  The records and the adjacency are nominal
and kept for good under ``static``/``ecmp``, and dropped on every routing
change under ``linkstate``.

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

import networkx as nx
import numpy as np

from repro.units import Gbps

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

    def __init__(self, graph: nx.Graph, *, routing: str = "linkstate") -> None:
        super().__init__(graph)
        if routing not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {routing!r}; expected one of {ROUTING_POLICIES}"
            )
        self.routing = routing
        #: Monotone routing-table version; bumped on every mark_link_* call.
        self.route_version = 0
        self.down_links: Set[LinkKey] = set()
        self._live: Optional[nx.Graph] = None
        # name-sorted adjacency of the routing graph and, per destination,
        # (distance, shortest-path count) toward it.  Nominal and kept for
        # good under ``static``/``ecmp``; dropped on every routing-table
        # change under ``linkstate``, with the orientation memo.
        self._adj: Optional[Dict[str, List[str]]] = None
        self._toward: Dict[str, Tuple[Dict[str, int], Dict[str, int]]] = {}
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
        if link not in self.graph.edges:
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
        self._live = None
        if self.routing == "linkstate":
            self._adj = None
            self._toward.clear()
            self._first.clear()

    @property
    def live_graph(self) -> nx.Graph:
        """The nominal graph minus the currently down links."""
        if not self.down_links:
            return self.graph
        if self._live is None:
            g = self.graph.copy()
            g.remove_edges_from(self.down_links)
            self._live = g
        return self._live

    def host_components(self) -> List[Set[str]]:
        """Connected components of the live graph, restricted to hosts."""
        comps = []
        host_set = set(self.hosts)
        for comp in nx.connected_components(self.live_graph):
            hosts = comp & host_set
            if hosts:
                comps.append(hosts)
        return comps

    def partitioned_pairs(self) -> int:
        """Number of unordered host pairs with no live path."""
        comps = self.host_components()
        n = len(self.hosts)
        connected = sum(len(c) * (len(c) - 1) // 2 for c in comps)
        return n * (n - 1) // 2 - connected

    # -- routing --------------------------------------------------------
    def _counts(self, dst: str) -> Tuple[Dict[str, int], Dict[str, int]]:
        """BFS distance and shortest-path count of each node toward ``dst``."""
        rec = self._toward.get(dst)
        if rec is None:
            adj = self._adj
            if adj is None:
                live = self.routing == "linkstate"
                g = self.live_graph if live else self.graph
                adj = self._adj = {u: sorted(g[u]) for u in g}
            dist = {dst: 0}
            count = {dst: 1}
            queue = [dst]
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
            rec = self._toward[dst] = (dist, count)
        return rec

    def _oriented(self, src: str, dst: str) -> Tuple[str, str, int]:
        """The pair's ranking orientation ``(a, b)`` and its path count.

        ``(a, b)`` is whichever of ``src → dst`` and ``dst → src`` was
        queried first since the last routing change; the count is 0 when
        the pair is partitioned, equal or unknown.
        """
        if src == dst or src not in self.graph or dst not in self.graph:
            return src, dst, 0
        if (dst, src) in self._first:
            src, dst = dst, src
        else:
            self._first.add((src, dst))
        return src, dst, self._counts(dst)[1].get(src, 0)

    def _unrank(self, a: str, b: str, h: int, src: str) -> List[LinkKey]:
        """Path ``h`` of the sorted ``a → b`` equal-cost list, from ``src``.

        At each hop take the first name-ordered neighbour one hop closer to
        ``b`` whose path count exceeds what is left of ``h``, subtracting
        the counts skipped over.
        """
        dist, count = self._counts(b)
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

    def route_tensor(self) -> Tuple[np.ndarray, List[LinkKey]]:
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
