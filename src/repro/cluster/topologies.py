"""Multi-path fabrics: equal-cost routing, link-state tables and Clos builders.

:mod:`repro.cluster.topology` models one static oracle route per host pair.
This module adds the fabric the robustness story needs:

* :class:`FabricTopology` — a :class:`~repro.cluster.topology.GraphTopology`
  that enumerates **all** equal-cost shortest paths per pair and selects
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
    both the fabric's own path caches and the epoch-keyed ``rate_matrix()``
    tensors downstream.

  Under ``ecmp``/``linkstate`` ``route_tensor()`` is the per-pair
  :meth:`~repro.cluster.topology.Topology.route_tensor` loop, because
  :meth:`FabricTopology.route` reads the live graph and records the
  partitioned sentinel for every pair it answers.

* :func:`clos_topology` — the k-ary fat-tree as a multi-rooted Clos fabric
  with a configurable oversubscription factor (1.0 = full bisection).

Path enumeration is deterministic: candidate paths come from
``networkx.all_shortest_paths`` sorted by node-name sequence, and ECMP picks
``crc32(f"{src}|{dst}|{fid}") % n`` — a pure function of the (seeded) flow
id, so same-seed runs stay byte-identical.

When a pair has **no** live path the fabric keeps the last advertised route
as a *partitioned sentinel*: that route necessarily crosses a down link, so
flows placed on it sit at rate zero until the fabric heals — interfaces stay
total and byte conservation is untouched.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, List, Optional, Set, Tuple

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
    increments on every routing-table change so downstream epoch-keyed
    caches (``FlowNetwork.rate_matrix``) can detect staleness cheaply.
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
        # equal-cost path sets per pair.  For ``ecmp`` these are nominal and
        # never invalidated; for ``linkstate`` they are cleared on every
        # routing-table change.
        self._ecmp: Dict[Tuple[str, str], List[List[LinkKey]]] = {}
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
            self._ecmp.clear()

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
    def equal_cost_paths(self, src: str, dst: str) -> List[List[LinkKey]]:
        """All equal-cost shortest paths, deterministically ordered.

        Computed on the nominal graph for ``static``/``ecmp`` and on the
        live graph for ``linkstate``.  Empty when the pair is partitioned.
        """
        if src == dst:
            return []
        key = (src, dst)
        cached = self._ecmp.get(key)
        if cached is None:
            g = self.live_graph if self.routing == "linkstate" else self.graph
            try:
                paths = sorted(nx.all_shortest_paths(g, src, dst))
            except (nx.NetworkXNoPath, nx.NodeNotFound):
                paths = []
            cached = [
                [_canon(u, v) for u, v in zip(p[:-1], p[1:])] for p in paths
            ]
            self._ecmp[key] = cached
            # deterministic mirror; ordering need not match sorted(dst→src)
            self._ecmp[(dst, src)] = [list(reversed(p)) for p in cached]
        return cached

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
        paths = self.equal_cost_paths(src, dst)
        if not paths:
            stale = self._advertised.get((src, dst))
            # a pair that never routed falls back to the nominal path; with
            # no live path every nominal route crosses a down link too.
            return stale if stale is not None else super().route(src, dst)
        self._advertised[(src, dst)] = paths[0]
        return paths[0]

    def route_tensor(self) -> Tuple[np.ndarray, List[LinkKey]]:
        """BFS tensor under ``static``; the per-pair reference otherwise."""
        if self.routing == "static":
            return super().route_tensor()
        return Topology.route_tensor(self)

    def route_for_flow(self, src: str, dst: str, fid: int) -> List[LinkKey]:
        if self.routing == "static" or src == dst:
            return self.route(src, dst)
        paths = self.equal_cost_paths(src, dst)
        if not paths:
            return self.route(src, dst)  # partitioned sentinel
        if len(paths) == 1:
            return paths[0]
        h = zlib.crc32(f"{src}|{dst}|{fid}".encode())
        return paths[h % len(paths)]


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
