"""The switch/host graph: an insertion-ordered undirected adjacency.

The cost model needs hop counts, routes and connectivity over a fixed
fabric (the ``H`` matrix of §II-B-1 on the §III rack/ToR/core tree), so a
topology keeps its graph as two dicts and a few breadth-first searches.

:class:`Graph` lays its data out as ``networkx.Graph`` does: ``nodes[n]``
is node ``n``'s attribute dict, ``adj[u][v]`` the attribute dict of edge
``u``–``v``, one dict shared by both directions.  Node order and each
node's neighbour order are insertion order, and :meth:`Graph.edges`,
:func:`bfs`, :meth:`Graph.shortest_path` and :func:`components`
break ties exactly as networkx's ``edges()``,
``single_source_shortest_path_length``/``bfs_predecessors``,
``bidirectional_shortest_path`` and ``connected_components`` do.  So a
graph built by the same calls numbers its links and picks its routes the
same way, and :meth:`Graph.of` copies any object with those two mappings
(a networkx graph, say) with its orders intact.
"""

from __future__ import annotations

from typing import (
    Any, Collection, Dict, Hashable, Iterable, Iterator, List, Mapping,
    Protocol, Set, Tuple,
)

__all__ = ["Graph", "GraphLike", "bfs", "components"]

Attrs = Dict[str, Any]


class GraphLike(Protocol):
    """What :meth:`Graph.of` reads: node attributes and the adjacency."""

    nodes: Mapping[Hashable, Mapping[str, Any]]
    adj: Mapping[Hashable, Mapping[Hashable, Mapping[str, Any]]]


class Graph:
    """An undirected graph whose orders are insertion orders."""

    __slots__ = ("nodes", "adj")

    def __init__(self) -> None:
        self.nodes: Dict[Hashable, Attrs] = {}
        self.adj: Dict[Hashable, Dict[Hashable, Attrs]] = {}

    @classmethod
    def of(cls, graph: GraphLike) -> "Graph":
        """A copy of ``graph``, attribute dicts included, in its orders."""
        g = cls()
        for n in graph.nodes:
            g.nodes[n] = dict(graph.nodes[n])
            g.adj[n] = {}
        adj = g.adj
        for u, nbrs in graph.adj.items():
            row = adj[u]
            for v, data in nbrs.items():
                shared = adj[v].get(u)
                row[v] = dict(data) if shared is None else shared
        return g

    def add_node(self, n: Hashable, **attrs: Any) -> None:
        if n not in self.nodes:
            self.nodes[n] = {}
            self.adj[n] = {}
        self.nodes[n].update(attrs)

    def add_edge(self, u: Hashable, v: Hashable, **attrs: Any) -> None:
        self.add_node(u)
        self.add_node(v)
        data = self.adj[u].get(v, {})
        data.update(attrs)
        self.adj[u][v] = self.adj[v][u] = data

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        return v in self.adj.get(u, ())

    def edges(self) -> Iterator[Tuple[Hashable, Hashable]]:
        """Every edge once: each node's new neighbours, node by node."""
        seen: Set[Hashable] = set()
        for u, nbrs in self.adj.items():
            for v in nbrs:
                if v not in seen:
                    yield u, v
            seen.add(u)

    def adjacency(
        self, down: Collection[Tuple[Hashable, Hashable]]
    ) -> Dict[Hashable, List[Hashable]]:
        """Each node's neighbours, minus the ``down`` links either way."""
        cut = set(down)
        cut.update((v, u) for u, v in down)
        return {
            u: [v for v in nbrs if (u, v) not in cut]
            for u, nbrs in self.adj.items()
        }

    def is_tree(self) -> bool:
        """Connected, with one edge fewer than nodes."""
        n = len(self.adj)
        return (
            n > 0
            and sum(1 for _ in self.edges()) == n - 1
            and len(bfs(self.adj, next(iter(self.adj)))[0]) == n
        )

    def shortest_path(self, source: Hashable, target: Hashable) -> List[Hashable]:
        """A fewest-hop node path, by a BFS from both ends.

        Each round grows the smaller fringe (the forward one on a tie) by
        one level and stops at the first node the two searches share.
        """
        adj = self.adj
        if source not in adj or target not in adj:
            raise ValueError(f"no node {source!r} or {target!r} in the graph")
        pred: Dict[Hashable, Any] = {source: None}
        succ: Dict[Hashable, Any] = {target: None}
        meet = source if source == target else None
        forward, reverse = [source], [target]
        while meet is None and forward and reverse:
            if len(forward) <= len(reverse):
                meet, forward = _grow(adj, forward, pred, succ)
            else:
                meet, reverse = _grow(adj, reverse, succ, pred)
        if meet is None:
            raise ValueError(f"no path between {source!r} and {target!r}")
        path = []
        w = meet
        while w is not None:
            path.append(w)
            w = pred[w]
        path.reverse()
        w = succ[meet]
        while w is not None:
            path.append(w)
            w = succ[w]
        return path


def _grow(
    adj: Dict[Hashable, Dict[Hashable, Attrs]],
    fringe: List[Hashable],
    mine: Dict[Hashable, Any],
    theirs: Dict[Hashable, Any],
) -> Tuple[Any, List[Hashable]]:
    """One level of one side of :meth:`Graph.shortest_path`: the meeting
    node (or None) and the next fringe."""
    grown = []
    for v in fringe:
        for w in adj[v]:
            if w not in mine:
                grown.append(w)
                mine[w] = v
            if w in theirs:
                return w, grown
    return None, grown


def bfs(
    adj: Mapping[Hashable, Iterable[Hashable]], source: Hashable
) -> Tuple[Dict[Hashable, int], Dict[Hashable, Hashable]]:
    """``(dist, parent)`` of every node ``source`` reaches over ``adj``.

    ``dist`` lists the nodes in discovery order; ``parent`` maps each but
    ``source`` to the node it was discovered from.
    """
    dist = {source: 0}
    parent: Dict[Hashable, Hashable] = {}
    queue = [source]
    for u in queue:
        du = dist[u] + 1
        for v in adj[u]:
            if v not in dist:
                dist[v] = du
                parent[v] = u
                queue.append(v)
    return dist, parent


def components(adj: Mapping[Hashable, Iterable[Hashable]]) -> List[Set[Hashable]]:
    """Connected components of an adjacency, in order of first node."""
    seen: Set[Hashable] = set()
    comps = []
    for s in adj:
        if s not in seen:
            comp = set(bfs(adj, s)[0])
            seen |= comp
            comps.append(comp)
    return comps
