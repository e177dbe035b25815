"""networkx as the independent oracle: one conversion from a topology's graph.

``GraphTopology.graph`` is a :class:`repro.cluster.graph.Graph`, which the
simulator reads without networkx.  Tests (and ``benchmarks/bench_rerouting.py``)
that check it against networkx's algorithms convert it here first.
"""

from __future__ import annotations


def to_networkx(graph):
    """A ``networkx.Graph`` with ``graph``'s nodes, edges and attributes.

    Node order and every node's neighbour order are ``graph``'s own, so
    networkx's searches break ties as on the original.  ``add_edge``
    would append each edge to both endpoints' rows at once, which need
    not be the order either row had, so the rows are filled directly.
    """
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from((n, dict(d)) for n, d in graph.nodes.items())
    adj = g._adj
    for u, nbrs in graph.adj.items():
        for v, data in nbrs.items():
            shared = adj[v].get(u)
            adj[u][v] = dict(data) if shared is None else shared
    return g
