"""Per-epoch path-cost views: the network-condition distance of §II-B-3.

The network-condition variant replaces the hop count ``h_ab`` with the
inverse of the live estimated path rate, scaled to hop-count magnitude:
``C[a, b] = (1 / R[a, b]) * scale``, 0 on the diagonal and +inf for a pair
whose route crosses a failed link.  Formula 1 reads only the free-node ×
replica entries and Formula 2 only the map-node columns, so the cost model
asks a :class:`PathCosts` view for exactly those entries through
:meth:`~PathCosts.take` instead of holding a dense ``k × k`` matrix.

A view is immutable and belongs to one network epoch
(``Cluster.path_costs`` serves one per epoch), so consumers may
key their own caches on its identity.  Two implementations:

* :class:`DensePathCosts` wraps a dense matrix: the route-tensor
  gather-min on multi-path, Clos and matrix topologies, a telemetry
  snapshot, or the per-pair reference;
* :class:`TreePathCosts` serves tree topologies from the static host
  up-chains of :meth:`GraphTopology.up_chains
  <repro.cluster.topology.GraphTopology.up_chains>` and a per-epoch
  prefix-min of link shares up each chain.  On a tree the route between
  two hosts climbs from each to their lowest common ancestor, so
  ``R[a, b]`` is the smaller of two chain prefix-mins: the min over
  exactly the link shares the route walk reads, hence bit-identical.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

__all__ = ["PathCosts", "DensePathCosts", "TreePathCosts"]


class PathCosts:
    """One epoch's path costs ``C[a, b]`` between host indices.

    :meth:`take` reads entries for broadcast index arrays; :meth:`dense`
    materialises the whole ``(k, k)`` matrix (read-only), for telemetry,
    analyses and tests.
    """

    def take(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``C[a, b]`` for integer index arrays broadcast together."""
        raise NotImplementedError

    def dense(self) -> np.ndarray:
        """The full read-only ``(k, k)`` cost matrix."""
        raise NotImplementedError


class DensePathCosts(PathCosts):
    """A view over a dense ``(k, k)`` cost matrix."""

    __slots__ = ("_matrix",)

    def __init__(self, matrix: np.ndarray) -> None:
        self._matrix = matrix

    def take(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._matrix[a, b]

    def dense(self) -> np.ndarray:
        return self._matrix


class TreePathCosts(PathCosts):
    """Path costs on a tree from per-host prefix-mins up the root chain.

    Parameters
    ----------
    chains:
        The topology's static :class:`~repro.cluster.topology.UpChains`.
    shares:
        ``(len(chains.links) + 1,)`` per-link fair share a new flow would
        get this epoch, +inf at the padding id
        (``FlowNetwork.link_shares``).
    scale:
        Positive multiplier applied to every inverse rate.

    ``climb[L, a]``, the prefix-min of shares up host ``a``'s chain, is
    the min share over ``a``'s links from itself up to its level-``L``
    ancestor (+inf from ``a``'s own level on).  Two hosts whose chains
    agree on levels ``0..λ`` meet at their level-``λ`` ancestor, so
    ``R[a, b] = min(climb[λ, a], climb[λ, b])``; for ``a == b`` every
    level agrees and ``R`` is +inf, i.e. cost 0.  The view stores
    ``(1 / climb) * scale`` per level instead: division and a positive
    scale are monotone under rounding, so
    ``(1 / min(x, y)) * scale == max((1 / x) * scale, (1 / y) * scale)``
    exactly, and a read is a max of two gathers per agreeing level.
    """

    __slots__ = ("_ancestors", "_costs", "_k", "_dense")

    def __init__(self, chains, shares: np.ndarray, scale: float) -> None:
        link_shares = shares[chains.link_ids]
        depth, k = link_shares.shape[0] - 1, link_shares.shape[1]
        climb = np.empty_like(link_shares)
        climb[depth] = math.inf
        for level in range(depth - 1, -1, -1):
            np.minimum(climb[level + 1], link_shares[level + 1], out=climb[level])
        # a failed link has share 0: inverse rate +inf, as on the route walk
        with np.errstate(divide="ignore"):
            costs = (1.0 / climb) * scale
        self._costs = tuple(costs)
        # level 0 is the root, shared by every host
        self._ancestors = tuple(chains.ancestors[1:])
        self._k = k
        self._dense: Optional[np.ndarray] = None

    def take(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        costs = self._costs
        # C order whatever the index layout, as DensePathCosts' advanced
        # indexing returns: callers reduce over the leading axis
        out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)))
        np.maximum(costs[0][a], costs[0][b], out=out)
        # agreement at a level implies it at every level above, so the
        # deepest agreeing level, the meeting point, is written last
        for cost, ancestor in zip(costs[1:], self._ancestors):
            np.copyto(
                out, np.maximum(cost[a], cost[b]),
                where=ancestor[a] == ancestor[b],
            )
        return out

    def dense(self) -> np.ndarray:
        if self._dense is None:
            idx = np.arange(self._k)
            out = self.take(idx[:, None], idx[None, :])
            out.setflags(write=False)
            self._dense = out
        return self._dense
