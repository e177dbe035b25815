"""Path-cost views: the distance ``H`` of Formulas 1–3, as a view.

The paper's distance ``h_ab`` is the hop count between data nodes
(§II-B-1); its network-condition variant replaces it with the inverse of
the live estimated path rate, scaled to hop-count magnitude:
``C[a, b] = (1 / R[a, b]) * scale``, 0 on the diagonal and +inf for a pair
whose route crosses a failed link (§II-B-3).  Formula 1 reads only the
free-node × replica entries and Formula 2 only the map-node columns, so the
cost model asks a :class:`PathCosts` view for exactly those entries through
:meth:`~PathCosts.take` instead of holding a dense ``k × k`` matrix.

A view is immutable: ``Cluster.hop_costs`` is the one static hop view and
``Cluster.path_costs`` serves one rate view per network epoch, so
consumers may key their own caches on its identity.  Two implementations:

* :class:`DensePathCosts` wraps a dense matrix: the hop matrix or the
  route-tensor gather-min on multi-path, Clos and matrix topologies, a
  telemetry snapshot, or the per-pair reference;
* :class:`TreePathCosts` serves tree topologies from the static host
  up-chains of :meth:`GraphTopology.up_chains
  <repro.cluster.topology.GraphTopology.up_chains>`.  On a tree the route
  between two hosts climbs from each to their lowest common ancestor, so
  a path cost joins one per-level cost from each host's side: the sum of
  the two chain lengths for hops, the larger of two chain prefix-min
  inverse shares for rates.
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
    """Path costs on a tree, built by :meth:`hops` or :meth:`inverse_rates`
    over the topology's static :class:`~repro.cluster.topology.UpChains`.

    ``costs[L, a]`` is the cost of host ``a``'s side of a route meeting at
    level ``L``.  Two hosts whose chains agree on levels ``0..λ`` meet at
    their level-``λ`` ancestor, so ``C[a, b] = combine(costs[λ, a],
    costs[λ, b])``; for ``a == b`` every level agrees and both sides cost 0.
    """

    __slots__ = ("_ancestors", "_costs", "_combine", "_k", "_dense")

    def __init__(self, chains, costs: np.ndarray, combine: np.ufunc) -> None:
        self._costs = tuple(costs)
        # level 0 is the root, shared by every host
        self._ancestors = tuple(chains.ancestors[1:])
        self._combine = combine
        self._k = costs.shape[1]
        self._dense: Optional[np.ndarray] = None

    @classmethod
    def hops(cls, chains) -> "TreePathCosts":
        """Hop counts: per level, host ``a``'s chain length ``max(d_a - L,
        0)`` down from it, at depth ``d_a``; small integers, so sums are
        exact."""
        # a host's chain holds vertex numbers (>= 0) down to its own level
        depth = (chains.ancestors >= 0).sum(axis=0) - 1
        levels = np.arange(len(chains.ancestors))[:, None]
        costs = np.maximum(depth - levels, 0).astype(np.float64)
        return cls(chains, costs, np.add)

    @classmethod
    def inverse_rates(
        cls, chains, shares: np.ndarray, scale: float
    ) -> "TreePathCosts":
        """Inverse path rates times ``scale`` from this epoch's per-link
        fair shares (``FlowNetwork.link_shares``, +inf at the padding id).

        ``climb[L, a]``, the prefix-min of shares up host ``a``'s chain, is
        the min share over ``a``'s links up to its level-``L`` ancestor, so
        ``R[a, b] = min(climb[λ, a], climb[λ, b])`` takes the min over
        exactly the shares the route walk reads.  Division and a positive
        scale are monotone under rounding, so the per-level costs
        ``(1 / climb) * scale`` combine by max, bit-identically.
        """
        link_shares = shares[chains.link_ids]
        depth = link_shares.shape[0] - 1
        climb = np.empty_like(link_shares)
        climb[depth] = math.inf
        for level in range(depth - 1, -1, -1):
            np.minimum(climb[level + 1], link_shares[level + 1], out=climb[level])
        # a failed link has share 0: inverse rate +inf, as on the route walk
        with np.errstate(divide="ignore"):
            costs = (1.0 / climb) * scale
        return cls(chains, costs, np.maximum)

    def take(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        costs, combine = self._costs, self._combine
        # C order whatever the index layout, as DensePathCosts' advanced
        # indexing returns: callers reduce over the leading axis
        out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)))
        combine(costs[0][a], costs[0][b], out=out)
        # agreement at a level implies it at every level above, so the
        # deepest agreeing level, the meeting point, is written last
        for cost, ancestor in zip(costs[1:], self._ancestors):
            np.copyto(
                out, combine(cost[a], cost[b]),
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
