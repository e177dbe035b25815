"""Cluster assembly: nodes + topology + network in one object.

:class:`Cluster` is the substrate handle the rest of the library works
against.  It owns the :class:`~repro.cluster.node.Node` objects (one per
topology host), the hop counts, and the :class:`~repro.cluster.network
.FlowNetwork`.  :class:`ClusterSpec` is a declarative description from which
the canonical experiment clusters are built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.cache import caching_disabled
from repro.coherence import cached_on
from repro.cluster.network import FlowNetwork
from repro.cluster.node import Node
from repro.cluster.pathcost import DensePathCosts, PathCosts, TreePathCosts
from repro.cluster.topology import Topology, rack_topology
from repro.obs import profile as _obs_profile
from repro.sim import Simulator
from repro.units import Gbps, MB

__all__ = ["Cluster", "ClusterSpec"]


@dataclass
class ClusterSpec:
    """Declarative cluster description.

    Defaults mirror the paper's Palmetto slice: 60 nodes in 4 racks with 4
    map slots and 2 reduce slots each (Section III).  Host links default to
    1 Gbps with 10 Gbps ToR uplinks — the Hadoop-1-era regime in which the
    network is the scarce resource during shuffle and remote reads, which is
    the regime the paper's fine-grained cost model targets (its Palmetto ToR
    switches were likewise uplinked at 10 Gbps and shared by a full rack).
    """

    num_racks: int = 4
    nodes_per_rack: int = 15
    map_slots: int = 4
    reduce_slots: int = 2
    host_link: float = 1.0 * Gbps
    tor_uplink: float = 10.0 * Gbps
    disk_bandwidth: float = 400.0 * MB
    compute_factors: Optional[Sequence[float]] = None

    @property
    def num_nodes(self) -> int:
        return self.num_racks * self.nodes_per_rack

    def build(self, sim: Simulator) -> "Cluster":
        topo = rack_topology(
            self.num_racks,
            self.nodes_per_rack,
            host_link=self.host_link,
            tor_uplink=self.tor_uplink,
        )
        return Cluster(
            sim,
            topo,
            map_slots=self.map_slots,
            reduce_slots=self.reduce_slots,
            disk_bandwidth=self.disk_bandwidth,
            compute_factors=self.compute_factors,
        )


class Cluster:
    """Nodes + topology + flow network.

    Parameters
    ----------
    sim:
        Simulation clock shared with the engine.
    topology:
        Any :class:`~repro.cluster.topology.Topology`; its hosts become the
        cluster's data nodes in index order.
    map_slots, reduce_slots, disk_bandwidth:
        Uniform per-node configuration.
    compute_factors:
        Optional per-node compute multipliers (heterogeneity), by host index.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        *,
        map_slots: int = 4,
        reduce_slots: int = 2,
        disk_bandwidth: float = 400.0 * MB,
        compute_factors: Optional[Sequence[float]] = None,
        node_factory: Optional[Callable[[str, str, int], Node]] = None,
    ) -> None:
        """``node_factory(name, rack, index)`` overrides node construction —
        used by :mod:`repro.yarn` to build container-based nodes."""
        self.sim = sim
        self.topology = topology
        if compute_factors is not None and len(compute_factors) != topology.num_hosts:
            raise ValueError("compute_factors length must equal host count")
        self.nodes: List[Node] = []
        self._by_name: Dict[str, Node] = {}
        for i, host in enumerate(topology.hosts):
            if node_factory is not None:
                node = node_factory(host, topology.rack_of(host), i)
            else:
                node = Node(
                    name=host,
                    rack=topology.rack_of(host),
                    index=i,
                    map_slots=map_slots,
                    reduce_slots=reduce_slots,
                    disk_bandwidth=disk_bandwidth,
                    compute_factor=(
                        compute_factors[i] if compute_factors is not None else 1.0
                    ),
                )
            self.nodes.append(node)
            self._by_name[host] = node
        self.network = FlowNetwork(sim, topology, local_bandwidth=disk_bandwidth)
        # link-state control plane, attached by the engine when the topology
        # is a linkstate fabric (see repro.cluster.routing)
        self.routing = None
        # built up front: a dense build rejects disconnected hosts here
        self.hop_costs = self._build_hop_costs()
        # hot-path caches (all behaviour-invisible); under REPRO_NO_CACHE
        # every @cached_on method serves its reference recompute instead
        self._no_cache = caching_disabled()
        self._slot_views: Dict[str, tuple] = {}
        self._rate_view: Optional[tuple] = None
        self._scale: Optional[float] = None
        for node in self.nodes:
            node._slot_watcher = self._invalidate_slot_views

    # ------------------------------------------------------------------
    def node(self, name: str) -> Node:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    # ------------------------------------------------------------------
    # distance / network condition views (inputs to the cost model)
    # ------------------------------------------------------------------
    def _build_hop_costs(self) -> PathCosts:
        """The hop counts ``h_ab`` of Section II-B-1 as one static view: a
        tree's up-chain lengths, with no ``k × k`` matrix, else its dense
        hop matrix."""
        chains = self.topology.up_chains()
        if chains is not None:
            return TreePathCosts.hops(chains)
        hops = self.topology.hop_matrix().astype(np.float64)
        hops.setflags(write=False)
        return DensePathCosts(hops)

    def path_costs(self) -> PathCosts:
        """The network-condition distances of Section II-B-3, as a view.

        Entry ``(a, b)`` is the inverse of the live estimated path rate,
        i.e. seconds per byte, times a fixed scale that puts an idle host
        link's inverse rate at 2.0, the same-rack hop count; the diagonal
        is zero (local placement costs nothing, matching the hop-matrix
        convention) and a pair whose route crosses a failed link costs
        +inf.

        The view is immutable and lives for one network epoch.  A tree
        topology gets a :class:`~repro.cluster.pathcost.TreePathCosts`
        over its static up-chains and this epoch's link shares, with no
        route tensor; every other topology a dense view of the
        route-tensor gather-min.
        """
        # every read of the rate view, dense or not, enters through
        # inverse_rate_matrix, so one wrapper there (perfbench's layer
        # tracer) counts them all
        return self.inverse_rate_matrix(view=True)

    @cached_on(
        "network.epoch",
        inputs=("FlowNetwork._count", "FlowNetwork._eff"),
        reference="_inverse_rate_matrix_uncached",
        probe=lambda self, *, view=False: self._rate_view_hit(),
    )
    def inverse_rate_matrix(
        self, *, view: bool = False
    ) -> Union[np.ndarray, PathCosts]:
        """This epoch's :meth:`path_costs` as a dense read-only ``(k, k)``
        matrix, or with ``view=True`` the view itself.

        One view is cached per ``network.epoch``.
        """
        if not self._rate_view_hit():
            self._rate_view = (self.network.epoch, self._build_rate_view())
        paths = self._rate_view[1]
        return paths if view else paths.dense()

    def _rate_view_hit(self) -> bool:
        cached = self._rate_view
        return cached is not None and cached[0] == self.network.epoch

    def _build_rate_view(self) -> PathCosts:
        prof = _obs_profile.ACTIVE
        if prof is not None:
            # only cache *misses* land in the profile bucket; hits cost a
            # compare and stay attributed to their caller
            prof.push("network.rate_matrix")
        try:
            if self._scale is None:
                self._scale = self._default_scale()
            chains = self.topology.up_chains()
            if chains is not None:
                shares = self.network.link_shares()
                return TreePathCosts.inverse_rates(chains, shares, self._scale)
            return DensePathCosts(
                self._inverse_rates(self.network.rate_matrix(), self._scale)
            )
        finally:
            if prof is not None:
                prof.pop()

    @staticmethod
    def _inverse_rates(rates: np.ndarray, scale: float) -> np.ndarray:
        # partitioned pairs advertise rate 0 (failed fabric link on the
        # stale route) -> inf cost, which is exactly what schedulers should
        # see; silence only the expected divide-by-zero
        with np.errstate(divide="ignore"):
            inv = 1.0 / rates
        np.fill_diagonal(inv, 0.0)
        out = inv * scale
        out.setflags(write=False)
        return out

    def _default_scale(self) -> float:
        """Default normalisation: an idle host-access-link path (inverse
        rate 1/ref) maps to hop count 2, the same-rack distance.  Depends
        only on the static topology."""
        return 2.0 * max(self.topology.access_link_capacities(), default=1.0)

    def _inverse_rate_matrix_uncached(
        self, *, view: bool = False
    ) -> Union[np.ndarray, PathCosts]:
        """Reference: the per-pair ``path_rate`` walk, recomputed per call
        (``REPRO_NO_CACHE=1`` and the cache sanitizer's shadow)."""
        inv = self._inverse_rates(
            self.network._rate_matrix_uncached(), self._default_scale()
        )
        return DensePathCosts(inv) if view else inv

    # ------------------------------------------------------------------
    # slot views (inputs to C_ave in Formulae 4-5)
    # ------------------------------------------------------------------
    def nodes_with_free_map_slots(self) -> List[Node]:
        return list(self.free_slot_view("map")[0])

    def nodes_with_free_reduce_slots(self) -> List[Node]:
        return list(self.free_slot_view("reduce")[0])

    @cached_on(
        invalidator="_invalidate_slot_views",
        inputs=(
            "Node.alive",
            "Node.running_maps",
            "Node.running_reduces",
            "Node.map_slots",
            "Node.reduce_slots",
        ),
        reference="_free_slot_view_uncached",
        watcher="Node.__setattr__",
        probe=lambda self, kind: kind in self._slot_views,
    )
    def free_slot_view(self, kind: str) -> tuple:
        """Cached ``(nodes, idx, pos)`` view of nodes with a free ``kind``
        (``"map"``/``"reduce"``) slot.

        ``nodes`` is the offerable-node list in index order, ``idx`` their
        dense cluster indices (int64) and ``pos`` the inverse lookup:
        ``pos[node.index]`` is that node's row in ``idx`` (−1 if the node
        has no free slot).  Arrays are read-only; both kinds' views are
        invalidated automatically on any slot or liveness transition (see
        ``Node.__setattr__``).
        """
        view = self._slot_views.get(kind)
        if view is None:
            view = self._slot_views[kind] = self._free_slot_view_uncached(kind)
        return view

    def _free_slot_view_uncached(self, kind: str) -> tuple:
        """Reference recompute behind :meth:`free_slot_view`."""
        free = f"free_{kind}_slots"
        nodes = [n for n in self.nodes if n.alive and getattr(n, free) > 0]
        idx = np.fromiter((n.index for n in nodes), np.int64, len(nodes))
        pos = np.full(len(self.nodes), -1, dtype=np.int64)
        pos[idx] = np.arange(len(nodes), dtype=np.int64)
        idx.setflags(write=False)
        pos.setflags(write=False)
        return (nodes, idx, pos)

    def _invalidate_slot_views(self) -> None:
        self._slot_views.clear()

    def total_map_slots(self) -> int:
        return sum(n.map_slots for n in self.nodes)

    def total_reduce_slots(self) -> int:
        return sum(n.reduce_slots for n in self.nodes)

    def running_map_tasks(self) -> int:
        return sum(n.running_maps for n in self.nodes)

    def __repr__(self) -> str:
        return (
            f"Cluster({self.num_nodes} nodes, "
            f"{self.total_map_slots()} map slots, "
            f"{self.total_reduce_slots()} reduce slots)"
        )
