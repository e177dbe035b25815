"""The link-state re-routing control plane (OSPF-flavoured).

The :class:`~repro.faults.injector.FaultInjector` changes the *physical*
fabric instantly — a failed link's capacity drops to zero and flows
crossing it stall.  Real networks take time to notice and react: the
link-state protocol floods LSAs, waits out its hold-down, and only then
recomputes shortest paths.  :class:`RoutingController` models exactly that
gap as one knob, ``EngineConfig.route_convergence_delay``:

1. every physical change (``link_down``/``link_up``) *notifies* the
   controller, which schedules one coalesced convergence after the delay;
2. at convergence the routing table
   (:class:`~repro.cluster.topologies.FabricTopology` with
   ``routing="linkstate"``) is synced to the physical state, bumping
   ``route_version`` so the route tensor behind the rate view rebuilds;
3. in-flight flows whose route crosses a dead link are migrated onto
   surviving equal-cost paths with their remaining bytes carried over
   (:meth:`FlowNetwork.reroute_flow`) — byte conservation holds across the
   migration;
4. pairs with no surviving path stay on their stale route (the
   *partitioned sentinel*: rate zero, shuffle fetches park and retry) and
   are counted until a later convergence heals them.

Each convergence emits one :class:`~repro.trace.events.RouteChange` event;
partitions that close emit :class:`~repro.trace.events.PartitionHealed`.
The controller only exists for link-state fabrics — static and ECMP
fabrics never re-route, which is the ablation axis
``benchmarks/bench_rerouting.py`` measures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, FrozenSet, Optional, Tuple

from repro.trace.events import PartitionHealed, RouteChange

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.cluster.cluster import Cluster
    from repro.sim import Event
    from repro.trace.recorder import TraceRecorder

__all__ = ["RoutingController"]


class RoutingController:
    """Re-converges a link-state fabric after physical link changes.

    Parameters
    ----------
    cluster:
        Supplies the fabric topology (must be a
        :class:`~repro.cluster.topologies.FabricTopology` with
        ``routing="linkstate"``) and the flow network.
    convergence_delay:
        Seconds between a physical change and the routing table reacting.
        Zero converges on a zero-delay event (still strictly after the
        change, so same-instant event order stays deterministic).
    recorder:
        The run's trace recorder (``None`` disables event emission).
    """

    def __init__(
        self,
        cluster: "Cluster",
        *,
        convergence_delay: float,
        recorder: Optional["TraceRecorder"] = None,
    ) -> None:
        topology = cluster.topology
        if getattr(topology, "routing", None) != "linkstate":
            raise ValueError(
                "RoutingController requires a FabricTopology with "
                f"routing='linkstate', got {type(topology).__name__}"
            )
        if not (convergence_delay >= 0.0):
            raise ValueError(
                f"convergence delay must be >= 0, got {convergence_delay}"
            )
        self.cluster = cluster
        self.topology = topology
        self.network = cluster.network
        self.sim = cluster.network.sim
        self.convergence_delay = convergence_delay
        self.recorder = recorder
        self._pending: Optional["Event"] = None
        self._partitioned: FrozenSet[Tuple[str, str]] = frozenset()
        self._stopped = False
        # observability counters
        self.convergences = 0
        self.flows_migrated = 0

    @property
    def partitioned_pairs(self) -> int:
        """Unordered host pairs currently without a live path (post-convergence view)."""
        return len(self._partitioned)

    # ------------------------------------------------------------------
    def on_fabric_change(self) -> None:
        """A physical link changed; schedule one coalesced convergence."""
        if self._stopped:
            return
        if self._pending is not None and self._pending.active:
            return  # changes within the window batch into one convergence
        self._pending = self.sim.schedule(self.convergence_delay, self._converge)

    def stop(self) -> None:
        """Cancel a pending convergence so the event queue can drain."""
        self._stopped = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    # ------------------------------------------------------------------
    def _converge(self) -> None:
        self._pending = None
        topo = self.topology
        net = self.network
        # sync the routing table with the physical fabric state
        physical = set(net.down_links)
        for link in list(topo.down_links - physical):
            topo.mark_link_up(link)
        for link in physical - topo.down_links:
            topo.mark_link_down(link)

        # migrate in-flight flows stranded on dead links onto live paths;
        # a pair with no live path keeps its stale route (parked at rate 0)
        migrated = 0
        if physical:
            down = net.down_links
            for flow in list(net._flows):
                if not any(link in down for link in flow.route):
                    continue
                new_route = topo.route_for_flow(flow.src, flow.dst, flow.fid)
                if any(link in down for link in new_route):
                    continue  # partitioned: stay parked until a heal
                if net.reroute_flow(flow, new_route):
                    migrated += 1
        net.note_route_change()
        self.convergences += 1
        self.flows_migrated += migrated

        partitioned = self._partitioned_set()
        healed = self._partitioned - partitioned
        self._partitioned = partitioned
        recorder = self.recorder
        if recorder is not None and recorder.enabled:
            recorder.emit(
                RouteChange(
                    t=self.sim.now,
                    migrated=migrated,
                    partitioned_pairs=len(partitioned),
                )
            )
            if healed:
                recorder.emit(PartitionHealed(t=self.sim.now, pairs=len(healed)))

    def _partitioned_set(self) -> FrozenSet[Tuple[str, str]]:
        """All unordered host pairs split across live components."""
        comps = self.topology.host_components()
        if len(comps) <= 1:
            return frozenset()
        comps = [sorted(c) for c in comps]
        pairs = set()
        for i, a in enumerate(comps):
            for b in comps[i + 1:]:
                for u in a:
                    for v in b:
                        pairs.add((u, v) if u <= v else (v, u))
        return frozenset(pairs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RoutingController(convergences={self.convergences}, "
            f"migrated={self.flows_migrated}, "
            f"partitioned={len(self._partitioned)})"
        )
