"""The FaultInjector: executes a :class:`~repro.faults.spec.FaultPlan`.

The injector is the *physical* side of failure: it flips ``Node.alive``,
freezes a dead node's flows (through the tracker's crash hook), rescales
link capacities, drops heartbeats, and schedules attempt failures.  The
*logical* side — expiry detection, attempt kills, lost-map re-execution,
blacklisting — lives in the JobTracker, which only ever observes failures
through missed heartbeats and incarnation changes, exactly like Hadoop's
master.

Determinism follows the :class:`~repro.cluster.background.BackgroundTraffic`
discipline: the injector owns one child of the run's ``SeedSequence`` and
spawns an independent substream per fault family (churn, task failures,
heartbeat loss, fabric faults), so enabling one family never shifts
another's draws, and an empty plan draws nothing at all.  All activity is driven by the sim
clock; the tracker's all-done hook cancels anything still pending so the
event queue drains when the workload finishes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Union

import numpy as np

from repro.cluster.topology import LinkKey, _canon
from repro.faults.spec import (
    FaultPlan,
    LinkDegradation,
    LinkFailure,
    SwitchFailure,
)
from repro.trace.events import LinkDown, LinkUp, SwitchDown

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.cluster.cluster import Cluster
    from repro.cluster.node import Node
    from repro.engine.jobtracker import JobTracker
    from repro.engine.task import MapAttempt, ReduceTask
    from repro.sim import Event

__all__ = ["FaultInjector", "RNG_STREAMS"]

#: Spawn-index -> fault family of the injector's ``SeedSequence`` fan-out.
#: Append-only: indices are load-bearing for replay stability.  The
#: decommission stream draws nothing today (drain starts are scheduled, not
#: sampled) but is reserved so a future randomised variant cannot shift the
#: other families' draws.
RNG_STREAMS = {
    0: "churn",
    1: "taskfail",
    2: "heartbeat",
    3: "linkfault",
    4: "decommission",
}


class FaultInjector:
    """Drives one :class:`FaultPlan` against a live simulation.

    Parameters
    ----------
    plan:
        What to inject.  Must be non-empty (the Simulation skips injector
        construction for empty plans so zero-fault runs stay untouched).
    cluster:
        The cluster whose nodes and links the plan targets.
    tracker:
        The JobTracker; the injector calls its ``on_node_crashed`` physical
        hook and registers itself for heartbeat-drop queries and attempt
        sampling.
    seed_seq:
        The injector's child of the run's ``SeedSequence`` fan-out.
    """

    def __init__(
        self,
        plan: FaultPlan,
        cluster: "Cluster",
        tracker: "JobTracker",
        seed_seq: np.random.SeedSequence,
    ) -> None:
        self.plan = plan
        self.cluster = cluster
        self.tracker = tracker
        self.sim = tracker.sim
        (
            churn_ss,
            taskfail_ss,
            heartbeat_ss,
            linkfault_ss,
            decommission_ss,
        ) = seed_seq.spawn(len(RNG_STREAMS))
        self._churn_rng = np.random.default_rng(churn_ss)
        self._taskfail_rng = np.random.default_rng(taskfail_ss)
        self._heartbeat_rng = np.random.default_rng(heartbeat_ss)
        self._linkfault_rng = np.random.default_rng(linkfault_ss)
        self._decommission_rng = np.random.default_rng(decommission_ss)
        self._pending: List["Event"] = []
        self._stopped = False
        # overlap ref-counts: a link stays physically down until every
        # fault holding it down has healed
        self._link_down_counts: Dict[LinkKey, int] = {}
        # observability counters (surfaced via RunResult.summary)
        self.crashes_injected = 0
        self.revivals = 0
        self.attempt_failures_injected = 0
        self.heartbeats_dropped = 0
        self.tracker_crashes_injected = 0
        self.link_failures_injected = 0
        self.switch_failures_injected = 0
        self.links_failed = 0    # 0 -> down transitions across all faults
        self.decommissions_injected = 0
        self._validate_targets()

    # ------------------------------------------------------------------
    def _validate_targets(self) -> None:
        names = {n.name for n in self.cluster.nodes}
        racks = {n.rack for n in self.cluster.nodes}
        for crash in self.plan.crashes:
            if crash.node not in names:
                raise ValueError(f"crash targets unknown node {crash.node!r}")
        for dc in self.plan.decommissions:
            if dc.node not in names:
                raise ValueError(
                    f"decommission targets unknown node {dc.node!r}"
                )
        if self.plan.churn is not None and self.plan.churn.nodes is not None:
            for name in self.plan.churn.nodes:
                if name not in names:
                    raise ValueError(f"churn targets unknown node {name!r}")
        for deg in self.plan.degradations:
            if deg.node is not None and deg.node not in names:
                raise ValueError(f"degradation targets unknown node {deg.node!r}")
            if deg.rack is not None and deg.rack not in racks:
                raise ValueError(f"degradation targets unknown rack {deg.rack!r}")
        if self.plan.link_failures or self.plan.switch_failures:
            graph = getattr(self.cluster.topology, "graph", None)
            if graph is None:
                raise ValueError(
                    "link/switch failures require a graph-backed topology"
                )
            for lf in self.plan.link_failures:
                if lf.node is not None and lf.node not in names:
                    raise ValueError(
                        f"link failure targets unknown node {lf.node!r}"
                    )
                if lf.link is not None and not graph.has_edge(*lf.link):
                    raise ValueError(
                        f"link failure targets unknown link {lf.link!r}"
                    )
            for sf in self.plan.switch_failures:
                if (
                    sf.switch not in graph.nodes
                    or graph.nodes[sf.switch].get("kind") == "host"
                ):
                    raise ValueError(
                        f"switch failure targets unknown switch {sf.switch!r}"
                    )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the plan (idempotent; called by ``Simulation.run``)."""
        if self._stopped or self._pending:
            return
        for crash in self.plan.crashes:
            self._pending.append(
                self.sim.at(crash.at, self._crash, crash.node, crash.down_for)
            )
        churn = self.plan.churn
        if churn is not None:
            targets = (
                churn.nodes
                if churn.nodes is not None
                else tuple(n.name for n in self.cluster.nodes)
            )
            for name in targets:  # cluster order = deterministic draw order
                self._schedule_churn_crash(name, first=True)
        for deg in self.plan.degradations:
            self._pending.append(self.sim.at(deg.at, self._apply_degradation, deg))
        for tc in self.plan.tracker_crashes:
            self._pending.append(
                self.sim.at(tc.at, self._tracker_crash, tc.down_for)
            )
        for dc in self.plan.decommissions:
            self._pending.append(
                self.sim.at(dc.at, self._decommission, dc.node)
            )
        for lf in self.plan.link_failures:
            if lf.at is not None:
                self._pending.append(
                    self.sim.at(lf.at, self._apply_fabric_fault, lf)
                )
            else:
                self._schedule_fabric_renewal(lf)
        for sf in self.plan.switch_failures:
            if sf.at is not None:
                self._pending.append(
                    self.sim.at(sf.at, self._apply_fabric_fault, sf)
                )
            else:
                self._schedule_fabric_renewal(sf)
        self.tracker.on_all_done_hooks.append(self.stop)

    def stop(self) -> None:
        """Cancel everything still pending so the event queue can drain."""
        self._stopped = True
        for ev in self._pending:
            ev.cancel()
        self._pending.clear()

    # ------------------------------------------------------------------
    # node crash / revival
    # ------------------------------------------------------------------
    def _crash(self, name: str, down_for: Optional[float]) -> None:
        if self._stopped:
            return
        node = self.cluster.node(name)
        if not node.alive:
            return  # overlapping crash sources; the node is already down
        node.alive = False
        node.incarnation += 1
        self.crashes_injected += 1
        self.tracker.on_node_crashed(node)
        if down_for is not None:
            self._pending.append(self.sim.schedule(down_for, self._revive, name))

    def _revive(self, name: str) -> None:
        if self._stopped:
            return
        node = self.cluster.node(name)
        if node.alive:
            return
        node.alive = True
        self.revivals += 1

    # ------------------------------------------------------------------
    # decommissioning
    # ------------------------------------------------------------------
    def _decommission(self, name: str) -> None:
        if self._stopped:
            return
        node = self.cluster.node(name)
        if not node.alive:
            return  # a dead node can't drain; the crash path owns it
        monitor = self.tracker.replication
        assert monitor is not None  # enforced at Simulation construction
        self.decommissions_injected += 1
        monitor.begin_decommission(name)

    # ------------------------------------------------------------------
    # tracker crash / restart
    # ------------------------------------------------------------------
    def _tracker_crash(self, down_for: float) -> None:
        if self._stopped or self.tracker.tracker_down:
            return
        self.tracker_crashes_injected += 1
        self.tracker.on_tracker_crashed()
        self._pending.append(self.sim.schedule(down_for, self._tracker_restart))

    def _tracker_restart(self) -> None:
        if self._stopped or not self.tracker.tracker_down:
            return
        self.tracker.on_tracker_restarted()

    # ------------------------------------------------------------------
    # churn (per-node renewal process)
    # ------------------------------------------------------------------
    def _schedule_churn_crash(self, name: str, *, first: bool = False) -> None:
        churn = self.plan.churn
        assert churn is not None
        delay = float(self._churn_rng.exponential(churn.mean_uptime))
        if first and churn.start > self.sim.now:
            delay += churn.start - self.sim.now
        self._pending.append(self.sim.schedule(delay, self._churn_crash, name))

    def _churn_crash(self, name: str) -> None:
        if self._stopped:
            return
        down = float(self._churn_rng.exponential(self.plan.churn.mean_downtime))
        self._crash(name, None)
        self._pending.append(self.sim.schedule(down, self._churn_revive, name))

    def _churn_revive(self, name: str) -> None:
        if self._stopped:
            return
        self._revive(name)
        self._schedule_churn_crash(name)

    # ------------------------------------------------------------------
    # per-attempt task failures
    # ------------------------------------------------------------------
    def on_map_attempt(self, attempt: "MapAttempt") -> None:
        """Sample a failure for a freshly started map attempt."""
        tf = self.plan.task_failures
        if tf is None or self._stopped:
            return
        if self._taskfail_rng.random() >= tf.prob:
            return
        delay = float(self._taskfail_rng.exponential(tf.mean_delay))
        self._pending.append(self.sim.schedule(delay, self._fail_map, attempt))

    def _fail_map(self, attempt: "MapAttempt") -> None:
        if self._stopped or attempt.cancelled or attempt.task.done:
            return
        if not attempt.node.alive:
            return  # the node-loss path will kill (not fail) this attempt
        self.attempt_failures_injected += 1
        attempt.fail()

    def on_reduce_attempt(self, task: "ReduceTask") -> None:
        """Sample a failure for a freshly launched reduce attempt."""
        tf = self.plan.task_failures
        if tf is None or self._stopped:
            return
        if self._taskfail_rng.random() >= tf.prob:
            return
        delay = float(self._taskfail_rng.exponential(tf.mean_delay))
        self._pending.append(
            self.sim.schedule(delay, self._fail_reduce, task, task.attempt_epoch)
        )

    def _fail_reduce(self, task: "ReduceTask", epoch: int) -> None:
        if self._stopped or task.attempt_epoch != epoch or task.done:
            return
        if task.node is None or not task.node.alive:
            return
        self.attempt_failures_injected += 1
        task.fail()

    # ------------------------------------------------------------------
    # heartbeat loss
    # ------------------------------------------------------------------
    def heartbeat_dropped(self, node: "Node") -> bool:
        """One Bernoulli draw per would-be-delivered heartbeat."""
        hb = self.plan.heartbeat_loss
        if hb is None or self._stopped:
            return False
        dropped = bool(self._heartbeat_rng.random() < hb.prob)
        if dropped:
            self.heartbeats_dropped += 1
        return dropped

    # ------------------------------------------------------------------
    # link degradation
    # ------------------------------------------------------------------
    def _access_link(self, host: str) -> Optional[LinkKey]:
        topo = self.cluster.topology
        for other in topo.hosts:
            if other != host:
                return topo.route(host, other)[0]
        return None

    def _links_for(self, deg: LinkDegradation) -> List[LinkKey]:
        topo = self.cluster.topology
        links: List[LinkKey] = []
        if deg.node is not None:
            access = self._access_link(deg.node)
            if access is not None:
                links.append(access)
            return links
        hosts_in = [h for h in topo.hosts if topo.rack_of(h) == deg.rack]
        hosts_out = [h for h in topo.hosts if topo.rack_of(h) != deg.rack]
        for h in hosts_in:
            access = self._access_link(h)
            if access is not None and access not in links:
                links.append(access)
        if hosts_in and hosts_out:
            # rack-side half of an inter-rack route covers the uplink(s)
            route = topo.route(hosts_in[0], hosts_out[0])
            for link in route[: (len(route) + 1) // 2]:
                if link not in links:
                    links.append(link)
        return links

    def _apply_degradation(self, deg: LinkDegradation) -> None:
        if self._stopped:
            return
        network = self.cluster.network
        for link in self._links_for(deg):
            network.set_capacity_factor(link, deg.factor)
        self._pending.append(
            self.sim.schedule(deg.duration, self._restore_degradation, deg)
        )

    def _restore_degradation(self, deg: LinkDegradation) -> None:
        # restore even when stopped mid-run: leaving the fabric degraded
        # would surprise anything the caller runs on the cluster afterwards
        network = self.cluster.network
        for link in self._links_for(deg):
            network.set_capacity_factor(link, 1.0)

    # ------------------------------------------------------------------
    # link / switch failures
    # ------------------------------------------------------------------
    def _fault_links(self, fault: Union[LinkFailure, SwitchFailure]) -> List[LinkKey]:
        """Canonical links a fabric fault takes down (deterministic order)."""
        if isinstance(fault, SwitchFailure):
            graph = self.cluster.topology.graph
            return [_canon(fault.switch, nbr) for nbr in graph.adj[fault.switch]]
        if fault.link is not None:
            return [_canon(*fault.link)]
        access = self._access_link(fault.node)
        return [access] if access is not None else []

    def _fail_links(self, links: List[LinkKey]) -> int:
        """Ref-count links down; returns the number of 0→down transitions."""
        network = self.cluster.network
        recorder = self.tracker.recorder
        newly = 0
        for link in links:
            count = self._link_down_counts.get(link, 0)
            self._link_down_counts[link] = count + 1
            if count == 0 and network.set_link_down(link):
                newly += 1
                self.links_failed += 1
                if recorder.enabled:
                    recorder.emit(
                        LinkDown(t=self.sim.now, src=link[0], dst=link[1])
                    )
        return newly

    def _heal_links(self, links: List[LinkKey]) -> None:
        # like degradation restore, heals run even when stopped mid-run
        network = self.cluster.network
        recorder = self.tracker.recorder
        healed = 0
        for link in links:
            count = self._link_down_counts.get(link, 0) - 1
            if count > 0:
                self._link_down_counts[link] = count
                continue
            self._link_down_counts.pop(link, None)
            if network.set_link_up(link):
                healed += 1
                if recorder.enabled:
                    recorder.emit(
                        LinkUp(t=self.sim.now, src=link[0], dst=link[1])
                    )
        if healed:
            self._notify_routing()

    def _apply_fabric_fault(self, fault: Union[LinkFailure, SwitchFailure]) -> None:
        if self._stopped:
            return
        links = self._fault_links(fault)
        newly = self._fail_links(links)
        if isinstance(fault, SwitchFailure):
            self.switch_failures_injected += 1
            recorder = self.tracker.recorder
            if recorder.enabled:
                recorder.emit(
                    SwitchDown(t=self.sim.now, switch=fault.switch, links=newly)
                )
        else:
            self.link_failures_injected += 1
        if newly:
            self._notify_routing()
        self._pending.append(
            self.sim.schedule(fault.duration, self._heal_links, links)
        )
        if fault.every is not None:
            self._schedule_fabric_renewal(fault)

    def _schedule_fabric_renewal(
        self, fault: Union[LinkFailure, SwitchFailure]
    ) -> None:
        delay = float(self._linkfault_rng.exponential(fault.every))
        self._pending.append(
            self.sim.schedule(delay, self._apply_fabric_fault, fault)
        )

    def _notify_routing(self) -> None:
        """Tell the link-state control plane (if any) the fabric changed."""
        routing = getattr(self.cluster, "routing", None)
        if routing is not None:
            routing.on_fabric_change()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultInjector(crashes={self.crashes_injected}, "
            f"revivals={self.revivals}, "
            f"attempt_failures={self.attempt_failures_injected})"
        )
