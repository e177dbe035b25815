"""The HDFS durability plane: re-replication, decommissioning, data loss.

:class:`ReplicationMonitor` is the NameNode-side control loop that keeps
every block at its target replication factor while nodes crash, rejoin,
partition and drain:

* **block reports** — each scan diffs node liveness against the last scan;
  a node going down marks its replicas dead, a node rejoining reports its
  copies back in (possibly leaving blocks *over*-replicated, which are
  trimmed).
* **prioritised under-replication queues** — HDFS-style: blocks are queued
  by live-replica count and repaired lowest-count first, so an RF-1 block
  (one copy from loss) always beats an RF-2 block for the next repair slot.
* **real repair flows** — each re-replication is a
  :class:`~repro.cluster.network.FlowNetwork` flow from the closest live
  holder to a placement-policy-chosen target, so repair traffic shares
  links with shuffle fetches and PNA's measured network conditions see it.
  A source or target dying mid-copy cancels the flow (via the per-node
  repair index) and re-queues the block.
* **decommissioning** — :meth:`begin_decommission` is drain-safe: the
  node's copies stop counting toward targets (but stay readable, and serve
  as repair sources), and only when every dependent block is fully
  replicated *elsewhere* is the node released and taken out of service.
  Contrast with a crash, where the copies are gone first and repair runs
  after.
* **permanent-data-loss detection** — a block whose every holder is dead
  is marked lost (one typed ``block_lost`` trace event per loss episode);
  map attempts needing it fail with the ``input_lost`` reason instead of
  polling forever.  A holder rejoining un-marks the block and repair
  resumes.
* **hot blocks** — read counts (fed by map input opens) past
  ``hot_threshold`` raise a block's target by ``hot_extra``, so popular
  inputs gain replicas under sustained load.

With no :class:`DurabilityConfig` on the run the monitor is never
constructed and every code path above is dormant — runs are byte-identical
to a build without this module (transparency-tested like the telemetry,
metrics, journal and fabric planes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

import numpy as np

from repro.hdfs.block import Block
from repro.trace.events import (
    BlockLost,
    DecommissionDone,
    DecommissionStart,
    ReplicaAdded,
    ReplicaRemoved,
)

__all__ = ["DurabilityConfig", "ReplicationMonitor"]

#: on_data_loss policies: fail the job at loss detection, or keep charging
#: ``input_lost`` attempt failures (terminating via ``attempts_exhausted``
#: unless a holder revives in time).
ON_DATA_LOSS = ("abort", "retry")


@dataclass(frozen=True)
class DurabilityConfig:
    """Knobs of the durability plane (attach via ``EngineConfig(durability=...)``).

    check_period:
        Scan/repair-scheduling cadence of the monitor, simulated seconds
        (HDFS's ReplicationMonitor runs every 3 s).
    max_repairs:
        Concurrent re-replication flows cluster-wide.
    repair_rate:
        Per-repair-flow bandwidth cap in bytes/s (``None`` = unthrottled) —
        the ``dfs.datanode.balance.bandwidthPerSec`` analogue.
    on_data_loss:
        ``"abort"`` fails a job once a map's wait on a lost block exceeds
        ``loss_grace``; ``"retry"`` (Hadoop-faithful) charges each
        ``input_lost`` attempt failure toward ``max_attempts``, so the job
        still terminates — or survives, if a holder rejoins before the
        budget runs out.
    loss_grace:
        Seconds a map attempt keeps polling a *lost* block (every holder
        dead) before its typed ``input_lost`` failure, the analogue of the
        DFS client's block-recovery retry window.  Bounds the old infinite
        wait while giving transient simultaneous outages a chance to heal;
        ``0`` fails at the first poll that finds the block lost.
    hot_threshold:
        Reads of one block before it is considered hot (0 disables
        popularity tracking).
    hot_extra:
        Extra replicas a hot block's target gains.
    trim_excess:
        Drop surplus live copies when a rejoin leaves a block above target.
    """

    check_period: float = 3.0
    max_repairs: int = 4
    repair_rate: Optional[float] = None
    on_data_loss: str = "retry"
    loss_grace: float = 30.0
    hot_threshold: int = 0
    hot_extra: int = 1
    trim_excess: bool = True

    def __post_init__(self) -> None:
        if not self.check_period > 0:
            raise ValueError(
                f"check_period must be > 0, got {self.check_period}"
            )
        if self.max_repairs < 1:
            raise ValueError(
                f"max_repairs must be >= 1, got {self.max_repairs}"
            )
        if self.repair_rate is not None and not self.repair_rate > 0:
            raise ValueError(
                f"repair_rate must be > 0 or None, got {self.repair_rate}"
            )
        if self.on_data_loss not in ON_DATA_LOSS:
            raise ValueError(
                f"on_data_loss must be one of {ON_DATA_LOSS}, "
                f"got {self.on_data_loss!r}"
            )
        if not self.loss_grace >= 0:
            raise ValueError(
                f"loss_grace must be >= 0, got {self.loss_grace}"
            )
        if self.hot_threshold < 0:
            raise ValueError(
                f"hot_threshold must be >= 0, got {self.hot_threshold}"
            )
        if self.hot_extra < 1:
            raise ValueError(f"hot_extra must be >= 1, got {self.hot_extra}")


@dataclass
class _Repair:
    """One in-flight re-replication copy."""

    block_id: int
    src: str
    dst: str
    flow: object


class ReplicationMonitor:
    """NameNode control loop keeping blocks at their replication targets.

    Parameters
    ----------
    sim, cluster, namenode, tracker:
        The run's simulator, cluster, NameNode and JobTracker.  The tracker
        is consulted for ``all_done`` (the monitor drains its queues, then
        stops), its collector notes the durability events, and its
        ``on_node_crashed`` hook calls back into :meth:`on_node_crashed` so
        repair flows die with their endpoints.
    rng:
        Injected generator (one child of the run's ``SeedSequence`` fan-out)
        driving placement-policy target selection.
    config:
        The :class:`DurabilityConfig` knobs.
    """

    def __init__(
        self,
        sim,
        cluster,
        namenode,
        tracker,
        *,
        rng: np.random.Generator,
        config: Optional[DurabilityConfig] = None,
    ) -> None:
        if not isinstance(rng, np.random.Generator):
            raise TypeError(
                "ReplicationMonitor needs an injected numpy.random.Generator "
                "(determinism contract)"
            )
        self.sim = sim
        self.cluster = cluster
        self.namenode = namenode
        self.tracker = tracker
        self.rng = rng
        self.config = config if config is not None else DurabilityConfig()

        # block bookkeeping
        self._seen: Set[int] = set()
        self._base_target: Dict[int, int] = {}
        self._hot_bonus: Dict[int, int] = {}
        self._reads: Dict[int, int] = {}
        self._node_blocks: Dict[str, Set[int]] = {}
        #: live-replica count -> under-replicated block ids (the queues)
        self._queues: Dict[int, Set[int]] = {}
        self._overset: Set[int] = set()
        self._lost: Set[int] = set()

        # repair bookkeeping
        self._active: Dict[int, _Repair] = {}
        self._repairs_by_node: Dict[str, Set[int]] = {}

        # node / decommission state
        self._alive_known: Dict[str, bool] = {}
        self._decommissioning: Set[str] = set()
        self._released: Set[str] = set()

        self._stopped = False
        self._started = False

        # observability
        self.repairs_started = 0
        self.repairs_cancelled = 0
        self.blocks_recovered = 0
        self.replicas_trimmed = 0
        self.decommissions_started = 0
        #: sim time the under-replication queues last drained (None while
        #: blocks are still pending) — the "time to full replication".
        self.fully_replicated_at: Optional[float] = 0.0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the periodic scan.  Idempotent."""
        if self._started:
            return
        self._started = True
        self._alive_known = {
            n.name: bool(n.alive) for n in self.cluster.nodes
        }
        self.sim.schedule(self.config.check_period, self._tick)

    @property
    def stopped(self) -> bool:
        return self._stopped

    def _tick(self) -> None:
        if self._stopped:
            return
        self._scan()
        self._trim()
        self._schedule_repairs()
        self._check_decommissions()
        # a rejoin can drain the queues without any repair completing
        self._note_if_drained()
        if self._should_stop():
            self._stopped = True
            # the periodic metrics sampler stops when the jobs drain, but
            # the repair tail runs past that point: take one final sample
            # so the under-replication gauge's last value reflects it
            metrics = getattr(self.tracker, "metrics", None)
            if metrics is not None:
                metrics.sample()
            return
        self.sim.schedule(self.config.check_period, self._tick)

    def _should_stop(self) -> bool:
        """Stop once jobs are drained and no repair can make progress.

        While jobs run the monitor always keeps ticking (new blocks, new
        faults).  Afterwards it stays alive exactly as long as repairs are
        in flight or schedulable, so a run's event queue drains with every
        feasible block back at target — the run-end invariant.
        """
        if not getattr(self.tracker, "all_done", False):
            return False
        if self._active:
            return False
        # _schedule_repairs just ran and started nothing: every queued
        # block is unrepairable right now, and with the run over no node
        # will rejoin to change that.
        return True

    # ------------------------------------------------------------------
    # scanning: block discovery, liveness diffs, loss detection
    # ------------------------------------------------------------------
    def _scan(self) -> None:
        for block in self.namenode.blocks():
            if block.block_id not in self._seen:
                self._discover(block)
        changed: List[str] = []
        for name, was in self._alive_known.items():
            now = bool(self.cluster.node(name).alive)
            if now != was:
                self._alive_known[name] = now
                changed.append(name)
        for name in changed:
            # a rejoining node's block report and a dying node's losses
            # reduce to the same thing: reassess every block it holds
            for bid in sorted(self._node_blocks.get(name, set())):
                self._reassess(self.namenode.block(bid))

    def _discover(self, block: Block) -> None:
        self._seen.add(block.block_id)
        self._base_target[block.block_id] = len(block.replicas)
        for r in block.replicas:
            self._node_blocks.setdefault(r, set()).add(block.block_id)
        self._reassess(block)

    def target(self, block: Block) -> int:
        """Current replication target: ingest RF plus any hot-block bonus."""
        return self._base_target.get(
            block.block_id, len(block.replicas)
        ) + self._hot_bonus.get(block.block_id, 0)

    def _countable_replicas(self, block: Block) -> List[str]:
        """Holders counting toward the target: alive, reachable, not
        draining.  (Decommissioning copies stay readable but must be
        replaced; isolated copies may heal, so they're re-replicated
        around but never declared lost.)"""
        isolated = self.cluster.network.isolated_hosts()
        return [
            r
            for r in block.replicas
            if self.cluster.node(r).alive
            and r not in self._decommissioning
            and r not in isolated
        ]

    def _reassess(self, block: Block) -> None:
        """Re-bucket one block after any state change touching it."""
        bid = block.block_id
        live = self._countable_replicas(block)
        self._dequeue(bid)
        self._overset.discard(bid)

        any_alive = any(
            self.cluster.node(r).alive for r in block.replicas
        )
        if not any_alive:
            if bid not in self._lost:
                self._lost.add(bid)
                self.tracker.collector.note(
                    BlockLost(
                        t=self.sim.now,
                        block_id=bid,
                        file=block.file,
                        index=block.index,
                        size=block.size,
                    )
                )
            return
        if bid in self._lost:
            # a holder rejoined: the block is readable again
            self._lost.discard(bid)
            self.blocks_recovered += 1

        target = self.target(block)
        if len(live) < target:
            self._queues.setdefault(len(live), set()).add(bid)
            self.fully_replicated_at = None
        elif len(live) > target and self.config.trim_excess:
            self._overset.add(bid)

    def _dequeue(self, bid: int) -> None:
        for bucket in self._queues.values():
            bucket.discard(bid)

    def under_replicated_count(self) -> int:
        """Blocks currently below target (the gauge the metrics plane samples)."""
        return sum(len(b) for b in self._queues.values())

    def under_replicated(self) -> List[Block]:
        """The queued blocks, most urgent (fewest live replicas) first."""
        out: List[Block] = []
        for live in sorted(self._queues):
            for bid in sorted(self._queues[live]):
                out.append(self.namenode.block(bid))
        return out

    def lost_blocks(self) -> List[Block]:
        return [self.namenode.block(bid) for bid in sorted(self._lost)]

    def block_lost(self, block: Block) -> bool:
        """Is this block currently marked permanently lost?

        ``MapAttempt`` consults this when ``closest_live_replica`` comes up
        empty: ``True`` turns the infinite poll into a typed ``input_lost``
        failure, ``False`` means the outage may heal and the poll goes on.
        """
        return block.block_id in self._lost

    # ------------------------------------------------------------------
    # repair scheduling
    # ------------------------------------------------------------------
    def unrepairable(self, block: Block) -> bool:
        """True when no repair of ``block`` could start right now (no live
        reachable source, or no placement target left)."""
        return self._pick_endpoints(block) is None

    def _pick_endpoints(self, block: Block) -> Optional[tuple]:
        """(src, dst) for one repair copy, or None when infeasible.

        Target first (placement-policy-driven), then the closest live
        holder that can reach it — ties broken by replica order.  Draining
        holders are valid sources (that's what makes decommission safe)
        but never targets.
        """
        network = self.cluster.network
        isolated = network.isolated_hosts()
        sources = [
            r for r in self.namenode.live_replicas(block) if r not in isolated
        ]
        if not sources:
            return None
        exclude = {
            n.name
            for n in self.cluster.nodes
            if not n.alive
            or n.name in isolated
            or n.name in self._decommissioning
        }
        dst = self.namenode.policy.choose_target(
            self.cluster, block.replicas, self.rng, exclude=sorted(exclude)
        )
        if dst is None:
            return None
        nearest = self.namenode.nearest(
            dst, [r for r in sources if not network.pair_blocked(r, dst)]
        )
        if nearest is None:
            return None
        return nearest[0], dst

    def _schedule_repairs(self) -> None:
        free = self.config.max_repairs - len(self._active)
        if free <= 0:
            return
        for live in sorted(self._queues):
            for bid in sorted(self._queues[live]):
                if free <= 0:
                    return
                if bid in self._active or bid in self._lost:
                    continue
                if self._start_repair(self.namenode.block(bid)):
                    free -= 1

    def _start_repair(self, block: Block) -> bool:
        endpoints = self._pick_endpoints(block)
        if endpoints is None:
            return False
        src, dst = endpoints
        rate = self.config.repair_rate
        bid = block.block_id
        flow = self.cluster.network.start_flow(
            src,
            dst,
            block.size,
            lambda _flow: self._repair_done(bid),
            max_rate=float("inf") if rate is None else rate,
        )
        repair = _Repair(block_id=bid, src=src, dst=dst, flow=flow)
        self._active[bid] = repair
        self._repairs_by_node.setdefault(src, set()).add(bid)
        self._repairs_by_node.setdefault(dst, set()).add(bid)
        self.repairs_started += 1
        return True

    def _repair_done(self, bid: int) -> None:
        repair = self._active.get(bid)
        if repair is None:  # cancelled concurrently; nothing to record
            return
        self._detach(repair)
        block = self.namenode.block(repair.block_id)
        self.namenode.add_replica(block, repair.dst)
        self._node_blocks.setdefault(repair.dst, set()).add(repair.block_id)
        self.tracker.collector.note(
            ReplicaAdded(
                t=self.sim.now,
                block_id=block.block_id,
                file=block.file,
                node=repair.dst,
                src=repair.src,
                size=block.size,
                replicas=len(block.replicas),
            )
        )
        self._reassess(block)
        self._note_if_drained()
        self._check_decommissions()

    def _detach(self, repair: _Repair) -> None:
        self._active.pop(repair.block_id, None)
        for node in (repair.src, repair.dst):
            blocks = self._repairs_by_node.get(node)
            if blocks is not None:
                blocks.discard(repair.block_id)
                if not blocks:
                    del self._repairs_by_node[node]

    def _note_if_drained(self) -> None:
        if (
            self.fully_replicated_at is None
            and not self._active
            and self.under_replicated_count() == 0
        ):
            self.fully_replicated_at = self.sim.now

    # ------------------------------------------------------------------
    # node events
    # ------------------------------------------------------------------
    def on_node_crashed(self, node) -> None:
        """Physical-crash hook (called from the JobTracker's): cancel every
        repair reading from or writing to the dead node and re-queue the
        blocks.  Replica accounting itself happens at the next scan, like
        HDFS learning of a death through missed DataNode heartbeats."""
        if self._stopped:
            return
        name = node.name
        for bid in sorted(self._repairs_by_node.get(name, set())):
            repair = self._active.get(bid)
            if repair is None:
                continue
            self.cluster.network.cancel_flow(repair.flow)
            self._detach(repair)
            self.repairs_cancelled += 1
            self._reassess(self.namenode.block(bid))

    # ------------------------------------------------------------------
    # popularity tracking
    # ------------------------------------------------------------------
    def note_read(self, block: Block) -> None:
        """Count one read of ``block`` (a map attempt opening its input);
        past ``hot_threshold`` the block's target gains ``hot_extra``."""
        if self._stopped or self.config.hot_threshold <= 0:
            return
        bid = block.block_id
        count = self._reads.get(bid, 0) + 1
        self._reads[bid] = count
        if (
            count >= self.config.hot_threshold
            and self._hot_bonus.get(bid, 0) < self.config.hot_extra
        ):
            self._hot_bonus[bid] = self.config.hot_extra
            if bid in self._seen:
                self._reassess(block)

    # ------------------------------------------------------------------
    # over-replication trimming
    # ------------------------------------------------------------------
    def _trim(self) -> None:
        for bid in sorted(self._overset):
            block = self.namenode.block(bid)
            while True:
                live = self._countable_replicas(block)
                if len(live) <= self.target(block):
                    break
                victim = self._trim_victim(block, live)
                self.namenode.remove_replica(block, victim)
                self._node_blocks.get(victim, set()).discard(bid)
                self.replicas_trimmed += 1
                self.tracker.collector.note(
                    ReplicaRemoved(
                        t=self.sim.now,
                        block_id=bid,
                        file=block.file,
                        node=victim,
                        replicas=len(block.replicas),
                    )
                )
            self._reassess(block)

    def _trim_victim(self, block: Block, live: List[str]) -> str:
        """Drop the live copy on the most replica-loaded node (rebalancing
        flavour); ties go to the later replica, so the ingest layout wins."""
        best = live[0]
        best_load = len(self._node_blocks.get(best, ()))
        for r in live[1:]:
            load = len(self._node_blocks.get(r, ()))
            if load >= best_load:
                best, best_load = r, load
        return best

    # ------------------------------------------------------------------
    # decommissioning
    # ------------------------------------------------------------------
    def begin_decommission(self, node_name: str) -> None:
        """Start drain-safe decommissioning of ``node_name``.

        No-op if the node is already draining or released.  The node keeps
        serving reads and repair sources; it is released (taken out of
        service) only when no block depends on it for its target.
        """
        if (
            node_name in self._decommissioning
            or node_name in self._released
            or self._stopped
        ):
            return
        self.cluster.node(node_name)  # KeyError on unknown nodes
        self._decommissioning.add(node_name)
        self.decommissions_started += 1
        recorder = self.tracker.recorder
        if recorder.enabled:
            recorder.emit(
                DecommissionStart(
                    t=self.sim.now,
                    node=node_name,
                    blocks=len(self._node_blocks.get(node_name, ())),
                )
            )
        for bid in sorted(self._node_blocks.get(node_name, set())):
            self._reassess(self.namenode.block(bid))
        # drain promptly: don't wait out the current check period
        self._schedule_repairs()
        self._check_decommissions()

    def decommissioning(self, node_name: str) -> bool:
        return node_name in self._decommissioning

    def _check_decommissions(self) -> None:
        for name in sorted(self._decommissioning):
            node = self.cluster.node(name)
            if node.alive and not self._drained(name):
                continue
            # released: drop its copies from the metadata (every dependent
            # block is at target elsewhere, or the node died mid-drain and
            # its copies are gone anyway) and take it out of service
            self._decommissioning.discard(name)
            self._released.add(name)
            dropped = 0
            for bid in sorted(self._node_blocks.get(name, set()).copy()):
                block = self.namenode.block(bid)
                if len(block.replicas) > 1 and name in block.replicas:
                    self.namenode.remove_replica(block, name)
                    self._node_blocks[name].discard(bid)
                    dropped += 1
                    self.tracker.collector.note(
                        ReplicaRemoved(
                            t=self.sim.now,
                            block_id=bid,
                            file=block.file,
                            node=name,
                            replicas=len(block.replicas),
                        )
                    )
                self._reassess(block)
            self.tracker.collector.note(
                DecommissionDone(t=self.sim.now, node=name, blocks=dropped)
            )
            if node.alive:
                node.alive = False
                node.incarnation += 1
                self.tracker.on_node_crashed(node)

    def _drained(self, name: str) -> bool:
        """Every block holding a copy on ``name`` is at target without it."""
        for bid in sorted(self._node_blocks.get(name, set())):
            block = self.namenode.block(bid)
            if name not in block.replicas:
                continue
            live = self._countable_replicas(block)
            if len(live) < self.target(block):
                return False
        return True
