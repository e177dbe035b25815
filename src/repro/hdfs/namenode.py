"""The NameNode: file creation, block metadata, replica lookup.

This is the subset of HDFS that MapReduce scheduling observes: where each
input block's replicas live.  The NameNode carves files into fixed-size
blocks, asks a :class:`~repro.hdfs.placement.PlacementPolicy` for replica
nodes, and answers the locality queries the schedulers and the cost model
issue (``replicas``, ``replica_indices``, ``is_local``, ``closest_replica``).

Replica sets are mutable through exactly two NameNode methods —
:meth:`NameNode.add_replica` / :meth:`NameNode.remove_replica`, driven by
the :class:`~repro.hdfs.replication.ReplicationMonitor` — so every locality
query above always sees the *current* layout.  Schedulers, like Hadoop's
JobClient, compute their input splits once at submission:
``JobCostModel`` snapshots replica indices when the job is created and
scores offers against that ingest layout even if repair later moves copies
(reads always fail over to a live replica regardless).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.cluster import Cluster
from repro.hdfs.block import Block, HDFSFile
from repro.hdfs.placement import PlacementPolicy, RackAwarePlacement
from repro.units import MB

__all__ = ["NameNode"]


class NameNode:
    """Block-metadata service for one cluster.

    Parameters
    ----------
    cluster:
        The cluster whose nodes store replicas.
    replication:
        Default replication factor for new files (the paper uses 2).
    policy:
        Replica placement policy; HDFS rack-aware by default.
    rng:
        Random generator driving placement decisions.  Required: every
        stream must be injected from the run's single ``SeedSequence``
        fan-out — a baked-in default seed would silently correlate
        placement with other subsystems (enforced by the
        ``rng-constant-seed`` rule of ``repro check``).
    block_size:
        Default block size for :meth:`create_file` (128 MB, as in the
        paper's example).
    """

    def __init__(
        self,
        cluster: Cluster,
        *,
        rng: np.random.Generator,
        replication: int = 2,
        policy: Optional[PlacementPolicy] = None,
        block_size: float = 128.0 * MB,
    ) -> None:
        if replication < 1:
            raise ValueError("replication must be >= 1")
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        if not isinstance(rng, np.random.Generator):
            raise TypeError(
                "NameNode needs an injected numpy.random.Generator "
                "(determinism contract)"
            )
        self.cluster = cluster
        self.replication = replication
        self.policy = policy if policy is not None else RackAwarePlacement()
        self.rng = rng
        self.block_size = block_size
        self.files: Dict[str, HDFSFile] = {}
        self._blocks: Dict[int, Block] = {}
        self._next_block_id = 0

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def create_file(
        self,
        name: str,
        size: float,
        *,
        block_size: Optional[float] = None,
        num_blocks: Optional[int] = None,
        replication: Optional[int] = None,
        writer: Optional[str] = None,
    ) -> HDFSFile:
        """Create a file of ``size`` bytes and place its replicas.

        Either ``block_size`` (blocks of that size, last one short) or
        ``num_blocks`` (size split evenly — used to honour the exact map
        counts of Table II) may be given, not both.
        """
        if name in self.files:
            raise ValueError(f"file {name!r} already exists")
        if size <= 0:
            raise ValueError(f"file size must be positive, got {size}")
        if block_size is not None and num_blocks is not None:
            raise ValueError("pass block_size or num_blocks, not both")
        rf = replication if replication is not None else self.replication

        sizes: List[float]
        if num_blocks is not None:
            if num_blocks < 1:
                raise ValueError("num_blocks must be >= 1")
            per = size / num_blocks
            sizes = [per] * num_blocks
        else:
            bs = block_size if block_size is not None else self.block_size
            full = int(size // bs)
            sizes = [bs] * full
            tail = size - full * bs
            if tail > 0 or not sizes:
                sizes.append(tail if tail > 0 else size)

        f = HDFSFile(name=name)
        for i, s in enumerate(sizes):
            nodes = self.policy.place(self.cluster, rf, self.rng, writer=writer)
            block = Block(
                block_id=self._next_block_id,
                file=name,
                index=i,
                size=s,
                replicas=tuple(nodes),
            )
            self._next_block_id += 1
            self._blocks[block.block_id] = block
            f.blocks.append(block)
        self.files[name] = f
        return f

    def delete_file(self, name: str) -> None:
        f = self.files.pop(name, None)
        if f is None:
            raise KeyError(f"no such file: {name!r}")
        for b in f.blocks:
            del self._blocks[b.block_id]

    # ------------------------------------------------------------------
    # replica-set mutation (the durability plane's write path)
    # ------------------------------------------------------------------
    def add_replica(self, block: Block, node_name: str) -> None:
        """Record a new replica of ``block`` on ``node_name``.

        Called by the ReplicationMonitor when a re-replication copy
        completes.  The block's (frozen) metadata is updated in place so
        every locality query immediately sees the new copy.
        """
        self.cluster.node(node_name)  # KeyError on unknown nodes
        if node_name in block.replicas:
            raise ValueError(
                f"block {block.block_id} already has a replica on {node_name}"
            )
        object.__setattr__(block, "replicas", block.replicas + (node_name,))

    def remove_replica(self, block: Block, node_name: str) -> None:
        """Drop ``node_name`` from ``block``'s replica set.

        Used for over-replication trimming and decommission release.  The
        last replica can never be dropped: metadata survives even when
        every holder is dead (HDFS keeps missing-block records too).
        """
        if node_name not in block.replicas:
            raise ValueError(
                f"block {block.block_id} has no replica on {node_name}"
            )
        if len(block.replicas) == 1:
            raise ValueError(
                f"cannot drop the last replica of block {block.block_id}"
            )
        object.__setattr__(
            block,
            "replicas",
            tuple(r for r in block.replicas if r != node_name),
        )

    # ------------------------------------------------------------------
    # reads / locality queries
    # ------------------------------------------------------------------
    def block(self, block_id: int) -> Block:
        return self._blocks[block_id]

    def replicas(self, block: Block) -> Tuple[str, ...]:
        """Node names holding the block."""
        return block.replicas

    def replica_indices(self, block: Block) -> np.ndarray:
        """Host indices of the block's replicas (for matrix lookups)."""
        return self._indices(block.replicas)

    def _indices(self, names: Sequence[str]) -> np.ndarray:
        node = self.cluster.node
        return np.fromiter((node(n).index for n in names), np.int64, len(names))

    def is_local(self, block: Block, node_name: str) -> bool:
        return node_name in block.replicas

    def is_rack_local(self, block: Block, node_name: str) -> bool:
        """True when some replica shares the node's rack (but see is_local)."""
        rack = self.cluster.node(node_name).rack
        return any(self.cluster.node(r).rack == rack for r in block.replicas)

    def nearest(
        self, node_name: str, holders: Sequence[str]
    ) -> Optional[Tuple[str, float]]:
        """``(holder, hops)`` for the holder fewest hops from ``node_name``,
        or None when ``holders`` is empty.  Ties go to the first holder in
        the given order."""
        if not holders:
            return None
        hops = self.cluster.hop_costs.take(
            self.cluster.node(node_name).index, self._indices(holders)
        )
        best = int(np.argmin(hops))
        return holders[best], float(hops[best])

    def closest_replica(self, block: Block, node_name: str) -> Tuple[str, float]:
        """Replica with minimum hop distance from ``node_name``.

        Returns ``(replica_node, hops)``.  Ties are broken by replica order,
        which is deterministic.  This realises the ``min over L_lj = 1`` term
        of Formula (1).
        """
        return self.nearest(node_name, block.replicas)

    def closest_live_replica(
        self, block: Block, node_name: str
    ) -> Optional[Tuple[str, float]]:
        """Like :meth:`closest_replica` but skipping dead replica hosts and
        replicas the reader cannot reach across the fabric.

        Returns ``None`` when no replica host is currently alive and
        reachable — the caller (a map attempt) must then wait for a host to
        rejoin or a failed link to heal.  With every node alive and the
        fabric healthy this returns exactly :meth:`closest_replica`.
        """
        network = self.cluster.network
        # a live replica may still sit behind a failed link/switch
        return self.nearest(node_name, [
            r for r in self.live_replicas(block)
            if not network.pair_blocked(r, node_name)
        ])

    def live_replicas(self, block: Block) -> Tuple[str, ...]:
        """Replica holders that are currently alive (readable copies)."""
        return tuple(
            r for r in block.replicas if self.cluster.node(r).alive
        )

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def blocks(self) -> List[Block]:
        """Every block in creation order (stable across runs)."""
        return list(self._blocks.values())

    def total_blocks(self) -> int:
        return len(self._blocks)

    def node_block_counts(self) -> Dict[str, int]:
        """Replica count per node — used to validate placement balance."""
        counts = {n.name: 0 for n in self.cluster.nodes}
        for b in self._blocks.values():
            for r in b.replicas:
                counts[r] += 1
        return counts
