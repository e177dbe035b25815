"""The runtime Job: tasks, intermediate-data matrix, progress bookkeeping.

A :class:`Job` materialises a :class:`~repro.workload.spec.JobSpec` inside a
running simulation: it creates the input file in HDFS (one block per map
task, as in Hadoop), draws the reducer partition weights and the full
intermediate matrix ``I`` (Section II-B-2), instantiates task objects, and
routes completion notifications — map outputs to running reducers, placement
events to any attached cost models, job completion to the tracker.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Callable, List, Optional, Set

import numpy as np

from repro.cache import caching_disabled
from repro.coherence import cached_on
from repro.engine.task import MapTask, ReduceTask, TaskState
from repro.metrics.records import JobRecord
from repro.workload.partition import intermediate_matrix, partition_weights
from repro.workload.spec import JobSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.jobtracker import JobTracker

__all__ = ["Job"]


class Job:
    """A submitted MapReduce job and its live state."""

    def __init__(self, spec: JobSpec, tracker: "JobTracker") -> None:
        self.spec = spec
        self.tracker = tracker
        self.submit_time = tracker.sim.now
        self.finish_time: Optional[float] = None

        rng = np.random.default_rng(
            np.random.SeedSequence([tracker.seed, spec.seed])
        )
        self.file = tracker.namenode.create_file(
            f"input-{spec.name}",
            spec.input_size,
            num_blocks=spec.num_maps,
        )
        self.weights = partition_weights(
            spec.num_reduces, spec.app.partition_alpha, rng
        )
        block_sizes = np.array([b.size for b in self.file.blocks])
        #: ``I[j, f]`` — intermediate bytes map j ultimately emits for reduce f.
        self.I = intermediate_matrix(
            block_sizes,
            spec.app.map_output_ratio,
            self.weights,
            rng,
            noise_sigma=spec.noise_sigma,
        )

        self.maps: List[MapTask] = [
            MapTask(self, j, block) for j, block in enumerate(self.file.blocks)
        ]
        self.reduces: List[ReduceTask] = [
            ReduceTask(self, f) for f in range(spec.num_reduces)
        ]
        self.maps_done = 0
        self.reduces_done = 0
        # node name -> count of this job's reducers running there (the Fair
        # scheduler may co-locate several; PNA/Coupling refuse to)
        self._reduce_node_counts: Counter = Counter()
        #: set True by :meth:`fail`; a failed job never completes
        self.failed = False
        #: node name -> charged task failures this job saw there
        self.node_failures: Counter = Counter()
        #: nodes this job refuses slots from (Hadoop per-job blacklisting)
        self.blacklisted: Set[str] = set()

        #: Hooks for cost models: called with the task on placement/completion.
        self.map_placed_listeners: List[Callable[[MapTask], None]] = []
        self.map_done_listeners: List[Callable[[MapTask], None]] = []
        #: called when a completed map's output is lost to node failure,
        #: *before* the task resets (listeners may read ``task.node``)
        self.map_lost_listeners: List[Callable[[MapTask], None]] = []

        # hot-path caches of the task-state queries below, dirty-flagged by
        # the task lifecycle methods (launch / finish / reset).  The
        # ``map_version`` counter lets external caches (JobCostModel's
        # completed-map arrays) key on "any map changed state/placement".
        # Under REPRO_NO_CACHE, @cached_on serves each view's reference.
        self._no_cache = caching_disabled()
        self.map_version = 0
        self.reduce_version = 0
        self._pending_maps: Optional[List[MapTask]] = None
        self._running_maps: Optional[List[MapTask]] = None
        self._pending_reduces: Optional[List[ReduceTask]] = None
        self._running_reduces: Optional[List[ReduceTask]] = None
        self._pending_map_idx: Optional[np.ndarray] = None
        self._pending_reduce_idx: Optional[np.ndarray] = None
        self._running_map_nodes: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # state queries
    # ------------------------------------------------------------------
    @property
    def num_maps(self) -> int:
        return self.spec.num_maps

    @property
    def num_reduces(self) -> int:
        return self.spec.num_reduces

    @property
    def all_maps_done(self) -> bool:
        return self.maps_done == self.num_maps

    @property
    def done(self) -> bool:
        return self.reduces_done == self.num_reduces and self.all_maps_done

    @property
    def map_completion_fraction(self) -> float:
        """Fraction of *completed* maps (Hadoop's slow-start measure)."""
        return self.maps_done / self.num_maps

    def map_progress(self, now: float) -> float:
        """Mean input-read progress across all maps (Coupling's measure)."""
        return float(
            sum(m.read_fraction(now) for m in self.maps) / self.num_maps
        )

    @cached_on(
        "map_version",
        invalidator="_invalidate_map_views",
        inputs=("MapTask.state", "MapTask.node"),
        reference="_pending_maps_uncached",
        probe=lambda self: self._pending_maps is not None,
    )
    def pending_maps(self) -> List[MapTask]:
        if self._pending_maps is None:
            self._pending_maps = self._pending_maps_uncached()
        return self._pending_maps

    @cached_on(
        "reduce_version",
        invalidator="_invalidate_reduce_views",
        inputs=("ReduceTask.state", "ReduceTask.node"),
        reference="_pending_reduces_uncached",
        probe=lambda self: self._pending_reduces is not None,
    )
    def pending_reduces(self) -> List[ReduceTask]:
        if self._pending_reduces is None:
            self._pending_reduces = self._pending_reduces_uncached()
        return self._pending_reduces

    def started_maps(self) -> List[MapTask]:
        return [m for m in self.maps if m.state is not TaskState.PENDING]

    @cached_on(
        "map_version",
        invalidator="_invalidate_map_views",
        reference="_running_maps_uncached",
        probe=lambda self: self._running_maps is not None,
    )
    def running_maps(self) -> List[MapTask]:
        if self._running_maps is None:
            self._running_maps = self._running_maps_uncached()
        return self._running_maps

    @cached_on(
        "reduce_version",
        invalidator="_invalidate_reduce_views",
        reference="_running_reduces_uncached",
        probe=lambda self: self._running_reduces is not None,
    )
    def running_reduces(self) -> List[ReduceTask]:
        if self._running_reduces is None:
            self._running_reduces = self._running_reduces_uncached()
        return self._running_reduces

    def _pending_maps_uncached(self) -> List[MapTask]:
        return [m for m in self.maps if m.state is TaskState.PENDING]

    def _pending_reduces_uncached(self) -> List[ReduceTask]:
        return [r for r in self.reduces if r.state is TaskState.PENDING]

    def _running_maps_uncached(self) -> List[MapTask]:
        return [m for m in self.maps if m.state is TaskState.RUNNING]

    def _running_reduces_uncached(self) -> List[ReduceTask]:
        return [r for r in self.reduces if r.state is TaskState.RUNNING]

    @cached_on(
        "map_version",
        invalidator="_invalidate_map_views",
        reference="_pending_map_index_array_uncached",
        probe=lambda self: self._pending_map_idx is not None,
    )
    def pending_map_index_array(self) -> np.ndarray:
        """Indices of pending maps, in task order (read-only int64)."""
        if self._pending_map_idx is None:
            idx = self._pending_map_index_array_uncached()
            idx.setflags(write=False)
            self._pending_map_idx = idx
        return self._pending_map_idx

    @cached_on(
        "reduce_version",
        invalidator="_invalidate_reduce_views",
        reference="_pending_reduce_index_array_uncached",
        probe=lambda self: self._pending_reduce_idx is not None,
    )
    def pending_reduce_index_array(self) -> np.ndarray:
        """Indices of pending reduces, in task order (read-only int64)."""
        if self._pending_reduce_idx is None:
            idx = self._pending_reduce_index_array_uncached()
            idx.setflags(write=False)
            self._pending_reduce_idx = idx
        return self._pending_reduce_idx

    @cached_on(
        "map_version",
        invalidator="_invalidate_map_views",
        reference="_running_map_node_index_array_uncached",
        probe=lambda self: self._running_map_nodes is not None,
    )
    def running_map_node_index_array(self) -> np.ndarray:
        """Node index of each running map, aligned with :meth:`running_maps`."""
        if self._running_map_nodes is None:
            idx = self._running_map_node_index_array_uncached()
            idx.setflags(write=False)
            self._running_map_nodes = idx
        return self._running_map_nodes

    def _pending_map_index_array_uncached(self) -> np.ndarray:
        pend = self.pending_maps()
        return np.fromiter((m.index for m in pend), np.int64, len(pend))

    def _pending_reduce_index_array_uncached(self) -> np.ndarray:
        pend = self.pending_reduces()
        return np.fromiter((r.index for r in pend), np.int64, len(pend))

    def _running_map_node_index_array_uncached(self) -> np.ndarray:
        run = self.running_maps()
        return np.fromiter((m.node.index for m in run), np.int64, len(run))

    def _invalidate_map_views(self) -> None:
        """A map task changed state or placement; drop derived caches."""
        self.map_version += 1
        self._pending_maps = None
        self._running_maps = None
        self._pending_map_idx = None
        self._running_map_nodes = None

    def _invalidate_reduce_views(self) -> None:
        """A reduce task changed state; drop derived caches."""
        self.reduce_version += 1
        self._pending_reduces = None
        self._running_reduces = None
        self._pending_reduce_idx = None

    def launched_reduce_count(self) -> int:
        """Reduces running or finished (Coupling's gradual-launch gate)."""
        return sum(1 for r in self.reduces if r.state is not TaskState.PENDING)

    def has_running_reduce_on(self, node_name: str) -> bool:
        """Algorithm 2 line 1: is a reducer of this job already on the node?"""
        return self._reduce_node_counts.get(node_name, 0) > 0

    def reduces_schedulable(self) -> bool:
        """Slow-start gate: reducers launch once enough maps completed."""
        if not self.pending_reduces():
            return False
        return self.map_completion_fraction >= self.tracker.config.slowstart

    # ------------------------------------------------------------------
    # notifications from tasks
    # ------------------------------------------------------------------
    def on_map_placed(self, task: MapTask) -> None:
        for hook in self.map_placed_listeners:
            hook(task)

    def on_map_done(self, task: MapTask) -> None:
        self.maps_done += 1
        self.tracker.journal_write("map_done", self.spec.job_id, task.index)
        for hook in self.map_done_listeners:
            hook(task)
        for r in self.running_reduces():
            r.on_map_output(task)

    def on_reduce_placed(self, task: ReduceTask) -> None:
        self._reduce_node_counts[task.node.name] += 1

    def on_reduce_unplaced(self, task: ReduceTask) -> None:
        """A reduce attempt died (kill/fail) — drop its placement count."""
        self._reduce_node_counts[task.node.name] -= 1
        if self._reduce_node_counts[task.node.name] <= 0:
            del self._reduce_node_counts[task.node.name]

    def on_reduce_done(self, task: ReduceTask) -> None:
        self.reduces_done += 1
        self.tracker.journal_write("reduce_done", self.spec.job_id, task.index)
        self._reduce_node_counts[task.node.name] -= 1
        if self._reduce_node_counts[task.node.name] <= 0:
            del self._reduce_node_counts[task.node.name]
        if self.done:
            self.finish_time = self.tracker.sim.now
            self.tracker.on_job_done(self)

    def on_map_lost(self, task: MapTask) -> None:
        """A completed map's output died with its node; it will re-run."""
        self.maps_done -= 1
        self.tracker.journal_write("map_lost", self.spec.job_id, task.index)
        for hook in self.map_lost_listeners:
            hook(task)

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------
    def note_node_failure(self, node_name: str) -> None:
        """Charge one task failure against ``node_name`` (blacklisting)."""
        self.node_failures[node_name] += 1
        threshold = self.tracker.config.max_task_failures_per_tracker
        if (
            self.node_failures[node_name] >= threshold
            and node_name not in self.blacklisted
        ):
            self.blacklisted.add(node_name)
            self.tracker.record_blacklisting(
                self, node_name, self.node_failures[node_name]
            )

    def kill_tasks_on(self, node) -> int:
        """Kill every attempt of this job running on ``node``; returns the
        number of attempts killed (node loss — not charged to the tasks)."""
        killed = 0
        for m in self.maps:
            if m.state is not TaskState.RUNNING:
                continue
            for attempt in [a for a in m.attempts if a.node is node]:
                m.kill_attempt(attempt)
                killed += 1
        for r in self.reduces:
            if r.state is TaskState.RUNNING and r.node is node:
                r.kill()
                killed += 1
        return killed

    def relaunch_lost_maps(self, node) -> int:
        """Re-execute completed maps whose output died with ``node``.

        Hadoop 1.x re-runs a completed map when its TaskTracker is lost and
        the job still has reduces that need the output; reducers that have
        already copied the partition keep their bytes.
        """
        lost = 0
        for m in self.maps:
            if m.state is not TaskState.DONE or m.node is not node:
                continue
            if not any(r.needs_map(m.index) for r in self.reduces):
                continue
            self.tracker.record_map_output_lost(self, m)
            self.on_map_lost(m)
            m.reset_after_output_loss()
            lost += 1
        return lost

    def fail(self, reason: str) -> None:
        """Abort the job (retry budget exhausted): kill all running work."""
        if self.failed or self.done:
            return
        self.failed = True
        for m in self.maps:
            if m.state is TaskState.RUNNING:
                for attempt in list(m.attempts):
                    m.kill_attempt(attempt, record=False)
        for r in self.reduces:
            if r.state is TaskState.RUNNING:
                r.kill(record=False)
        self.finish_time = self.tracker.sim.now
        self.tracker.on_job_failed(self, reason)

    # ------------------------------------------------------------------
    def record(self) -> JobRecord:
        if self.finish_time is None:
            raise RuntimeError(f"job {self.spec.job_id} has not finished")
        return JobRecord(
            job_id=self.spec.job_id,
            name=self.spec.name,
            app=self.spec.app.name,
            submit=self.submit_time,
            finish=self.finish_time,
            num_maps=self.num_maps,
            num_reduces=self.num_reduces,
            input_size=self.spec.input_size,
            shuffle_size=float(self.I.sum()),
        )

    def __repr__(self) -> str:
        return (
            f"Job({self.spec.name}, maps {self.maps_done}/{self.num_maps}, "
            f"reduces {self.reduces_done}/{self.num_reduces})"
        )
