"""Map and reduce task runtime objects.

Execution model (Section 5 of DESIGN.md):

* A **map task** assigned to node ``i`` streams its input block from the
  closest replica (Formula 1's ``min over L_lj = 1``) through a network flow
  capped at the application's per-slot compute rate, so transfer and compute
  are pipelined and ``d_read`` — the byte count Hadoop heartbeats report —
  equals the flow's delivered bytes.  Task time ≈ overhead + B / min(path
  rate, compute rate).
* A **reduce task** assigned to node ``i`` fetches every feeding map's
  partition output (``I[j, f]`` bytes from map ``j``'s node) with a bounded
  pool of parallel fetchers, then runs a merge/reduce compute phase
  proportional to the shuffled volume.

Progress introspection used by the schedulers:

* ``MapTask.d_read(now)`` / ``read_fraction(now)`` — input progress;
* ``MapTask.current_output(now)`` — the ``A_jf`` vector of Section II-B-2
  (``I[j, :] * read_fraction ** gamma``, with gamma = 1 for the benchmark
  applications).

Failure semantics (Hadoop 1.x):

* an attempt killed by **node loss** releases its slot and the task returns
  to PENDING for re-scheduling — the kill is not charged to the task;
* an injected **task error** (``MapAttempt.fail`` / ``ReduceTask.fail``)
  is charged: ``failures`` counts toward ``max_attempts``, after which the
  job aborts, and toward per-job node blacklisting;
* a completed map whose node dies loses its output; if any unfinished
  reduce still needs the partition the task is reset and re-executed, and
  reduces re-fetch from the re-run (``ReduceTask`` tracks per-map delivery
  so bytes already copied are never fetched twice).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, List, Optional, Set, Tuple

import numpy as np

from repro.cluster.network import Flow
from repro.cluster.node import Node
from repro.engine.shuffle import _MIN_FETCH_BYTES, FetchManager
from repro.hdfs.block import Block
from repro.metrics.records import TaskRecord
from repro.trace.events import INPUT_LOST, TaskFinish, TaskStart

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.engine.job import Job
    from repro.sim import Event

__all__ = ["TaskState", "MapAttempt", "MapTask", "ReduceTask"]


class TaskState(enum.Enum):
    """Lifecycle of a task attempt: pending → running → done."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"


def _classify_locality(node: Node, data_nodes: List[str], cluster) -> str:
    """Locality class of running on ``node`` given where the data lives."""
    if node.name in data_nodes:
        return "node"
    rack = node.rack
    if any(cluster.node(d).rack == rack for d in data_nodes):
        return "rack"
    return "remote"


class MapAttempt:
    """One execution attempt of a map task (normal or speculative).

    Each attempt holds its own map slot and input flow; the first attempt to
    deliver the full block wins the task, and the engine cancels the rest.
    """

    def __init__(self, task: "MapTask", node: Node, *, speculative: bool) -> None:
        self.task = task
        self.node = node
        self.speculative = speculative
        self.start_time = task.job.tracker.sim.now
        self.source, self.hops = task.job.tracker.namenode.closest_replica(
            task.block, node.name
        )
        self.flow: Optional[Flow] = None
        self.cancelled = False
        #: sim time this attempt first found its block marked lost (every
        #: holder dead); bounds the replica wait via ``loss_grace``
        self._lost_since: Optional[float] = None
        node.acquire_map_slot()
        overhead = task.job.spec.app.task_overhead
        task.job.tracker.sim.schedule(overhead, self._start_input)
        faults = task.job.tracker.faults
        if faults is not None:
            faults.on_map_attempt(self)

    def _start_input(self) -> None:
        if self.cancelled:
            return
        if self.flow is not None and not self.flow.done:
            return
        if not self.node.alive:
            return  # frozen; the tracker kills this attempt at expiry
        tracker = self.task.job.tracker
        if (
            self.source is None
            or not tracker.cluster.node(self.source).alive
            or tracker.cluster.network.pair_blocked(self.source, self.node.name)
        ):
            # fail over to another replica if the chosen one is dead *or*
            # unreachable across the fabric (failed link/switch en route)
            resolved = tracker.namenode.closest_live_replica(
                self.task.block, self.node.name
            )
            if resolved is None:
                monitor = tracker.replication
                if monitor is not None and monitor.block_lost(self.task.block):
                    # every holder is dead: wait out loss_grace (a holder
                    # may still rejoin), then a typed, charged failure
                    # instead of an endless poll
                    now = tracker.sim.now
                    if self._lost_since is None:
                        self._lost_since = now
                    if now - self._lost_since >= monitor.config.loss_grace:
                        self._fail_input_lost()
                        return
                else:
                    self._lost_since = None
                # every replica host is down or unreachable; poll until one
                # rejoins or the partition heals
                self.source = None
                tracker.sim.schedule(
                    tracker.config.heartbeat_period, self._start_input
                )
                return
            self._lost_since = None
            self.source, self.hops = resolved
        monitor = tracker.replication
        if monitor is not None:
            monitor.note_read(self.task.block)
        rate_cap = self.task.job.spec.app.map_rate * self.node.compute_factor
        self.flow = tracker.cluster.network.start_flow(
            self.source,
            self.node.name,
            self.task.size,
            on_complete=self._on_input_done,
            max_rate=rate_cap,
            local_rate=self.node.disk_bandwidth,
        )

    def _on_input_done(self, flow: Flow) -> None:
        if self.cancelled:
            return
        self.task._attempt_finished(self)

    def _fail_input_lost(self) -> None:
        """The input block is permanently lost: retire this attempt charged.

        Unlike a task error the node is blameless, so the failure never
        counts toward blacklisting.  Under ``on_data_loss="retry"`` the
        task re-enters PENDING and terminates via ``attempts_exhausted``
        (or succeeds, if a holder rejoins first); under ``"abort"`` the
        job fails immediately with the ``input_lost`` reason.
        """
        task = self.task
        tracker = task.job.tracker
        job = task.job
        node_name = self.node.name
        self.cancel()
        if self in task.attempts:
            task.attempts.remove(self)
            task.past_attempts += 1
        task.failures += 1
        if task.state is TaskState.RUNNING and not task.attempts:
            task._reset_to_pending()
        tracker.record_attempt_failure(
            job, "map", task.index, node_name, task.failures,
            reason=INPUT_LOST, blacklist=False,
        )
        if (
            tracker.config.durability is not None
            and tracker.config.durability.on_data_loss == "abort"
            and job in tracker.active_jobs
        ):
            job.fail(INPUT_LOST)

    def cancel(self) -> None:
        """Abort a losing attempt: free its slot and in-flight transfer."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.flow is not None and not self.flow.done:
            self.task.job.tracker.cluster.network.cancel_flow(self.flow)
        self.node.release_map_slot()

    def fail(self) -> None:
        """An injected task error: charge the task and retire the attempt."""
        if self.cancelled or self.task.done:
            return
        if self not in self.task.attempts:
            # stale: the task was reset (e.g. lost output) after this
            # failure was scheduled; the attempt no longer holds anything
            return
        self.task.on_attempt_failed(self)

    def on_node_crashed(self, dead: Node) -> None:
        """Physical crash handling: freeze or fail over this attempt's I/O.

        If *our* node died the input flow is frozen (the slot stays held
        until the tracker notices via expiry).  If the *source replica*
        died the read restarts from another live replica — conservatively
        from byte zero, like a reader losing its datanode connection.
        """
        if self.cancelled or self.task.done:
            return
        if self.node is dead:
            if self.flow is not None and not self.flow.done:
                self.task.job.tracker.cluster.network.cancel_flow(self.flow)
                self.flow = None
            return
        if self.source == dead.name and self.flow is not None and not self.flow.done:
            self.task.job.tracker.cluster.network.cancel_flow(self.flow)
            self.flow = None
            self.source = None
            self._start_input()

    def d_read(self, now: float) -> float:
        if self.flow is None:
            return 0.0
        return self.flow.bytes_done(now)


class MapTask:
    """One map task: processes exactly one input block.

    A task may run several :class:`MapAttempt` instances when speculative
    execution is on; ``node``/``start_time``/``end_time`` describe the
    *primary* attempt until a winner emerges, then the winner.  Progress
    queries (``d_read``) report the most advanced live attempt — the one
    whose output the shuffle will eventually use.
    """

    def __init__(self, job: "Job", index: int, block: Block) -> None:
        self.job = job
        self.index = index
        self.block = block
        self.state = TaskState.PENDING
        #: sim-time the task (re-)entered PENDING — at creation, job-submit
        #: time; read by the metrics plane for offer-to-assign latency
        self.pending_since = job.tracker.sim.now
        self.node: Optional[Node] = None
        self.source: Optional[str] = None
        self.hops: float = 0.0
        self.start_time: float = float("nan")
        self.end_time: float = float("nan")
        self.attempts: List[MapAttempt] = []
        #: attempts retired in earlier executions (kills, failures, lost
        #: output re-runs); task records report past + live attempts
        self.past_attempts = 0
        #: charged failures (task errors), bounded by ``max_attempts``
        self.failures = 0

    # ------------------------------------------------------------------
    @property
    def size(self) -> float:
        """Input bytes (``B_j``)."""
        return self.block.size

    @property
    def assigned(self) -> bool:
        return self.state is not TaskState.PENDING

    @property
    def done(self) -> bool:
        return self.state is TaskState.DONE

    @property
    def speculatable(self) -> bool:
        """Eligible for a backup attempt: running with a single attempt."""
        return self.state is TaskState.RUNNING and len(self.attempts) == 1

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def launch(self, node: Node) -> None:
        """Start the primary attempt on ``node`` (acquires a map slot)."""
        if self.state is not TaskState.PENDING:
            raise RuntimeError(f"{self} launched twice")
        self.state = TaskState.RUNNING
        self.start_time = self.job.tracker.sim.now
        attempt = MapAttempt(self, node, speculative=False)
        self.attempts.append(attempt)
        self.node = node
        self.source = attempt.source
        self.hops = attempt.hops
        self.job._invalidate_map_views()
        recorder = self.job.tracker.recorder
        if recorder.enabled:
            recorder.emit(
                TaskStart(
                    t=self.start_time, node=node.name, kind="map",
                    job_id=self.job.spec.job_id, task_index=self.index,
                )
            )
        self.job.on_map_placed(self)

    def launch_speculative(self, node: Node) -> None:
        """Start a backup attempt on ``node`` (Hadoop speculation)."""
        if self.state is not TaskState.RUNNING:
            raise RuntimeError(f"cannot speculate {self}")
        if any(a.node is node for a in self.attempts):
            raise RuntimeError(f"{self} already has an attempt on {node.name}")
        self.attempts.append(MapAttempt(self, node, speculative=True))
        recorder = self.job.tracker.recorder
        if recorder.enabled:
            recorder.emit(
                TaskStart(
                    t=self.job.tracker.sim.now, node=node.name, kind="map",
                    job_id=self.job.spec.job_id, task_index=self.index,
                    speculative=True,
                )
            )

    def _attempt_finished(self, winner: MapAttempt) -> None:
        tracker = self.job.tracker
        self.state = TaskState.DONE
        self.end_time = tracker.sim.now
        # the winning attempt defines the task's placement from here on
        self.node = winner.node
        self.source = winner.source
        self.hops = winner.hops
        self.job._invalidate_map_views()
        winner.node.release_map_slot()
        for attempt in self.attempts:
            if attempt is not winner:
                attempt.cancel()
        locality = _classify_locality(
            winner.node, list(self.block.replicas), tracker.cluster
        )
        attempts = self.past_attempts + len(self.attempts)
        tracker.collector.task_completed(
            TaskRecord(
                job_id=self.job.spec.job_id,
                kind="map",
                index=self.index,
                node=winner.node.name,
                start=self.start_time,
                end=self.end_time,
                locality=locality,
                bytes_in=self.size,
                bytes_moved=0.0 if locality == "node" else self.size,
                cost=self.size * self.hops,
                attempts=attempts,
            )
        )
        if tracker.recorder.enabled:
            tracker.recorder.emit(
                TaskFinish(
                    t=self.end_time, node=winner.node.name, kind="map",
                    job_id=self.job.spec.job_id, task_index=self.index,
                    locality=locality, attempts=attempts,
                )
            )
        self.job.on_map_done(self)

    # ------------------------------------------------------------------
    # failure paths
    # ------------------------------------------------------------------
    def _reset_to_pending(self) -> None:
        """Return to PENDING for re-scheduling (slots already released)."""
        self.past_attempts += len(self.attempts)
        self.attempts = []
        self.state = TaskState.PENDING
        self.pending_since = self.job.tracker.sim.now
        self.node = None
        self.source = None
        self.hops = 0.0
        self.start_time = float("nan")
        self.end_time = float("nan")
        self.job._invalidate_map_views()

    def kill_attempt(self, attempt: MapAttempt, *, record: bool = True) -> None:
        """Kill one attempt (node loss / job abort) — not charged.

        When the last live attempt dies the task returns to PENDING and
        will be re-scheduled on a later heartbeat.
        """
        if attempt not in self.attempts:
            return
        node_name = attempt.node.name
        attempt.cancel()
        self.attempts.remove(attempt)
        self.past_attempts += 1
        if self.state is TaskState.RUNNING and not self.attempts:
            self._reset_to_pending()
        if record:
            self.job.tracker.record_attempt_killed(
                self.job, "map", self.index, node_name, self.failures
            )

    def on_attempt_failed(self, attempt: MapAttempt) -> None:
        """Charge an injected task error against this task's retry budget."""
        node_name = attempt.node.name
        attempt.cancel()
        if attempt in self.attempts:
            self.attempts.remove(attempt)
            self.past_attempts += 1
        self.failures += 1
        if self.state is TaskState.RUNNING and not self.attempts:
            self._reset_to_pending()
        self.job.tracker.record_attempt_failure(
            self.job, "map", self.index, node_name, self.failures
        )

    def reset_after_output_loss(self) -> None:
        """A completed map's node died: forget the execution and re-run."""
        if self.state is not TaskState.DONE:
            raise RuntimeError(f"{self} has no completed output to lose")
        self._reset_to_pending()

    # ------------------------------------------------------------------
    # progress (heartbeat payload)
    # ------------------------------------------------------------------
    def d_read(self, now: float) -> float:
        """Input bytes read so far (``d_read^j``) — best live attempt."""
        if self.done:
            return self.size
        if not self.attempts:
            return 0.0
        return max(a.d_read(now) for a in self.attempts)

    def read_fraction(self, now: float) -> float:
        if self.size <= 0:
            return 1.0
        return self.d_read(now) / self.size

    def current_output(self, now: float) -> np.ndarray:
        """Current per-reducer intermediate sizes (``A_j·`` in the paper)."""
        frac = self.read_fraction(now)
        gamma = self.job.spec.app.output_gamma
        return self.job.I[self.index] * (frac**gamma)

    def __repr__(self) -> str:
        return (
            f"MapTask({self.job.spec.job_id}/m{self.index}, "
            f"{self.state.value}, node={self.node.name if self.node else None})"
        )


class ReduceTask:
    """One reduce task: fetches a key-space partition, then reduces it."""

    def __init__(self, job: "Job", index: int) -> None:
        self.job = job
        self.index = index
        self.state = TaskState.PENDING
        #: sim-time the task (re-)entered PENDING (see MapTask)
        self.pending_since = job.tracker.sim.now
        self.node: Optional[Node] = None
        self.start_time: float = float("nan")
        self.end_time: float = float("nan")
        self.computing = False
        self._fetch: Optional[FetchManager] = None
        self._finish_event: Optional["Event"] = None
        #: map indices whose partition bytes this attempt holds
        self._delivered: Set[int] = set()
        #: map indices enqueued with the fetcher but not yet delivered
        self._requested: Set[int] = set()
        #: bumped on every (re)launch/teardown so stale events are inert
        self.attempt_epoch = 0
        #: charged failures (task errors), bounded by ``max_attempts``
        self.failures = 0
        self.past_attempts = 0

    # ------------------------------------------------------------------
    @property
    def assigned(self) -> bool:
        return self.state is not TaskState.PENDING

    @property
    def done(self) -> bool:
        return self.state is TaskState.DONE

    @property
    def shuffled_bytes(self) -> float:
        return self._fetch.fetched if self._fetch is not None else 0.0

    def needs_map(self, map_index: int) -> bool:
        """Does this reduce still need map ``map_index``'s output?

        Used on node loss to decide whether a completed map on the dead
        node must re-execute.  Computing/finished attempts hold their
        bytes; a running attempt needs every undelivered non-empty
        partition; a pending task will need all of them.
        """
        if self.state is TaskState.DONE or self.computing:
            return False
        if float(self.job.I[map_index, self.index]) <= _MIN_FETCH_BYTES:
            return False
        if self.state is TaskState.RUNNING:
            return map_index not in self._delivered
        return True

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def launch(self, node: Node) -> None:
        """Start on ``node``: fetch phase begins after start-up overhead."""
        if self.state is not TaskState.PENDING:
            raise RuntimeError(f"{self} launched twice")
        tracker = self.job.tracker
        node.acquire_reduce_slot()
        self.node = node
        self.state = TaskState.RUNNING
        self.start_time = tracker.sim.now
        self.job._invalidate_reduce_views()
        epoch = self.attempt_epoch
        if tracker.recorder.enabled:
            tracker.recorder.emit(
                TaskStart(
                    t=self.start_time, node=node.name, kind="reduce",
                    job_id=self.job.spec.job_id, task_index=self.index,
                )
            )
        self.job.on_reduce_placed(self)
        overhead = self.job.spec.app.task_overhead
        tracker.sim.schedule(overhead, self._start_fetching, epoch)
        if tracker.faults is not None:
            tracker.faults.on_reduce_attempt(self)

    def _start_fetching(self, epoch: int) -> None:
        if epoch != self.attempt_epoch or self.state is not TaskState.RUNNING:
            return
        tracker = self.job.tracker
        self._fetch = FetchManager(
            network=tracker.cluster.network,
            dst=self.node.name,
            max_parallel=tracker.config.max_parallel_fetches,
            on_progress=self._maybe_compute,
            recorder=tracker.recorder,
            job_id=self.job.spec.job_id,
            reduce_index=self.index,
            on_fetched=self._on_fetched,
            metrics=tracker.metrics,
            retry_period=tracker.config.heartbeat_period,
        )
        for m in self.job.maps:
            if m.done:
                self._request(m)
        self._maybe_compute()

    def on_map_output(self, map_task: MapTask) -> None:
        """A feeding map finished while this reduce runs: fetch its output."""
        if self._fetch is None:
            return  # still in start-up overhead; _start_fetching will pick it up
        self._request(map_task)
        self._maybe_compute()

    def _request(self, map_task: MapTask) -> None:
        """Enqueue one completed map's partition (idempotent per delivery)."""
        j = map_task.index
        if j in self._delivered or j in self._requested:
            return
        if self.node is None or not self.node.alive:
            return  # frozen on a dead node; the tracker will kill us
        nbytes = float(self.job.I[j, self.index])
        if nbytes <= _MIN_FETCH_BYTES:
            self._delivered.add(j)  # empty partition: nothing to copy
            return
        self._requested.add(j)
        self._fetch.add(map_task.node.name, nbytes, key=j)

    def _on_fetched(self, keys: Tuple[int, ...]) -> None:
        self._delivered.update(keys)
        self._requested.difference_update(keys)

    def on_source_lost(self, node_name: str) -> None:
        """A source node died: abort its fetches and forget the requests.

        The lost partitions re-enter via ``on_map_output`` once their maps
        re-execute; bytes already fully delivered are kept (a reducer never
        re-copies output it already holds).
        """
        if self._fetch is None:
            return
        lost = self._fetch.abort_source(node_name)
        self._requested.difference_update(lost)

    def _maybe_compute(self) -> None:
        """Enter the reduce/merge phase once every byte has arrived."""
        if self.computing or self.state is not TaskState.RUNNING:
            return
        if self._fetch is None or not self._fetch.idle:
            return
        if len(self._delivered) < self.job.num_maps:
            return
        self.computing = True
        node_rate = self.job.spec.app.reduce_rate * self.node.compute_factor
        duration = self._fetch.fetched / node_rate
        self._finish_event = self.job.tracker.sim.schedule(duration, self._finish)

    def _finish(self) -> None:
        tracker = self.job.tracker
        self.state = TaskState.DONE
        self.end_time = tracker.sim.now
        self.job._invalidate_reduce_views()
        self._finish_event = None
        self.node.release_reduce_slot()
        feeders = [
            m.node.name
            for m in self.job.maps
            if self.job.I[m.index, self.index] > 0 and m.node is not None
        ]
        locality = _classify_locality(self.node, feeders, tracker.cluster)
        placed = [m for m in self.job.maps if m.node is not None]
        hops = tracker.cluster.hop_costs.take(
            np.fromiter((m.node.index for m in placed), np.int64, len(placed)),
            self.node.index,
        )
        # a left-to-right Python sum, not a dot product: a fixed rounding order
        f = self.index
        cost = float(sum(self.job.I[m.index, f] * h for m, h in zip(placed, hops)))
        tracker.collector.task_completed(
            TaskRecord(
                job_id=self.job.spec.job_id,
                kind="reduce",
                index=self.index,
                node=self.node.name,
                start=self.start_time,
                end=self.end_time,
                locality=locality,
                bytes_in=self._fetch.fetched,
                bytes_moved=self._fetch.remote_bytes,
                cost=cost,
            )
        )
        if tracker.recorder.enabled:
            tracker.recorder.emit(
                TaskFinish(
                    t=self.end_time, node=self.node.name, kind="reduce",
                    job_id=self.job.spec.job_id, task_index=self.index,
                    locality=locality, attempts=1 + self.past_attempts,
                )
            )
        self.job.on_reduce_done(self)

    # ------------------------------------------------------------------
    # failure paths
    # ------------------------------------------------------------------
    def freeze(self) -> None:
        """Physical crash of our node: stop all I/O and the compute timer.

        The slot stays held and the task stays RUNNING — the tracker kills
        the attempt when it notices the node is gone (expiry/restart),
        mirroring the window in which a real JobTracker still believes a
        dead TaskTracker is healthy.
        """
        if self._finish_event is not None:
            self._finish_event.cancel()
            self._finish_event = None
        if self._fetch is not None:
            self._fetch.abort_all()

    def _teardown_attempt(self) -> Node:
        """Common attempt teardown; returns the node the attempt ran on."""
        node = self.node
        assert node is not None
        self.attempt_epoch += 1
        if self._finish_event is not None:
            self._finish_event.cancel()
            self._finish_event = None
        if self._fetch is not None:
            self._fetch.abort_all()
        node.release_reduce_slot()
        self.job.on_reduce_unplaced(self)
        self.computing = False
        self._fetch = None
        self._delivered = set()
        self._requested = set()
        self.past_attempts += 1
        self.state = TaskState.PENDING
        self.pending_since = self.job.tracker.sim.now
        self.node = None
        self.start_time = float("nan")
        self.end_time = float("nan")
        self.job._invalidate_reduce_views()
        return node

    def kill(self, *, record: bool = True) -> None:
        """Kill the running attempt (node loss / job abort) — not charged."""
        if self.state is not TaskState.RUNNING:
            return
        node = self._teardown_attempt()
        if record:
            self.job.tracker.record_attempt_killed(
                self.job, "reduce", self.index, node.name, self.failures
            )

    def fail(self) -> None:
        """An injected task error: charge it and return to PENDING."""
        if self.state is not TaskState.RUNNING:
            return
        node = self._teardown_attempt()
        self.failures += 1
        self.job.tracker.record_attempt_failure(
            self.job, "reduce", self.index, node.name, self.failures
        )

    def __repr__(self) -> str:
        return (
            f"ReduceTask({self.job.spec.job_id}/r{self.index}, "
            f"{self.state.value}, node={self.node.name if self.node else None})"
        )
