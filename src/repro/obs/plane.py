"""The engine-facing metrics plane.

One :class:`MetricsPlane` per metrics-enabled run.  It owns the
:class:`~repro.obs.instruments.MetricsRegistry` and knows how to read the
live engine objects — tracker, cluster, flow network, collector — into
instruments on each sampling tick, plus two event hooks the engine calls
inline (offer-to-assign latency at slot assignment, fetch duration at
shuffle-flow completion).

The plane only *reads* engine state (the engine never reads it back), so
enabling metrics cannot change simulated behaviour; the determinism
tests assert the trace stream is byte-identical either way.  To keep
``repro.obs`` import-cycle-free the plane duck-types the engine objects
rather than importing their classes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.obs.config import MetricsConfig
from repro.obs.instruments import Gauge, MetricsRegistry

__all__ = ["MetricsPlane"]

#: (metric name, collector counter) pairs mirrored as cumulative counters
_MIRRORED = (
    ("jobs_submitted_total", "jobs_submitted"),
    ("jobs_failed_total", "jobs_failed"),
    ("assignments_total", "scheduling_assignments"),
    ("speculative_total", "speculative_launched"),
)
#: the same, for runs with a ReplicationMonitor only, so metrics exports
#: stay byte-identical on durability-off runs
_MIRRORED_DURABILITY = (
    ("repair_bytes_total", "repair_bytes"),
    ("blocks_lost_total", "blocks_lost"),
    ("replicas_added_total", "replicas_added"),
    ("replicas_removed_total", "replicas_removed"),
)


class MetricsPlane:
    """Reads tracker/cluster/network state into a metrics registry."""

    def __init__(
        self, sim: object, cluster: object, tracker: object, config: MetricsConfig
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.tracker = tracker
        self.config = config
        self.registry = MetricsRegistry()
        r = self.registry

        # distributions (fed by ingestion + inline hooks)
        self.h_jct = r.histogram("job_completion_s")
        self.h_task = {
            "map": r.histogram("task_duration_s", kind="map"),
            "reduce": r.histogram("task_duration_s", kind="reduce"),
        }
        self.h_wait = {
            "map": r.histogram("offer_to_assign_s", kind="map"),
            "reduce": r.histogram("offer_to_assign_s", kind="reduce"),
        }
        self.h_fetch = r.histogram("shuffle_fetch_s")

        # cumulative counters mirrored from the collector / network
        self._replication = getattr(tracker, "replication", None)
        mirrored = _MIRRORED
        if self._replication is not None:
            mirrored += _MIRRORED_DURABILITY
        self.c_mirrored = [(r.counter(name), attr) for name, attr in mirrored]
        self.c_completed = r.counter("jobs_completed_total")
        self.c_tasks = {
            "map": r.counter("tasks_completed_total", kind="map"),
            "reduce": r.counter("tasks_completed_total", kind="reduce"),
        }
        self.c_fabric_bytes = r.counter("fabric_bytes_total")
        self.c_local_bytes = r.counter("local_bytes_total")
        self.c_fetch_bytes = r.counter("shuffle_fetched_bytes_total")

        # instantaneous levels
        self.g_slots = {
            "map": r.gauge("slots_busy", kind="map"),
            "reduce": r.gauge("slots_busy", kind="reduce"),
        }
        self._racks: List[str] = []
        seen: Set[str] = set()
        for node in cluster.nodes:  # type: ignore[attr-defined]
            if node.rack not in seen:
                seen.add(node.rack)
                self._racks.append(node.rack)
        self.g_rack_slots = {
            (kind, rack): r.gauge("slots_busy", kind=kind, rack=rack)
            for kind in ("map", "reduce")
            for rack in self._racks
        }
        self.g_node_slots: Dict[Tuple[str, str], Gauge] = {}
        if config.per_node:
            self.g_node_slots = {
                (kind, node.name): r.gauge("slots_busy", kind=kind, node=node.name)
                for kind in ("map", "reduce")
                for node in cluster.nodes  # type: ignore[attr-defined]
            }
        self.g_backlog = r.gauge("shuffle_backlog_bytes")
        self.g_flows = r.gauge("net_active_flows")
        self.g_link_mean = r.gauge("net_link_util", stat="mean")
        self.g_link_max = r.gauge("net_link_util", stat="max")
        self.c_reroutes = r.counter("net_reroutes")
        self.g_down_links = r.gauge("net_down_links")
        self.g_partitioned = r.gauge("net_partitioned_pairs")

        if self._replication is not None:
            self.g_under_replicated = r.gauge("under_replicated_blocks")

        # per-job queue-depth gauges, created when a job first appears and
        # zeroed once when it leaves the active set
        self._job_gauges: Dict[str, Tuple[Gauge, Gauge, Gauge, Gauge]] = {}

        # ingestion cursors into the collector's append-only record lists
        self._seen_tasks = 0
        self._seen_jobs = 0

    # ------------------------------------------------------------------
    # inline engine hooks
    # ------------------------------------------------------------------
    def task_assigned(self, kind: str, wait_s: float) -> None:
        """A pending task got a slot; ``wait_s`` is time spent pending."""
        self.h_wait[kind].observe(wait_s)

    def shuffle_fetched(self, seconds: float, nbytes: float) -> None:
        """One shuffle fetch flow completed."""
        self.h_fetch.observe(seconds)
        self.c_fetch_bytes.inc(nbytes)

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def _ingest(self) -> None:
        """Mirror the collector's cumulative state into instruments."""
        c = self.tracker.collector  # type: ignore[attr-defined]
        for rec in c.task_records[self._seen_tasks:]:
            self.h_task[rec.kind].observe(rec.duration)
            self.c_tasks[rec.kind].inc()
        self._seen_tasks = len(c.task_records)
        for rec in c.job_records[self._seen_jobs:]:
            self.h_jct.observe(rec.completion_time)
        self._seen_jobs = len(c.job_records)

        for counter, attr in self.c_mirrored:
            counter.set_total(getattr(c, attr))
        self.c_completed.set_total(len(c.job_records))
        for kind, reasons in sorted(c.decline_reasons.items()):
            for reason, count in sorted(reasons.items()):
                self.registry.counter(
                    "declines_total", kind=kind, reason=reason
                ).set_total(count)

        net = self.cluster.network  # type: ignore[attr-defined]
        self.c_fabric_bytes.set_total(net.bytes_transferred)
        self.c_local_bytes.set_total(net.bytes_local)

    def _sample_slots(self) -> None:
        busy = {"map": 0, "reduce": 0}
        rack_busy = {key: 0 for key in self.g_rack_slots}
        for node in self.cluster.nodes:  # type: ignore[attr-defined]
            busy["map"] += node.running_maps
            busy["reduce"] += node.running_reduces
            rack_busy[("map", node.rack)] += node.running_maps
            rack_busy[("reduce", node.rack)] += node.running_reduces
            if self.g_node_slots:
                self.g_node_slots[("map", node.name)].set(node.running_maps)
                self.g_node_slots[("reduce", node.name)].set(
                    node.running_reduces
                )
        for kind in ("map", "reduce"):
            self.g_slots[kind].set(busy[kind])
        for key, gauge in self.g_rack_slots.items():
            gauge.set(rack_busy[key])

    def _sample_queues(self) -> None:
        r = self.registry
        backlog = 0.0
        live: Set[str] = set()
        for job in self.tracker.active_jobs:  # type: ignore[attr-defined]
            job_id = job.spec.job_id
            live.add(job_id)
            gauges = self._job_gauges.get(job_id)
            if gauges is None:
                gauges = (
                    r.gauge("queue_pending", kind="map", job=job_id),
                    r.gauge("queue_running", kind="map", job=job_id),
                    r.gauge("queue_pending", kind="reduce", job=job_id),
                    r.gauge("queue_running", kind="reduce", job=job_id),
                )
                self._job_gauges[job_id] = gauges
            gauges[0].set(len(job.pending_maps()))
            gauges[1].set(len(job.running_maps()))
            gauges[2].set(len(job.pending_reduces()))
            running_reduces = job.running_reduces()
            gauges[3].set(len(running_reduces))
            for reduce_task in running_reduces:
                fetch = reduce_task._fetch
                if fetch is not None:
                    backlog += fetch.pending_bytes
        # a job that left the active set holds zero queue slots; record the
        # zero once so its series does not freeze at the last live depth
        for job_id, gauges in self._job_gauges.items():
            if job_id not in live:
                for gauge in gauges:
                    gauge.set(0)
        self.g_backlog.set(backlog)

    def _sample_network(self) -> None:
        net = self.cluster.network  # type: ignore[attr-defined]
        self.g_flows.set(net.active_flows)
        utils = net.link_utilisations()
        if utils:
            self.g_link_mean.set(sum(utils) / len(utils))
            self.g_link_max.set(max(utils))
        else:
            self.g_link_mean.set(0.0)
            self.g_link_max.set(0.0)
        self.c_reroutes.set_total(net.reroutes)
        self.g_down_links.set(len(net.down_links))
        routing = getattr(self.cluster, "routing", None)
        self.g_partitioned.set(
            routing.partitioned_pairs if routing is not None else 0
        )

    def sample(self) -> None:
        """One sampling tick: ingest cumulatives, read levels, snapshot."""
        self._ingest()
        self._sample_slots()
        self._sample_queues()
        self._sample_network()
        if self._replication is not None:
            self.g_under_replicated.set(
                self._replication.under_replicated_count()
            )
        self.registry.sample(self.sim.now)  # type: ignore[attr-defined]

    def finalize(self) -> None:
        """Final flush at end of run.

        A run that completed was already sampled at the completion
        instant (the tracker's all-done hook registers
        :meth:`sample`); by the time ``finalize`` runs, the kernel
        clock has been advanced to the run horizon — a time no event
        ever reached — so sampling again would append a wildly
        out-of-band point.  Only truncated runs (stopped by ``until=``
        with jobs still active) take their last sample here, at the
        caller's chosen cutoff.
        """
        if getattr(self.tracker, "all_done", False):
            return
        self.sample()
