"""The metrics collector: the engine's measurement sink.

The JobTracker calls into one :class:`MetricsCollector` per run.  The
collector accumulates raw :class:`~repro.metrics.records.TaskRecord` /
:class:`~repro.metrics.records.JobRecord` rows plus the run's counted
facts, and offers the derived views the evaluation needs (arrays of
completion times, locality shares, slot-occupancy integration).

A counted fact is one typed :mod:`repro.trace.events` object, reported
once through :meth:`MetricsCollector.note`: the collector counts it by
event type and hands it on to the run's recorder, so the trace and the
counters cannot disagree.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.metrics.records import LOCALITY_LEVELS, JobRecord, TaskRecord
from repro.trace.events import (
    NODE_LOST,
    Assign,
    AttemptFailed,
    Blacklisted,
    BlockLost,
    Decline,
    DecommissionDone,
    JobFail,
    JobSubmit,
    MapOutputLost,
    NodeDown,
    NodeUp,
    ReplicaAdded,
    ReplicaRemoved,
    TraceEvent,
    TrackerDown,
    TrackerUp,
)
from repro.trace.recorder import NullRecorder

__all__ = ["COUNTED", "MetricsCollector"]

#: Public counter name -> the event type it counts.  Each name reads as an
#: attribute of the collector; fault and durability counts stay 0 on runs
#: without faults or a ReplicationMonitor.
COUNTED: Dict[str, str] = {
    "jobs_submitted": JobSubmit.type,
    "jobs_failed": JobFail.type,
    "scheduling_assignments": Assign.type,
    "scheduling_declines": Decline.type,
    "nodes_lost": NodeDown.type,        # tracker expiries + detected restarts
    "nodes_rejoined": NodeUp.type,
    "maps_reexecuted": MapOutputLost.type,
    "blacklistings": Blacklisted.type,  # (job, node) blacklist events
    "tracker_crashes": TrackerDown.type,
    "tracker_restarts": TrackerUp.type,  # journal-replay recoveries
    "replicas_added": ReplicaAdded.type,
    "replicas_removed": ReplicaRemoved.type,  # trims + drain drops
    "blocks_lost": BlockLost.type,      # permanent-loss detections
    "decommissions": DecommissionDone.type,
}


class MetricsCollector:
    """Accumulates per-run measurements.

    ``recorder`` receives every noted event; the default records nothing.
    """

    def __init__(self, recorder: Optional[NullRecorder] = None) -> None:
        self.recorder = recorder if recorder is not None else NullRecorder()
        self.task_records: List[TaskRecord] = []
        self.job_records: List[JobRecord] = []
        #: noted events per event type (the one table every count reads)
        self.counts: Counter = Counter()
        #: job ids with their submission / abort times
        self.submitted: Dict[str, float] = {}
        self.failed_jobs: Dict[str, float] = {}
        #: declined offers split by slot kind and announced reason; the
        #: per-reason counts always sum to ``scheduling_declines``
        self.decline_reasons: Dict[str, Counter] = {
            "map": Counter(),
            "reduce": Counter(),
        }
        #: ended attempts per ``AttemptFailed.reason``
        self.attempt_reasons: Counter = Counter()
        self.repair_bytes = 0.0       # bytes moved by re-replication flows
        self.speculative_launched = 0  # backup map attempts started

    def __getattr__(self, name: str) -> int:
        # only reached for names the instance lacks: the COUNTED views
        try:
            etype = COUNTED[name]
        except KeyError:
            raise AttributeError(name) from None
        return self.counts[etype]

    @property
    def attempts_killed(self) -> int:
        """Attempts lost to node failure (uncharged)."""
        return self.attempt_reasons[NODE_LOST]

    @property
    def attempts_failed(self) -> int:
        """Charged attempt failures (every reason but ``node_lost``)."""
        return self.counts[AttemptFailed.type] - self.attempt_reasons[NODE_LOST]

    # ------------------------------------------------------------------
    # engine-facing hooks
    # ------------------------------------------------------------------
    def note(self, event: TraceEvent) -> None:
        """Count one engine fact and pass it to the run's recorder."""
        etype = event.type
        if etype == Decline.type:
            reasons = self.decline_reasons.get(event.kind)
            if reasons is None:
                raise ValueError(f"bad slot kind {event.kind!r}")
            reasons[event.reason] += 1
        elif etype == AttemptFailed.type:
            self.attempt_reasons[event.reason] += 1
        elif etype == ReplicaAdded.type:
            self.repair_bytes += event.size
        elif etype == JobSubmit.type:
            self.submitted[event.job_id] = event.t
        elif etype == JobFail.type:
            self.failed_jobs[event.job_id] = event.t
        self.counts[etype] += 1
        self.recorder.emit(event)

    def job_completed(self, record: JobRecord) -> None:
        self.job_records.append(record)

    def task_completed(self, record: TaskRecord) -> None:
        self.task_records.append(record)

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def job_completion_times(self) -> np.ndarray:
        """Per-job completion times, ordered by job id (paired comparisons)."""
        recs = sorted(self.job_records, key=lambda r: r.job_id)
        return np.array([r.completion_time for r in recs], dtype=np.float64)

    def job_ids(self) -> List[str]:
        return sorted(r.job_id for r in self.job_records)

    def task_durations(self, kind: str) -> np.ndarray:
        """Durations of all completed tasks of ``kind`` (``map``/``reduce``)."""
        if kind not in ("map", "reduce"):
            raise ValueError(f"bad task kind {kind!r}")
        return np.array(
            [t.duration for t in self.task_records if t.kind == kind],
            dtype=np.float64,
        )

    def locality_counts(self, kind: Optional[str] = None) -> Counter:
        """Tasks per locality class, optionally restricted to one kind."""
        return Counter(
            t.locality
            for t in self.task_records
            if kind is None or t.kind == kind
        )

    def locality_shares(self, kind: Optional[str] = None) -> Dict[str, float]:
        """Fraction of tasks per locality class (Table III rows)."""
        counts = self.locality_counts(kind)
        total = sum(counts.values())
        if total == 0:
            return {level: 0.0 for level in LOCALITY_LEVELS}
        return {level: counts.get(level, 0) / total for level in LOCALITY_LEVELS}

    def speculated_tasks(self) -> int:
        """Tasks whose winning record shows more than one attempt."""
        return sum(1 for t in self.task_records if t.attempts > 1)

    def bytes_moved(self) -> float:
        """Total bytes that crossed the fabric on behalf of tasks."""
        return sum(t.bytes_moved for t in self.task_records)

    def total_cost(self) -> float:
        """Sum of hop-model transmission costs over all placements."""
        return sum(t.cost for t in self.task_records)

    def declines_by_reason(
        self, kind: Optional[str] = None
    ) -> Dict[Tuple[str, str], int]:
        """Decline counts keyed by ``(kind, reason)``; empty buckets omitted.

        Restrict to one slot kind with ``kind="map"`` / ``"reduce"``.
        """
        if kind is not None and kind not in self.decline_reasons:
            raise ValueError(f"bad slot kind {kind!r}")
        kinds = (kind,) if kind is not None else tuple(self.decline_reasons)
        return {
            (k, reason): n
            for k in kinds
            for reason, n in self.decline_reasons[k].items()
            if n
        }

    def makespan(self) -> float:
        """First submission to last completion across the run."""
        if not self.job_records and not self.task_records:
            return 0.0
        if self.submitted:
            start = min(self.submitted.values())
        elif self.task_records:
            # a collector rebuilt from an older export may lack submission
            # times; the earliest task start beats pretending t=0
            start = min(t.start for t in self.task_records)
        else:
            start = min(r.submit for r in self.job_records)
        if self.job_records:
            end = max(r.finish for r in self.job_records)
        else:
            end = max(t.end for t in self.task_records)
        return end - start

    # ------------------------------------------------------------------
    # slot occupancy (cluster resource utilisation, Section III-A)
    # ------------------------------------------------------------------
    def occupancy_series(self, kind: str) -> Tuple[np.ndarray, np.ndarray]:
        """Step series ``(times, running_tasks)`` for one task kind.

        Built offline from task start/end events; the series starts at the
        first event and each value holds until the next time point.
        """
        events: List[Tuple[float, int]] = []
        for t in self.task_records:
            if t.kind != kind:
                continue
            events.append((t.start, 1))
            events.append((t.end, -1))
        if not events:
            return np.array([]), np.array([])
        events.sort()
        times, levels = [], []
        level = 0
        for time, delta in events:
            level += delta
            if times and times[-1] == time:
                levels[-1] = level
            else:
                times.append(time)
                levels.append(level)
        return np.array(times), np.array(levels)

    def mean_utilisation(self, kind: str, capacity: int) -> float:
        """Time-averaged fraction of ``capacity`` slots busy with ``kind``.

        Averaged from the first task start to the last task end.
        """
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        times, levels = self.occupancy_series(kind)
        if len(times) < 2:
            return 0.0
        dt = np.diff(times)
        area = float(np.sum(levels[:-1] * dt))
        span = times[-1] - times[0]
        if span <= 0:
            return 0.0
        return area / (span * capacity)

    def peak_utilisation(self, kind: str, capacity: int) -> float:
        """Highest fraction of ``capacity`` slots simultaneously busy."""
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        _, levels = self.occupancy_series(kind)
        if not len(levels):
            return 0.0
        return float(levels.max()) / capacity
