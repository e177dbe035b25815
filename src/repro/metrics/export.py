"""Export run measurements to CSV / JSON for external tooling.

The library renders everything as text, but real analyses end up in
notebooks and plotting tools; these helpers serialise a
:class:`~repro.metrics.collector.MetricsCollector`'s raw rows and counts
losslessly (and read them back, for archiving benchmark runs).
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path
from typing import Union

from repro.metrics.collector import COUNTED, MetricsCollector
from repro.metrics.records import JobRecord, TaskRecord

__all__ = [
    "tasks_to_csv",
    "jobs_to_csv",
    "collector_to_json",
    "collector_from_json",
]

PathLike = Union[str, Path]

_TASK_FIELDS = [f.name for f in dataclasses.fields(TaskRecord)]
_JOB_FIELDS = [f.name for f in dataclasses.fields(JobRecord)]


def tasks_to_csv(collector: MetricsCollector, path: PathLike) -> int:
    """Write one CSV row per task record.  Returns the row count."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_TASK_FIELDS)
        for t in collector.task_records:
            writer.writerow([getattr(t, f) for f in _TASK_FIELDS])
    return len(collector.task_records)


def jobs_to_csv(collector: MetricsCollector, path: PathLike) -> int:
    """Write one CSV row per job record.  Returns the row count."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_JOB_FIELDS)
        for j in collector.job_records:
            writer.writerow([getattr(j, f) for f in _JOB_FIELDS])
    return len(collector.job_records)


def collector_to_json(collector: MetricsCollector, path: PathLike) -> None:
    """Serialise the full collector (tasks, jobs, counts) as JSON."""
    payload = {
        "tasks": [dataclasses.asdict(t) for t in collector.task_records],
        "jobs": [dataclasses.asdict(j) for j in collector.job_records],
        "submitted": collector.submitted,
        "failed_jobs": collector.failed_jobs,
        "counts": dict(collector.counts),
        "decline_reasons": {
            kind: dict(counts)
            for kind, counts in collector.decline_reasons.items()
        },
        "attempt_reasons": dict(collector.attempt_reasons),
        "repair_bytes": collector.repair_bytes,
        "speculative_launched": collector.speculative_launched,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)


def collector_from_json(path: PathLike) -> MetricsCollector:
    """Rebuild a collector from :func:`collector_to_json` output."""
    with open(path) as fh:
        payload = json.load(fh)
    collector = MetricsCollector()
    collector.task_records = [TaskRecord(**row) for row in payload["tasks"]]
    collector.job_records = [JobRecord(**row) for row in payload["jobs"]]
    collector.submitted = dict(payload.get("submitted", {}))
    collector.failed_jobs = dict(payload.get("failed_jobs", {}))
    if "counts" in payload:
        collector.counts.update(payload["counts"])
    else:
        # older exports name their two counters one key each
        for name in ("scheduling_declines", "scheduling_assignments"):
            collector.counts[COUNTED[name]] = payload.get(name, 0)
    collector.attempt_reasons.update(payload.get("attempt_reasons", {}))
    collector.repair_bytes = payload.get("repair_bytes", 0.0)
    collector.speculative_launched = payload.get("speculative_launched", 0)
    # absent in exports predating per-reason accounting
    for kind, counts in payload.get("decline_reasons", {}).items():
        collector.decline_reasons[kind].update(counts)
    return collector
