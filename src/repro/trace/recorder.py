"""Event recorders: the real `TraceRecorder` and the no-op `NullRecorder`.

The engine holds exactly one recorder per run.  Counted facts reach it
through :meth:`~repro.metrics.collector.MetricsCollector.note`, which
builds the event on every run; traced-only events (heartbeats, offers,
evaluations, task and shuffle flows, fabric changes) guard their
construction behind ``recorder.enabled``, so a disabled run (the default,
:class:`NullRecorder`) pays one attribute read for each and allocates
nothing.

Events carry only simulated time, so the JSONL export is byte-identical
across equal-seed runs.  Wall time is the profiler's job
(:mod:`repro.obs.profile`, `repro profile`), not the recorder's.
"""

from __future__ import annotations

from collections import Counter
from typing import List

from .events import TraceEvent

__all__ = ["NullRecorder", "TraceRecorder"]


class NullRecorder:
    """Recorder that records nothing; the engine's default.

    ``enabled`` is a plain class attribute so hot loops can branch on it
    without a method call; ``emit`` exists so unguarded call sites are
    still safe.
    """

    enabled = False

    def emit(self, event: TraceEvent) -> None:
        pass


class TraceRecorder(NullRecorder):
    """Accumulates typed trace events."""

    enabled = True

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)

    # -- views ----------------------------------------------------------

    def counts(self) -> "Counter[str]":
        """Event counts keyed by event type tag."""
        return Counter(ev.type for ev in self.events)
