"""Event recorders: the real `TraceRecorder` and the no-op `NullRecorder`.

The engine holds exactly one recorder per run and calls it unconditionally;
call sites guard event *construction* behind ``recorder.enabled`` so that a
disabled run (the default, :class:`NullRecorder`) pays only one attribute
read per decision and allocates nothing.

Events carry only simulated time, so the JSONL export is byte-identical
across equal-seed runs.  Wall time is the profiler's job
(:mod:`repro.obs.profile`, `repro profile`), not the recorder's.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

from .events import Decline, TraceEvent

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

    def declines_by_reason(self) -> Dict[Tuple[str, str], int]:
        """Decline counts keyed by ``(kind, reason)``."""
        out: "Counter[Tuple[str, str]]" = Counter()
        for ev in self.events:
            if isinstance(ev, Decline):
                out[(ev.kind, ev.reason)] += 1
        return dict(out)
