"""Wall-time profiler for the simulation hot path.

A deliberately tiny sampling-free profiler: the event loop hands every
dispatched event to the active :class:`Profiler` (when one is installed
in the module-global :data:`ACTIVE`), which buckets its wall time under a
*component* name derived from the callback's qualname; hot helpers deep
inside a dispatch (scheduler selection, ``reduce_costs``, the max-min
refill) additionally :meth:`~Profiler.push`/:meth:`~Profiler.pop` scoped
timers, and nesting is accounted as **self time**: a parent scope is
charged only for the wall time its children did not claim, so the
attribution table sums to (at most) the run's wall time instead of
double-counting.

This is the one ``repro.obs`` module that reads the host clock — which
is exactly why ``obs`` is *not* a ``repro check`` deterministic package
and why :data:`ACTIVE` is ``None`` unless a run is explicitly profiled:
the disabled path costs one global read per event and the simulated
behaviour is never affected either way.

The clock is the module attribute :data:`_clock` so tests can substitute
a deterministic fake.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["ACTIVE", "Profiler", "compare_docs", "profiled", "table_from_doc"]

_clock = time.perf_counter

#: the installed profiler, or None (the default: zero profiling overhead
#: beyond one global read per event dispatch)
ACTIVE: Optional["Profiler"] = None

# qualname-prefix -> component; first match wins, longest prefixes first
_COMPONENT_MAP: Tuple[Tuple[str, str], ...] = (
    ("JobTracker._make_heartbeat", "tracker.heartbeat"),
    ("JobTracker._submit", "tracker.submit"),
    ("JobTracker", "tracker.other"),
    ("FlowNetwork", "network.tick"),
    ("MapAttempt", "engine.map"),
    ("MapTask", "engine.map"),
    ("ReduceTask", "engine.reduce"),
    ("FetchManager", "engine.shuffle"),
    ("NameNode", "hdfs"),
    ("FaultInjector", "faults"),
    ("TelemetryMonitor", "telemetry"),
    ("BackgroundTraffic", "background"),
    ("MetricsPlane", "obs.sample"),
    ("InvariantChecker", "invariants"),
)


class Profiler:
    """Stack-scoped wall-time attribution by component name."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.wall_s = 0.0
        # [name, start, seconds claimed by child scopes]
        self._stack: List[List[object]] = []
        self._component_cache: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # scoped timing
    # ------------------------------------------------------------------
    def push(self, name: str) -> None:
        self._stack.append([name, _clock(), 0.0])

    def pop(self) -> None:
        name, start, child = self._stack.pop()
        elapsed = _clock() - start  # type: ignore[operator]
        self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - child  # type: ignore[index, operator]
        self.calls[name] = self.calls.get(name, 0) + 1  # type: ignore[index]
        if self._stack:
            self._stack[-1][2] += elapsed  # type: ignore[operator]

    @contextmanager
    def scope(self, name: str) -> Iterator[None]:
        self.push(name)
        try:
            yield
        finally:
            self.pop()

    # ------------------------------------------------------------------
    # event-loop hook
    # ------------------------------------------------------------------
    def run_event(self, callback: Callable, args: tuple) -> None:
        """Dispatch one event under its component's scope."""
        self.push(self._component(callback))
        try:
            callback(*args)
        finally:
            self.pop()

    def _component(self, callback: Callable) -> str:
        target = callback
        # periodic tasks dispatch through PeriodicTask._fire; attribute
        # them to the wrapped callback instead of the plumbing
        bound_self = getattr(callback, "__self__", None)
        if bound_self is not None and type(bound_self).__name__ == "PeriodicTask":
            inner = getattr(bound_self, "callback", None)
            if inner is not None:
                target = inner
        qual = getattr(target, "__qualname__", "") or type(target).__name__
        cached = self._component_cache.get(qual)
        if cached is None:
            cached = next(
                (
                    component
                    for prefix, component in _COMPONENT_MAP
                    if qual.startswith(prefix)
                ),
                "other." + qual.split(".")[0],
            )
            self._component_cache[qual] = cached
        return cached

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def attributed_s(self) -> float:
        return sum(self.self_s.values())

    @property
    def coverage(self) -> float:
        """Fraction of profiled wall time claimed by some component."""
        return self.attributed_s / self.wall_s if self.wall_s > 0 else 0.0

    def to_doc(self) -> Dict[str, object]:
        """Canonical profile document (components sorted by name)."""
        return {
            "format": "repro-profile",
            "version": 1,
            "wall_s": round(self.wall_s, 6),
            "attributed_s": round(self.attributed_s, 6),
            "coverage": round(self.coverage, 4),
            "components": {
                name: {
                    "self_s": round(self.self_s[name], 6),
                    "calls": self.calls.get(name, 0),
                }
                for name in sorted(self.self_s)
            },
        }

    def table(self, top: int = 0) -> str:
        """Attribution table, hottest component first."""
        ranked = sorted(
            self.self_s.items(), key=lambda kv: (-kv[1], kv[0])
        )
        if top > 0:
            ranked = ranked[:top]
        wall = self.wall_s if self.wall_s > 0 else None
        lines = [
            f"{'component':<24} {'self s':>10} {'% wall':>7} {'calls':>10}"
        ]
        for name, seconds in ranked:
            share = f"{seconds / wall:>6.1%}" if wall else "      -"
            lines.append(
                f"{name:<24} {seconds:>10.4f} {share:>7} "
                f"{self.calls.get(name, 0):>10}"
            )
        lines.append(
            f"{'(total attributed)':<24} {self.attributed_s:>10.4f} "
            f"{self.coverage:>6.1%} of {self.wall_s:.4f} s wall"
        )
        return "\n".join(lines)


def table_from_doc(doc: Dict, top: int = 0) -> str:
    """Render the attribution table from a canonical profile document.

    Lets consumers of a saved ``repro-profile`` JSON (the CLI, CI logs)
    reuse :meth:`Profiler.table` without keeping the live profiler around.
    """
    prof = Profiler()
    prof.wall_s = float(doc["wall_s"])
    for name, rec in doc.get("components", {}).items():
        prof.self_s[name] = float(rec["self_s"])
        prof.calls[name] = int(rec["calls"])
    return prof.table(top=top)


def compare_docs(a: Dict, b: Dict, top: int = 0) -> str:
    """Diff two canonical ``repro-profile`` documents by component self-time.

    Renders one row per component present in either document (absent side
    counted as zero), largest absolute wall-time delta first, so the
    components that explain an end-to-end speedup or regression lead the
    table.  ``top`` > 0 truncates to the N largest movers.
    """
    ca = a.get("components", {})
    cb = b.get("components", {})
    rows = []
    for name in sorted(set(ca) | set(cb)):
        sa = float(ca.get(name, {}).get("self_s", 0.0))
        sb = float(cb.get(name, {}).get("self_s", 0.0))
        rows.append((name, sa, sb, sb - sa))
    rows.sort(key=lambda r: (-abs(r[3]), r[0]))
    if top > 0:
        rows = rows[:top]
    lines = [
        f"{'component':<24} {'A self s':>10} {'B self s':>10} "
        f"{'delta s':>10} {'B/A':>7}"
    ]
    for name, sa, sb, delta in rows:
        ratio = f"{sb / sa:>6.2f}x" if sa > 0 else "      -"
        lines.append(
            f"{name:<24} {sa:>10.4f} {sb:>10.4f} {delta:>+10.4f} {ratio}"
        )
    wa, wb = float(a.get("wall_s", 0.0)), float(b.get("wall_s", 0.0))
    wall_ratio = f"{wb / wa:.2f}x" if wa > 0 else "-"
    lines.append(
        f"{'(total wall)':<24} {wa:>10.4f} {wb:>10.4f} "
        f"{wb - wa:>+10.4f} {wall_ratio:>7}"
    )
    return "\n".join(lines)


@contextmanager
def profiled() -> Iterator[Profiler]:
    """Install a profiler in :data:`ACTIVE` for the duration of the block.

    Nested/overlapping profiled blocks are a usage error — the inner
    block would steal the outer's events — and raise immediately.
    """
    global ACTIVE
    if ACTIVE is not None:
        raise RuntimeError("a profiler is already active")
    prof = Profiler()
    ACTIVE = prof
    start = _clock()
    try:
        yield prof
    finally:
        prof.wall_s += _clock() - start
        ACTIVE = None
