"""ASCII rendering of a trace: event summary and per-node timeline.

Same plain-text/diff-friendly philosophy as ``repro.analysis.render``:
no plotting dependency, fixed-width output.  Both renderers accept either
:class:`~repro.trace.events.TraceEvent` objects or the plain dicts that
:func:`~repro.trace.export.read_jsonl` returns, so a saved trace renders
identically to a live one.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Tuple

from .events import EventLike, as_dicts

__all__ = ["ascii_timeline", "trace_summary"]

# occupancy glyphs: index = concurrent running tasks in the time bin,
# saturating at the last glyph.
_DENSITY = " .:*#@"


def trace_summary(events: Iterable[EventLike]) -> str:
    """Tabular digest: event counts, then declines by kind and reason."""
    # the analysis layer sits above the exporters: import at call time
    from repro.analysis.render import format_table

    evs = as_dicts(events)
    counts = Counter(str(e["type"]) for e in evs)
    sections = [
        format_table(
            ["event", "count"],
            [[name, counts[name]] for name in sorted(counts)],
            title="trace events",
        )
    ]

    declines: "Counter[Tuple[str, str]]" = Counter()
    for e in evs:
        if e["type"] == "decline":
            declines[(str(e["kind"]), str(e["reason"]))] += 1
    if declines:
        sections.append(
            format_table(
                ["kind", "reason", "count"],
                [[k, r, n] for (k, r), n in sorted(declines.items())],
                title="declines by reason",
            )
        )

    assigns: "Counter[str]" = Counter()
    for e in evs:
        if e["type"] == "assign":
            assigns[str(e["kind"])] += 1
    if assigns:
        sections.append(
            format_table(
                ["kind", "assigned"],
                [[k, n] for k, n in sorted(assigns.items())],
                title="assignments",
            )
        )
    return "\n\n".join(sections)


def ascii_timeline(events: Iterable[EventLike], *, width: int = 64) -> str:
    """Per-node occupancy timeline: one row per node, time binned to ``width``.

    Each cell shows how many tasks (map + reduce, speculative included) ran
    on the node during that time bin, using a density glyph ramp — the same
    at-a-glance style as ``ascii_cdf``.
    """
    evs = as_dicts(events)
    spans = _task_spans(evs)
    horizon = max(
        [float(e.get("t", 0.0)) for e in evs] + [t1 for _, t1, _ in spans],
        default=0.0,
    )
    if not spans or horizon <= 0.0:
        return "(no task activity)"

    nodes = sorted({node for _, _, node in spans})
    binw = horizon / width
    rows: List[str] = []
    label_w = max(len(n) for n in nodes)
    for node in nodes:
        load = [0] * width
        for t0, t1, where in spans:
            if where != node:
                continue
            b0 = min(int(t0 / binw), width - 1)
            b1 = min(int(t1 / binw), width - 1)
            for b in range(b0, b1 + 1):
                load[b] += 1
        cells = "".join(
            _DENSITY[min(n, len(_DENSITY) - 1)] for n in load
        )
        rows.append(f"{node:>{label_w}} |{cells}|")
    axis = f"{'':>{label_w}} +" + "-" * width + "+"
    scale = f"{'':>{label_w}}  {0.0:<10.3g}{'sim time':^{max(width - 20, 1)}}{horizon:>10.3g}"
    legend = (
        f"{'':>{label_w}}  occupancy: ' '=0 "
        + " ".join(f"'{c}'={i}" for i, c in enumerate(_DENSITY) if i)
        + "+"
    )
    return "\n".join(rows + [axis, scale, legend])


def _task_spans(evs: List[Dict[str, object]]) -> List[Tuple[float, float, str]]:
    """``(t0, t1, node)`` for every task attempt; unfinished ones run to the horizon."""
    horizon = max((float(e.get("t", 0.0)) for e in evs), default=0.0)
    open_spans: Dict[Tuple[str, str, str, int], float] = {}
    out: List[Tuple[float, float, str]] = []
    for e in evs:
        if e["type"] == "task_start":
            key = (str(e["node"]), str(e["kind"]), str(e["job_id"]), int(e["task_index"]))
            open_spans[key] = float(e["t"])
        elif e["type"] == "task_finish":
            key = (str(e["node"]), str(e["kind"]), str(e["job_id"]), int(e["task_index"]))
            t0 = open_spans.pop(key, None)
            if t0 is not None:
                out.append((t0, float(e["t"]), key[0]))
    for key, t0 in open_spans.items():
        out.append((t0, horizon, key[0]))
    return out
