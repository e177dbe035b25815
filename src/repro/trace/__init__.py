"""Decision-level run tracing: typed events, recorders, and exporters.

The engine emits one :class:`~repro.trace.events.TraceEvent` per decision
(heartbeat, slot offer, cost/probability evaluation, assign, decline with
reason, task start/finish, shuffle flow) into a
:class:`~repro.trace.recorder.TraceRecorder`; the default
:class:`~repro.trace.recorder.NullRecorder` keeps the disabled path off the
hot loop.  Exporters turn the stream into deterministic JSONL, Perfetto-
loadable Chrome trace-event JSON, or ASCII summaries/timelines.

Enable per run with ``EngineConfig(trace=True)`` (inspect
``RunResult.trace``), persist with ``EngineConfig(trace_jsonl=path)``, or
use the CLI: ``repro trace out.json`` / ``repro <experiment> --trace path``
/ ``repro report path``.
"""

from repro.lazy import lazy_exports

from .events import (
    Assign,
    AttemptFailed,
    BELOW_PMIN,
    BERNOULLI_MISS,
    BLACKLISTED,
    Blacklisted,
    BlockLost,
    COLOCATION_VETO,
    COUPLING_GATE,
    DECLINE_REASONS,
    Decline,
    DecommissionDone,
    DecommissionStart,
    Evaluate,
    FAILURE_REASONS,
    Heartbeat,
    JobFail,
    JobFinish,
    JobSubmit,
    LOCALITY_WAIT,
    MapOutputLost,
    NODE_DEAD,
    NO_CANDIDATE,
    NodeDown,
    NodeUp,
    ReplicaAdded,
    ReplicaRemoved,
    RunStart,
    ShuffleFinish,
    ShuffleStart,
    SlotOffer,
    TaskFinish,
    TaskStart,
    TraceEvent,
    as_dicts,
)
from .recorder import NullRecorder, TraceRecorder

# the exporters and renderers sit above the engine: load them on first use
__getattr__, __dir__ = lazy_exports(__name__, {
    ".export": (
        "chrome_trace",
        "events_to_chrome",
        "events_to_jsonl",
        "jsonl_lines",
        "read_jsonl",
    ),
    ".render": ("ascii_timeline", "trace_summary"),
})

__all__ = [
    "Assign",
    "AttemptFailed",
    "BELOW_PMIN",
    "BERNOULLI_MISS",
    "BLACKLISTED",
    "Blacklisted",
    "BlockLost",
    "COLOCATION_VETO",
    "COUPLING_GATE",
    "DECLINE_REASONS",
    "Decline",
    "DecommissionDone",
    "DecommissionStart",
    "Evaluate",
    "FAILURE_REASONS",
    "Heartbeat",
    "JobFail",
    "JobFinish",
    "JobSubmit",
    "LOCALITY_WAIT",
    "MapOutputLost",
    "NODE_DEAD",
    "NO_CANDIDATE",
    "NodeDown",
    "NodeUp",
    "NullRecorder",
    "ReplicaAdded",
    "ReplicaRemoved",
    "RunStart",
    "ShuffleFinish",
    "ShuffleStart",
    "SlotOffer",
    "TaskFinish",
    "TaskStart",
    "TraceEvent",
    "TraceRecorder",
    "as_dicts",
    "ascii_timeline",
    "chrome_trace",
    "events_to_chrome",
    "events_to_jsonl",
    "jsonl_lines",
    "read_jsonl",
    "trace_summary",
]
