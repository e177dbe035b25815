"""Run-wide observability plane: time series, percentiles, profiling.

``repro.obs`` is the measurement layer the engine feeds when
``EngineConfig(metrics=MetricsConfig(...))`` is set:

- :mod:`repro.obs.instruments` — typed Counter/Gauge/Histogram instruments
  in a :class:`~repro.obs.instruments.MetricsRegistry`, sampled on the
  simulation clock.
- :mod:`repro.obs.hist` — the deterministic fixed-boundary log-bucket
  streaming histogram behind every percentile the plane reports.
- :mod:`repro.obs.plane` — the engine-facing
  :class:`~repro.obs.plane.MetricsPlane` that reads tracker/cluster/network
  state into instruments on each sampling tick.
- :mod:`repro.obs.export` — canonical JSONL/CSV dumps and Prometheus text
  exposition.
- :mod:`repro.obs.dashboard` — ASCII dashboard renderer for ``repro report``.
- :mod:`repro.obs.profile` — the wall-time profiler behind ``repro profile``
  (the one deliberately *non*-deterministic module: it reads the host
  clock, which is why ``obs`` is not a deterministic package of
  ``repro check``).

Everything here is stdlib+numpy only and imports nothing from the rest of
``repro`` — the engine depends on ``obs``, never the reverse — so the
event loop can consult :data:`repro.obs.profile.ACTIVE` without an import
cycle.  Like trace and journal, the plane is zero-cost and byte-identical
when disabled and seed-deterministic when enabled (it draws no random
numbers at all).
"""

from repro.obs.config import MetricsConfig
from repro.obs.hist import LogHistogram
from repro.obs.instruments import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LogHistogram",
    "MetricsConfig",
    "MetricsRegistry",
]
