"""Per-layer tracing for the benchmark's traced runs.

Two sources feed the split:

* **Wrappers** installed by :class:`LayerTracer` around the public entry
  points of each layer on the constructed objects: the fabric's rate view
  (``Cluster.inverse_rate_matrix`` / ``FlowNetwork.rate_matrix``), flow
  start and re-route, the task scheduler's ``select_map`` /
  ``select_reduce``, the per-job ``JobCostModel`` evaluations and
  ``JobTracker.on_heartbeat``.  Each wrapper counts calls and, while a
  profiler is active, opens a self-time scope named after its layer.
* **The event-loop profiler** (:func:`repro.obs.profile.profiled`) for the
  layers the simulator drives itself: fabric ticks, background traffic,
  routing convergence, re-replication and fault injection.

Scopes nest as self time, so the per-layer seconds add up to at most the
traced wall time; :func:`layer_split` folds the profiler's component
names into the layer names the benchmark reports.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

#: profiler component / scope name -> reported layer.  Scope names opened
#: by the wrappers are layer names already and map to themselves.
LAYER_OF: Dict[str, str] = {
    "network.rate_matrix": "network.rate_matrix",
    "network.start_flow": "network.start_flow",
    "network.reroute_flow": "network.reroute_flow",
    "network.tick": "network.tick",
    "network.refill": "network.tick",
    "background": "background",
    "other.RoutingController": "routing",
    "scheduler.select_map": "scheduler.select_map",
    "scheduler.select_reduce": "scheduler.select_reduce",
    "cost.reduce_costs": "cost.reduce_costs",
    "cost.map_offer_costs": "cost.map_offer_costs",
    "cost.reduce_offer_costs": "cost.reduce_offer_costs",
    "tracker.heartbeat": "tracker.heartbeat",
    "tracker.submit": "tracker.other",
    "tracker.other": "tracker.other",
    "engine.map": "engine.map",
    "engine.reduce": "engine.reduce",
    "engine.shuffle": "engine.shuffle",
    "hdfs": "hdfs.replication",
    "other.ReplicationMonitor": "hdfs.replication",
    "faults": "faults",
}

#: every layer the split reports, zero when a workload never enters it
LAYERS = tuple(sorted(set(LAYER_OF.values())))


class LayerTracer:
    """Call counters plus profiler scopes around layer entry points."""

    def __init__(self) -> None:
        from repro.obs import profile

        self._profile = profile
        self.calls: Counter = Counter()
        self.rate_misses = 0
        self._rate_depth = 0
        self._rate_epoch = None

    def _scoped(self, fn, name: str, count: bool = True):
        profile = self._profile
        calls = self.calls

        def wrapper(*args, **kwargs):
            if count:
                calls[name] += 1
            prof = profile.ACTIVE
            if prof is None:
                return fn(*args, **kwargs)
            prof.push(name)
            try:
                return fn(*args, **kwargs)
            finally:
                prof.pop()

        return wrapper

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (an object or a class) with a scoped call."""
        setattr(owner, attr, self._scoped(getattr(owner, attr), name))

    def _rate_view(self, fn, network):
        """One read of the fabric's rate view; nested reads count once.

        A read is a miss when the network epoch moved since the previous
        read, i.e. when the cached matrix cannot be reused.
        """
        scoped = self._scoped(fn, "network.rate_matrix", count=False)

        def wrapper(*args, **kwargs):
            if self._rate_depth == 0:
                self.calls["network.rate_matrix"] += 1
                epoch = network.epoch
                if epoch != self._rate_epoch:
                    self.rate_misses += 1
                    self._rate_epoch = epoch
            self._rate_depth += 1
            try:
                return scoped(*args, **kwargs)
            finally:
                self._rate_depth -= 1

        return wrapper

    def install(self, sim) -> None:
        """Wrap the layer entry points of one constructed Simulation."""
        from repro.core.cost import JobCostModel

        cluster = sim.cluster
        network = cluster.network
        cluster.inverse_rate_matrix = self._rate_view(
            cluster.inverse_rate_matrix, network
        )
        network.rate_matrix = self._rate_view(network.rate_matrix, network)
        self.wrap(network, "start_flow", "network.start_flow")
        self.wrap(network, "reroute_flow", "network.reroute_flow")
        scheduler = sim.tracker.task_scheduler
        self.wrap(scheduler, "select_map", "scheduler.select_map")
        self.wrap(scheduler, "select_reduce", "scheduler.select_reduce")
        self.wrap(sim.tracker, "on_heartbeat", "tracker.heartbeat")
        # cost models are created per job as jobs arrive, so they are
        # wrapped on the class (the traced process is private to one run)
        for attr in ("reduce_costs", "map_offer_costs", "reduce_offer_costs"):
            self.wrap(JobCostModel, attr, f"cost.{attr}")


def layer_split(doc: Dict) -> Dict[str, float]:
    """Fold a ``repro-profile`` document into per-layer self seconds.

    Components no layer claims land in ``other``.
    """
    split = {layer: 0.0 for layer in LAYERS}
    split["other"] = 0.0
    for name, rec in doc["components"].items():
        split[LAYER_OF.get(name, "other")] += rec["self_s"]
    return split


def profile_calls(doc: Dict, component: str) -> int:
    """Dispatches the profiler charged to one component."""
    return int(doc["components"].get(component, {}).get("calls", 0))
