"""Runtime cache sanitizer (``REPRO_SANITIZE=cache``) coverage.

The ``@cached_on`` declarations that ``repro check`` verifies statically
double as runtime contracts: with the sanitizer on, every declared cache
shadow-executes its naive ``reference`` recompute on a deterministic sample
of cache hits and asserts byte-equality.  The end-to-end test drives a
network-condition PNA run — the only scheduler mode that exercises
``Cluster.inverse_rate_matrix`` and
``JobCostModel._distance_done_matrix`` — and demands at least one
shadow-verified hit per declared cache layer.
"""

from __future__ import annotations

import pytest

from repro import ClusterSpec, EngineConfig, Simulation, table2_batch
from repro.cluster import Cluster, FlowNetwork
from repro.cluster.pathcost import TreePathCosts
from repro.cluster.topology import GraphTopology, Topology, rack_topology
from repro.coherence import (
    DECLARATIONS,
    CacheCoherenceError,
    cached_on,
    reset_sanitizer_stats,
    sanitize_cache_active,
    sanitizer_report,
    set_sanitize_cache,
)
from repro.core import PNAConfig, ProbabilisticNetworkAwareScheduler
from repro.sim import Simulator
from repro.units import MB


@pytest.fixture
def sanitizer():
    """Turn the cache sanitizer on for one test, with zeroed counters."""
    was = sanitize_cache_active()
    set_sanitize_cache(True)
    reset_sanitizer_stats()
    yield
    set_sanitize_cache(was)
    reset_sanitizer_stats()


# ---------------------------------------------------------------------------
# end-to-end: every declared layer shadow-verifies during a netcond run
# ---------------------------------------------------------------------------
def test_netcond_run_shadow_verifies_every_layer(sanitizer):
    # grep's reduce-light shape leaves reduces pending after the last map
    # finishes, which is the one phase where the per-offer reduce bundle
    # is cacheable — wordcount here would leave that layer unexercised
    sim = Simulation(
        cluster=ClusterSpec(num_racks=2, nodes_per_rack=3),
        scheduler=ProbabilisticNetworkAwareScheduler(
            PNAConfig(network_condition=True)
        ),
        jobs=table2_batch("grep", scale=0.05)[:4],
        config=EngineConfig(),
        seed=123,
    )
    result = sim.run()
    assert result.sim_time > 0 and result.mean_jct > 0

    report = sanitizer_report()
    # the PR 4 cache layers are all registered...
    for layer in (
        "Cluster.inverse_rate_matrix",
        "Cluster.free_map_slot_view",
        "Cluster.free_reduce_slot_view",
        "Job.pending_maps",
        "Job.pending_reduces",
        "JobCostModel._distance_done_matrix",
        "JobCostModel.map_offer_costs",
        "JobCostModel.reduce_offer_costs",
    ):
        assert layer in report, f"{layer} is not declared via @cached_on"
    # ... and every registered production layer (everything except this
    # module's own _Counter fixture) was hit and shadow-verified at least once
    for name, counters in report.items():
        if name.startswith("_Counter."):
            continue
        assert counters["hits"] >= 1, f"{name}: no cache hit in netcond run"
        assert counters["verified"] >= 1, f"{name}: never shadow-verified"


def test_tree_path_costs_verified_against_per_pair_walk(sanitizer, monkeypatch):
    """On a rack tree the netcond distances come from the tensor-free tree
    view, and its cache hits are shadow-verified against the per-pair
    ``path_rate`` walk, one walk per verification."""

    def no_tensor(self):
        raise AssertionError("route tensor built on a tree")

    monkeypatch.setattr(Topology, "route_tensor", no_tensor)
    monkeypatch.setattr(GraphTopology, "route_tensor", no_tensor)
    walks = []
    walk = FlowNetwork._rate_matrix_uncached

    def counted_walk(self):
        walks.append(self)
        return walk(self)

    monkeypatch.setattr(FlowNetwork, "_rate_matrix_uncached", counted_walk)
    sim = Simulation(
        cluster=ClusterSpec(num_racks=3, nodes_per_rack=4),
        scheduler=ProbabilisticNetworkAwareScheduler(
            PNAConfig(network_condition=True)
        ),
        jobs=table2_batch("grep", scale=0.05)[:3],
        seed=5,
    )
    sim.run()
    counters = sanitizer_report()["Cluster.inverse_rate_matrix"]
    assert counters["verified"] >= 2
    assert len(walks) == counters["verified"]
    assert isinstance(sim.cluster._rate_view[1], TreePathCosts)


def test_stale_path_cost_view_is_caught(sanitizer):
    cluster = Cluster(Simulator(), rack_topology(2, 3))
    stale = cluster.path_costs()
    cluster.network.start_flow("r0n0", "r1n0", 100 * MB)
    # the seeded defect: the new epoch keys the old epoch's view
    cluster._rate_view = (cluster.network.epoch, stale)
    with pytest.raises(CacheCoherenceError, match="Cluster.inverse_rate_matrix"):
        cluster.path_costs()


def test_sanitized_run_is_trace_identical_to_plain_run(tmp_path, sanitizer):
    """Verification must be a pure observer: same seed, same trace."""

    def run(tag):
        trace = tmp_path / f"{tag}.jsonl"
        sim = Simulation(
            cluster=ClusterSpec(num_racks=2, nodes_per_rack=3),
            scheduler=ProbabilisticNetworkAwareScheduler(
                PNAConfig(network_condition=True)
            ),
            jobs=table2_batch("wordcount", scale=0.02)[:2],
            config=EngineConfig(trace_jsonl=str(trace)),
            seed=7,
        )
        sim.run()
        return trace.read_bytes()

    sanitized = run("sanitized")
    set_sanitize_cache(False)
    plain = run("plain")
    assert sanitized and sanitized == plain


# ---------------------------------------------------------------------------
# white-box: the decorator's hit/sample/mismatch mechanics
# ---------------------------------------------------------------------------
class _Counter:
    """A deliberately breakable cache: `total` caches sum(_items)."""

    def __init__(self):
        self._items = []
        self._cache = None

    @cached_on(
        invalidator="_invalidate",
        inputs=("_Counter._items",),
        reference="_total_reference",
        probe=lambda self: self._cache is not None,
        sample=4,
    )
    def total(self):
        if self._cache is None:
            self._cache = sum(self._items)
        return self._cache

    def _total_reference(self):
        return sum(self._items)

    def _invalidate(self):
        self._cache = None

    def add(self, x):
        self._items.append(x)
        self._invalidate()

    def corrupt(self, x):
        self._items.append(x)  # no invalidation: the seeded defect


def test_declaration_registered_at_import():
    decl = DECLARATIONS["_Counter.total"]
    assert decl.inputs == ("_Counter._items",)
    assert decl.reference == "_total_reference"
    assert decl.sample == 4


def test_off_by_default_pays_no_verification(sanitizer):
    set_sanitize_cache(False)
    c = _Counter()
    c.corrupt(5)  # incoherent, but the sanitizer is off
    assert c.total() == 5
    assert c.total() == 5
    assert DECLARATIONS["_Counter.total"].hits == 0


def test_first_hit_then_every_nth_verified(sanitizer):
    c = _Counter()
    c.add(1)
    c.total()  # miss (fills the cache): not a hit
    decl = DECLARATIONS["_Counter.total"]
    assert decl.hits == 0
    for _ in range(9):
        c.total()
    # 9 hits, verification on the 1st, 4th and 8th
    assert decl.hits == 9
    assert decl.verified == 3


def test_incoherent_cache_raises_on_sampled_hit(sanitizer):
    c = _Counter()
    c.add(1)
    c.total()
    c.corrupt(10)  # stale cache survives: next hit must be caught
    with pytest.raises(CacheCoherenceError) as exc:
        c.total()
    assert "_Counter.total" in str(exc.value)
    assert "_total_reference" in str(exc.value)


def test_rejects_nonpositive_sample():
    with pytest.raises(ValueError):
        cached_on(sample=0)


def test_env_var_activation(monkeypatch):
    from repro.coherence import _State

    monkeypatch.setenv("REPRO_SANITIZE", "cache")
    assert _State().cache is True
    monkeypatch.setenv("REPRO_SANITIZE", "cache,other")
    assert _State().cache is True
    monkeypatch.setenv("REPRO_SANITIZE", "")
    assert _State().cache is False
    monkeypatch.delenv("REPRO_SANITIZE")
    assert _State().cache is False
