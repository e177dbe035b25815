"""The hot-path wall-time profiler: attribution, nesting, safety.

The profiler's accounting contract is *self time*: a parent scope is
charged only for the wall time its children did not claim, so the table
sums to at most the profiled wall time.  Tests substitute the module
clock (:data:`repro.obs.profile._clock`) with a deterministic fake to pin
the arithmetic exactly, then one end-to-end run checks the acceptance
bar: a profiled simulation attributes >= 80 % of its wall time.
"""

from __future__ import annotations

import pytest

from repro.obs import profile
from repro.obs.profile import Profiler, profiled, table_from_doc


# helper callables at module level: component resolution keys off
# __qualname__, and test-local definitions would carry a
# "test_fn.<locals>." prefix that defeats the prefix table
class JobTracker:
    def _make_heartbeat(self):
        pass

    def _expire(self):
        pass


class FlowNetwork:
    def _settle(self):
        pass


class TelemetryMonitor:
    def sample(self):
        pass


class FakeClock:
    """A manually-advanced clock substituted for time.perf_counter."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(profile, "_clock", fake)
    return fake


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
def test_nested_scopes_charge_self_time(clock):
    prof = Profiler()
    with prof.scope("outer"):
        clock.advance(1.0)
        with prof.scope("inner"):
            clock.advance(3.0)
        clock.advance(0.5)
    assert prof.self_s["inner"] == pytest.approx(3.0)
    assert prof.self_s["outer"] == pytest.approx(1.5)  # 4.5 elapsed - 3.0 child
    assert prof.calls == {"outer": 1, "inner": 1}
    assert prof.attributed_s == pytest.approx(4.5)


def test_sibling_scopes_both_deducted_from_parent(clock):
    prof = Profiler()
    with prof.scope("parent"):
        with prof.scope("a"):
            clock.advance(1.0)
        with prof.scope("a"):
            clock.advance(2.0)
        with prof.scope("b"):
            clock.advance(4.0)
    assert prof.self_s["a"] == pytest.approx(3.0)
    assert prof.self_s["b"] == pytest.approx(4.0)
    assert prof.self_s["parent"] == pytest.approx(0.0)
    assert prof.calls["a"] == 2


def test_run_event_buckets_by_component(clock):
    prof = Profiler()
    tracker = JobTracker()

    def beat() -> None:
        clock.advance(2.0)

    tracker_beat = tracker._make_heartbeat
    prof.run_event(tracker_beat, ())
    prof.run_event(beat, ())
    # a known prefix maps to its component; an unknown qualname falls
    # into the default bucket of its qualname root
    assert prof.calls["tracker.heartbeat"] == 1
    assert prof.self_s[f"other.{beat.__qualname__.split('.')[0]}"] == (
        pytest.approx(2.0)
    )


def test_run_event_pops_on_exception(clock):
    prof = Profiler()

    def boom() -> None:
        clock.advance(1.0)
        raise RuntimeError("event failed")

    with pytest.raises(RuntimeError):
        prof.run_event(boom, ())
    assert prof._stack == []  # the scope stack unwound
    assert sum(prof.self_s.values()) == pytest.approx(1.0)


def test_component_resolution_table():
    prof = Profiler()
    tracker, net = JobTracker(), FlowNetwork()
    assert prof._component(tracker._make_heartbeat) == "tracker.heartbeat"
    assert prof._component(tracker._expire) == "tracker.other"
    assert prof._component(net._settle) == "network.tick"
    # resolution is cached per qualname
    assert "JobTracker._expire" in prof._component_cache


def test_component_unwraps_periodic_tasks():
    from repro.sim.events import Simulator

    sim = Simulator()
    task = sim.every(5.0, TelemetryMonitor().sample)
    prof = Profiler()
    assert prof._component(task._fire) == "telemetry"


# ----------------------------------------------------------------------
# the profiled() guard
# ----------------------------------------------------------------------
def test_profiled_installs_and_resets_active(clock):
    assert profile.ACTIVE is None
    with profiled() as prof:
        assert profile.ACTIVE is prof
        clock.advance(2.5)
    assert profile.ACTIVE is None
    assert prof.wall_s == pytest.approx(2.5)


def test_profiled_resets_active_on_exception(clock):
    with pytest.raises(ValueError):
        with profiled():
            raise ValueError("body failed")
    assert profile.ACTIVE is None


def test_nested_profiled_raises(clock):
    with profiled():
        with pytest.raises(RuntimeError):
            with profiled():
                pass
    assert profile.ACTIVE is None


# ----------------------------------------------------------------------
# document and table
# ----------------------------------------------------------------------
def test_doc_shape_and_table_round_trip(clock):
    with profiled() as prof:
        with prof.scope("network.refill"):
            clock.advance(3.0)
        with prof.scope("cost.reduce_costs"):
            clock.advance(1.0)
    doc = prof.to_doc()
    assert doc["format"] == "repro-profile"
    assert doc["version"] == 1
    assert doc["wall_s"] == pytest.approx(4.0)
    assert doc["coverage"] == pytest.approx(1.0)
    assert set(doc["components"]) == {"network.refill", "cost.reduce_costs"}
    assert doc["components"]["network.refill"]["calls"] == 1

    table = table_from_doc(doc)
    assert "network.refill" in table.splitlines()[1]  # hottest first
    assert "(total attributed)" in table
    top1 = table_from_doc(doc, top=1)
    assert "cost.reduce_costs" not in top1


# ----------------------------------------------------------------------
# end to end: a profiled simulation meets the coverage bar
# ----------------------------------------------------------------------
def test_profile_case_covers_engine_wall_time():
    from repro.experiments.perf import SMALL_CLUSTER, BenchCase, profile_case

    case = BenchCase("smoke", "pna-netcond", SMALL_CLUSTER, scale=0.05)
    doc = profile_case(case)
    assert doc["case"] == "smoke"
    assert doc["events"] > 0
    assert doc["components"], "attribution table must be non-empty"
    # the acceptance bar: >= 80 % of engine wall time attributed
    assert doc["coverage"] >= 0.8
    # the fused C tick absorbs settle/refill/horizon, so "network.tick"
    # is the one guaranteed fabric component (a standalone
    # "network.refill" bucket appears only on the non-fused paths)
    assert "network.tick" in doc["components"]
    # and profiling must not leak the active profiler
    assert profile.ACTIVE is None


def test_profiled_speculative_run_attributes_scheduler_scopes(
    straggler_sim,
):
    """Selection and speculation wall time lands in ``scheduler.*`` scopes."""
    from repro.experiments.perf import profile_simulation

    sim = straggler_sim()
    doc = profile_simulation(sim)
    assert sim.tracker.collector.speculative_launched > 0
    for scope in ("scheduler.select_map", "scheduler.select_reduce",
                  "scheduler.speculate"):
        assert doc["components"][scope]["calls"] > 0, scope
    assert profile.ACTIVE is None
