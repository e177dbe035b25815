"""One ledger: every counted engine fact is one noted trace event.

``MetricsCollector.note`` counts an event and hands the same object to the
run's recorder, so on a traced run each collector count must equal the
number of trace events of its type.  The faulted run below (node churn,
crashes, task errors, a tracker crash and a decommission, with the
durability plane on) produces every counted type; a site that emits a
counted event without noting it, or counts one without emitting it, fails
here.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro import ClusterSpec, Simulation, table2_batch
from repro.core import ProbabilisticNetworkAwareScheduler
from repro.engine import EngineConfig
from repro.experiments import get_scenario
from repro.faults import NodeCrash, NodeDecommission, TaskFailures, TrackerCrash
from repro.hdfs import DurabilityConfig
from repro.metrics.collector import COUNTED
from repro.schedulers import CouplingScheduler, FairScheduler
from repro.trace.events import NODE_LOST


@pytest.fixture(scope="module")
def faulted():
    scenario = get_scenario("churn")
    faults = dataclasses.replace(
        scenario.config.faults,
        crashes=tuple(
            NodeCrash(at=5.0, node=f"r{rack}n{n}", down_for=120.0)
            for rack in range(4)
            for n in (0, 1)
        ),
        task_failures=TaskFailures(prob=0.1),
        tracker_crashes=(TrackerCrash(at=60.0, down_for=20.0),),
        decommissions=(NodeDecommission(at=30.0, node="r1n2"),),
    )
    scenario = scenario.with_(
        seed=4,
        config=dataclasses.replace(
            scenario.config,
            trace=True,
            durability=DurabilityConfig(),
            faults=faults,
            max_attempts=3,
            max_task_failures_per_tracker=2,
        ),
    )
    jobs = scenario.jobs("wordcount")[:6]
    return scenario.simulation(ProbabilisticNetworkAwareScheduler(), jobs).run()


def traced_counts(result):
    return Counter(ev.type for ev in result.trace.events)


def decline_split(events):
    return Counter(
        (ev.kind, ev.reason) for ev in events if ev.type == "decline"
    )


def test_every_counted_type_occurs(faulted):
    counts = traced_counts(faulted)
    assert [t for t in COUNTED.values() if not counts[t]] == []


@pytest.mark.parametrize("name", sorted(COUNTED))
def test_count_matches_trace(faulted, name):
    assert getattr(faulted.collector, name) == (
        traced_counts(faulted)[COUNTED[name]]
    )


def test_attempts_split_by_reason(faulted):
    reasons = Counter(
        ev.reason for ev in faulted.trace.events if ev.type == "attempt_failed"
    )
    c = faulted.collector
    assert c.attempts_killed == reasons[NODE_LOST] > 0
    assert c.attempts_failed == sum(reasons.values()) - reasons[NODE_LOST] > 0


def test_event_fields_feed_the_collector(faulted):
    events = faulted.trace.events
    c = faulted.collector
    assert c.repair_bytes == sum(
        ev.size for ev in events if ev.type == "replica_added"
    )
    assert c.submitted == {
        ev.job_id: ev.t for ev in events if ev.type == "job_submit"
    }
    assert c.failed_jobs == {
        ev.job_id: ev.t for ev in events if ev.type == "job_fail"
    }


def run_fault_free(factory):
    return Simulation(
        cluster=ClusterSpec(num_racks=2, nodes_per_rack=3),
        scheduler=factory(),
        jobs=table2_batch("wordcount", scale=0.02)[:4],
        config=EngineConfig(trace=True),
        seed=123,
    ).run()


@pytest.mark.parametrize(
    "factory",
    [
        pytest.param(None, id="faulted"),
        pytest.param(ProbabilisticNetworkAwareScheduler, id="pna"),
        pytest.param(FairScheduler, id="fair"),
        pytest.param(CouplingScheduler, id="coupling"),
    ],
)
def test_decline_split_matches_trace(faulted, factory):
    result = faulted if factory is None else run_fault_free(factory)
    c = result.collector
    split = decline_split(result.trace.events)
    assert split == Counter(c.declines_by_reason())
    assert sum(split.values()) == c.scheduling_declines
