"""Tests for the decision-level trace subsystem (repro.trace).

Covers the acceptance criteria of the tracing work: same-seed runs produce
byte-identical JSONL streams, decline events use the canonical reason
vocabulary, every ``evaluate`` event carries finite costs and a probability
in [0, 1], the Chrome export is valid trace-event JSON, and the disabled
(NullRecorder) path records nothing.  ``tests/test_ledger.py`` checks that
every counted event matches the collector's counts.
"""

from __future__ import annotations

import json
import math

import pytest

from repro import ClusterSpec, Simulation, table2_batch
from repro.core import ProbabilisticNetworkAwareScheduler
from repro.engine import EngineConfig
from repro.schedulers import CouplingScheduler, FairScheduler
from repro.trace import (
    DECLINE_REASONS,
    Decline,
    NullRecorder,
    TraceRecorder,
    ascii_timeline,
    chrome_trace,
    events_to_chrome,
    events_to_jsonl,
    jsonl_lines,
    read_jsonl,
    trace_summary,
)
from repro.trace.events import JobSubmit

SCHEDULERS = [
    pytest.param(ProbabilisticNetworkAwareScheduler, id="pna"),
    pytest.param(FairScheduler, id="fair"),
    pytest.param(CouplingScheduler, id="coupling"),
]


def run_traced(factory, seed=123, **config):
    sim = Simulation(
        cluster=ClusterSpec(num_racks=2, nodes_per_rack=3),
        scheduler=factory(),
        jobs=table2_batch("wordcount", scale=0.02)[:4],
        config=EngineConfig(trace=True, **config),
        seed=seed,
    )
    return sim.run()


@pytest.fixture(scope="module")
def pna_result():
    return run_traced(ProbabilisticNetworkAwareScheduler)


class TestRecorder:
    def test_null_recorder_is_default_and_silent(self):
        sim = Simulation(
            cluster=ClusterSpec(num_racks=2, nodes_per_rack=3),
            scheduler=ProbabilisticNetworkAwareScheduler(),
            jobs=table2_batch("wordcount", scale=0.02)[:2],
            seed=7,
        )
        assert isinstance(sim.recorder, NullRecorder)
        assert not sim.recorder.enabled
        result = sim.run()
        assert result.trace is None
        # emit on the null recorder is a no-op, not an error
        sim.recorder.emit(JobSubmit(t=0.0, job_id="x"))

    def test_trace_config_attaches_recorder(self, pna_result):
        assert isinstance(pna_result.trace, TraceRecorder)
        assert pna_result.trace.events
        counts = pna_result.trace.counts()
        for expected in ("run_start", "job_submit", "heartbeat", "offer",
                         "assign", "task_start", "task_finish", "job_finish"):
            assert counts[expected] > 0, expected

    def test_events_are_time_ordered_per_emission(self, pna_result):
        times = [ev.t for ev in pna_result.trace.events]
        assert times == sorted(times)

    def test_explicit_recorder_is_adopted(self):
        rec = TraceRecorder()
        sim = Simulation(
            cluster=ClusterSpec(num_racks=2, nodes_per_rack=3),
            scheduler=FairScheduler(),
            jobs=table2_batch("wordcount", scale=0.02)[:2],
            seed=7,
            recorder=rec,
        )
        result = sim.run()
        assert result.trace is rec
        assert rec.events


class TestDeterminism:
    def test_same_seed_byte_identical_jsonl(self):
        r1 = run_traced(ProbabilisticNetworkAwareScheduler, seed=123)
        r2 = run_traced(ProbabilisticNetworkAwareScheduler, seed=123)
        assert jsonl_lines(r1.trace.events) == jsonl_lines(r2.trace.events)

    def test_tracing_does_not_change_the_simulation(self):
        traced = run_traced(ProbabilisticNetworkAwareScheduler, seed=123)
        sim = Simulation(
            cluster=ClusterSpec(num_racks=2, nodes_per_rack=3),
            scheduler=ProbabilisticNetworkAwareScheduler(),
            jobs=table2_batch("wordcount", scale=0.02)[:4],
            seed=123,
        )
        plain = sim.run()
        assert traced.sim_time == plain.sim_time
        assert traced.bytes_over_fabric == plain.bytes_over_fabric
        assert (
            traced.collector.scheduling_declines
            == plain.collector.scheduling_declines
        )


class TestDeclineAccounting:
    @pytest.mark.parametrize("factory", SCHEDULERS)
    def test_reasons_use_canonical_vocabulary(self, factory):
        result = run_traced(factory)
        for ev in result.trace.events:
            if isinstance(ev, Decline):
                assert ev.reason in DECLINE_REASONS
                assert ev.kind in ("map", "reduce")


class TestEvaluateEvents:
    def test_pna_evaluations_are_finite_probabilities(self, pna_result):
        evaluations = [
            ev for ev in pna_result.trace.events if ev.type == "evaluate"
        ]
        assert evaluations
        for ev in evaluations:
            assert math.isfinite(ev.c_here)
            assert math.isfinite(ev.c_ave)
            assert 0.0 <= ev.p <= 1.0
            assert ev.candidates > 0
            assert ev.task_index >= 0


class TestExporters:
    def test_jsonl_round_trip(self, pna_result, tmp_path):
        path = tmp_path / "run.jsonl"
        n = events_to_jsonl(pna_result.trace.events, str(path))
        assert n == len(pna_result.trace.events)
        loaded = read_jsonl(str(path))
        assert loaded == [ev.to_dict() for ev in pna_result.trace.events]

    def test_jsonl_append_mode(self, pna_result, tmp_path):
        path = tmp_path / "runs.jsonl"
        events_to_jsonl(pna_result.trace.events[:3], str(path), append=True)
        events_to_jsonl(pna_result.trace.events[:2], str(path), append=True)
        assert len(read_jsonl(str(path))) == 5

    def test_trace_jsonl_config_writes_file(self, tmp_path):
        path = tmp_path / "auto.jsonl"
        result = run_traced(FairScheduler, trace_jsonl=str(path))
        loaded = read_jsonl(str(path))
        assert len(loaded) == len(result.trace.events)
        assert loaded[0]["type"] == "run_start"
        assert loaded[0]["scheduler"] == "fair"

    def test_chrome_trace_is_valid_and_structured(self, pna_result, tmp_path):
        path = tmp_path / "run.json"
        events_to_chrome(pna_result.trace.events, str(path))
        with open(path) as fh:
            doc = json.load(fh)
        events = doc["traceEvents"]
        assert events
        phases = {e["ph"] for e in events}
        assert phases >= {"M", "X", "i"}
        # nodes appear as named processes
        process_names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert "r0n0" in process_names
        assert "jobtracker" in process_names
        for e in events:
            if e["ph"] == "X":
                assert e["ts"] >= 0.0
                assert e["dur"] >= 0.0

    def test_chrome_trace_accepts_dict_events(self, pna_result):
        dicts = [ev.to_dict() for ev in pna_result.trace.events]
        doc = chrome_trace(dicts)
        assert doc["traceEvents"]


class TestRenderers:
    def test_trace_summary_lists_counts_and_reasons(self, pna_result):
        text = trace_summary(pna_result.trace.events)
        assert "trace events" in text
        assert "assign" in text
        assert "assignments" in text

    def test_ascii_timeline_has_one_row_per_active_node(self, pna_result):
        text = ascii_timeline(pna_result.trace.events)
        lines = text.splitlines()
        assert any(line.startswith("r0n0 ") for line in lines)
        assert "sim time" in text

    def test_renderers_accept_loaded_dicts(self, pna_result, tmp_path):
        path = tmp_path / "run.jsonl"
        events_to_jsonl(pna_result.trace.events, str(path))
        loaded = read_jsonl(str(path))
        assert trace_summary(loaded) == trace_summary(pna_result.trace.events)
        assert ascii_timeline(loaded) == ascii_timeline(pna_result.trace.events)

    def test_empty_timeline_degrades_gracefully(self):
        assert ascii_timeline([]) == "(no task activity)"


class TestRunSummary:
    def test_summary_reports_offer_accounting(self, pna_result):
        text = pna_result.summary()
        assert "slot offers:" in text
        assert "assigned" in text
        assert "speculative launches" in text
        if pna_result.collector.scheduling_declines:
            assert "declines by reason:" in text
