"""Tests for metrics export/import (repro.metrics.export)."""

from __future__ import annotations

import csv
import dataclasses
import json

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.core import ProbabilisticNetworkAwareScheduler
from repro.engine import Simulation
from repro.experiments import get_scenario
from repro.hdfs import DurabilityConfig
from repro.metrics import (
    MetricsCollector,
    collector_from_json,
    collector_to_json,
    jobs_to_csv,
    tasks_to_csv,
)
from repro.metrics.collector import COUNTED
from repro.schedulers import RandomScheduler
from repro.trace.events import Decline
from repro.units import MB
from repro.workload import JobSpec


@pytest.fixture(scope="module")
def finished_collector():
    sim = Simulation(
        cluster=ClusterSpec(num_racks=2, nodes_per_rack=3),
        scheduler=RandomScheduler(),
        jobs=[JobSpec.make("01", "grep", 6 * 64 * MB, 6, 3)],
        seed=8,
    )
    return sim.run().collector


@pytest.fixture(scope="module")
def churn_collector():
    scenario = get_scenario("churn")
    scenario = scenario.with_(
        config=dataclasses.replace(
            scenario.config, durability=DurabilityConfig()
        )
    )
    jobs = scenario.jobs("wordcount")[:6]
    sim = scenario.simulation(ProbabilisticNetworkAwareScheduler(), jobs)
    return sim.run().collector


#: every public count of a collector, by name
PUBLIC_COUNTS = sorted(COUNTED) + [
    "attempts_killed", "attempts_failed", "repair_bytes",
    "speculative_launched", "failed_jobs", "submitted", "decline_reasons",
]


class TestCSVExport:
    def test_tasks_csv_roundtrips_fields(self, finished_collector, tmp_path):
        path = tmp_path / "tasks.csv"
        n = tasks_to_csv(finished_collector, path)
        assert n == 9  # 6 maps + 3 reduces
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        first = rows[0]
        assert first["kind"] in ("map", "reduce")
        assert float(first["end"]) > float(first["start"])
        assert "attempts" in first

    def test_jobs_csv(self, finished_collector, tmp_path):
        path = tmp_path / "jobs.csv"
        n = jobs_to_csv(finished_collector, path)
        assert n == 1
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["job_id"] == "01"
        assert rows[0]["app"] == "grep"


class TestJSONRoundtrip:
    def test_full_roundtrip(self, finished_collector, tmp_path):
        path = tmp_path / "run.json"
        collector_to_json(finished_collector, path)
        loaded = collector_from_json(path)
        assert loaded.task_records == finished_collector.task_records
        assert loaded.job_records == finished_collector.job_records
        assert loaded.submitted == finished_collector.submitted
        assert (
            loaded.scheduling_assignments
            == finished_collector.scheduling_assignments
        )
        assert loaded.decline_reasons == finished_collector.decline_reasons
        assert (
            loaded.declines_by_reason()
            == finished_collector.declines_by_reason()
        )

    def test_churn_roundtrip_keeps_every_count(self, churn_collector, tmp_path):
        path = tmp_path / "churn.json"
        collector_to_json(churn_collector, path)
        loaded = collector_from_json(path)
        assert churn_collector.nodes_lost > 0
        assert churn_collector.replicas_added > 0
        for name in PUBLIC_COUNTS:
            assert getattr(loaded, name) == getattr(churn_collector, name), name

    def test_older_export_keys_still_read(self, finished_collector, tmp_path):
        path = tmp_path / "old.json"
        collector_to_json(finished_collector, path)
        with open(path) as fh:
            payload = json.load(fh)
        del payload["counts"]
        payload["scheduling_declines"] = finished_collector.scheduling_declines
        payload["scheduling_assignments"] = (
            finished_collector.scheduling_assignments
        )
        with open(path, "w") as fh:
            json.dump(payload, fh)
        loaded = collector_from_json(path)
        assert (
            loaded.scheduling_assignments
            == finished_collector.scheduling_assignments > 0
        )
        assert loaded.scheduling_declines == finished_collector.scheduling_declines

    def test_decline_reasons_roundtrip(self, tmp_path):
        collector = MetricsCollector()
        for kind, reason in (
            ("map", "locality_wait"),
            ("reduce", "colocation_veto"),
            ("reduce", "colocation_veto"),
        ):
            collector.note(
                Decline(t=0.0, node="n", kind=kind, reason=reason, job_id="")
            )
        path = tmp_path / "declines.json"
        collector_to_json(collector, path)
        loaded = collector_from_json(path)
        assert loaded.scheduling_declines == 3
        assert loaded.declines_by_reason() == {
            ("map", "locality_wait"): 1,
            ("reduce", "colocation_veto"): 2,
        }

    def test_loaded_collector_supports_analysis(self, finished_collector, tmp_path):
        path = tmp_path / "run.json"
        collector_to_json(finished_collector, path)
        loaded = collector_from_json(path)
        assert np.allclose(
            loaded.job_completion_times(),
            finished_collector.job_completion_times(),
        )
        assert loaded.locality_shares() == finished_collector.locality_shares()

    def test_json_is_valid(self, finished_collector, tmp_path):
        path = tmp_path / "run.json"
        collector_to_json(finished_collector, path)
        with open(path) as fh:
            payload = json.load(fh)
        assert set(payload) >= {"tasks", "jobs", "submitted"}
