"""Unit tests for metrics records, the collector, and analysis helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    ascii_cdf,
    ecdf,
    ecdf_at,
    format_cdf_points,
    format_table,
    fraction_above,
    quantile,
    reduction_percent,
)
from repro.metrics import JobRecord, MetricsCollector, TaskRecord
from repro.trace import TraceRecorder
from repro.trace.events import Decline, JobSubmit


def tr(job="01", kind="map", index=0, node="n0", start=0.0, end=10.0,
       locality="node", bytes_in=100.0, bytes_moved=0.0, cost=0.0):
    return TaskRecord(job, kind, index, node, start, end, locality,
                      bytes_in, bytes_moved, cost)


def jr(job="01", name="j", app="grep", submit=0.0, finish=100.0,
       maps=4, reduces=2, input_size=1e9, shuffle=1e8):
    return JobRecord(job, name, app, submit, finish, maps, reduces,
                     input_size, shuffle)


class TestRecords:
    def test_task_duration(self):
        assert tr(start=5.0, end=12.5).duration == 7.5

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            tr(kind="shuffle")

    def test_bad_locality_rejected(self):
        with pytest.raises(ValueError):
            tr(locality="nearby")

    def test_time_travel_rejected(self):
        with pytest.raises(ValueError):
            tr(start=10.0, end=5.0)
        with pytest.raises(ValueError):
            jr(submit=10.0, finish=5.0)

    def test_job_completion_time(self):
        assert jr(submit=10.0, finish=110.0).completion_time == 100.0


class TestCollector:
    def make(self):
        c = MetricsCollector()
        c.note(JobSubmit(t=0.0, job_id="01"))
        c.note(JobSubmit(t=5.0, job_id="02"))
        c.task_completed(tr(job="01", kind="map", index=0, start=0, end=10,
                            locality="node"))
        c.task_completed(tr(job="01", kind="map", index=1, start=2, end=14,
                            locality="rack", bytes_moved=100.0, cost=200.0))
        c.task_completed(tr(job="01", kind="reduce", index=0, start=10,
                            end=30, locality="remote", bytes_moved=50.0))
        c.job_completed(jr(job="01", finish=30.0))
        c.job_completed(jr(job="02", submit=5.0, finish=20.0))
        return c

    def test_job_completion_times_sorted_by_id(self):
        c = self.make()
        assert np.allclose(c.job_completion_times(), [30.0, 15.0])
        assert c.job_ids() == ["01", "02"]

    def test_task_durations(self):
        c = self.make()
        assert np.allclose(sorted(c.task_durations("map")), [10.0, 12.0])
        assert np.allclose(c.task_durations("reduce"), [20.0])
        with pytest.raises(ValueError):
            c.task_durations("shuffle")

    def test_locality_shares(self):
        c = self.make()
        shares = c.locality_shares()
        assert shares["node"] == pytest.approx(1 / 3)
        assert shares["rack"] == pytest.approx(1 / 3)
        assert shares["remote"] == pytest.approx(1 / 3)
        map_shares = c.locality_shares("map")
        assert map_shares["node"] == pytest.approx(0.5)
        assert map_shares["remote"] == 0.0

    def test_empty_locality_shares(self):
        shares = MetricsCollector().locality_shares()
        assert shares == {"node": 0.0, "rack": 0.0, "remote": 0.0}

    def test_bytes_and_cost_totals(self):
        c = self.make()
        assert c.bytes_moved() == 150.0
        assert c.total_cost() == 200.0

    def test_makespan(self):
        c = self.make()
        assert c.makespan() == 30.0
        assert MetricsCollector().makespan() == 0.0

    def test_makespan_falls_back_to_earliest_task_start(self):
        # no job_submitted() calls, but tasks were recorded: anchor on the
        # earliest task start instead of returning a bogus end-of-run value
        c = MetricsCollector()
        c.task_completed(tr(index=0, start=4.0, end=10.0))
        c.task_completed(tr(index=1, start=2.0, end=30.0))
        assert c.makespan() == 28.0

    def test_makespan_falls_back_to_job_submit_times(self):
        c = MetricsCollector()
        c.job_completed(jr(job="01", submit=3.0, finish=23.0))
        assert c.makespan() == 20.0

    def test_offer_declined_reason_accounting(self):
        rec = TraceRecorder()
        c = MetricsCollector(rec)
        for kind, reason in (
            ("map", "no_candidate"),
            ("map", "below_pmin"),
            ("reduce", "colocation_veto"),
            ("reduce", "colocation_veto"),
        ):
            c.note(Decline(t=0.0, node="n", kind=kind, reason=reason, job_id=""))
        assert c.scheduling_declines == 4
        # every noted event reaches the recorder once
        assert len(rec.events) == 4
        assert c.declines_by_reason() == {
            ("map", "no_candidate"): 1,
            ("map", "below_pmin"): 1,
            ("reduce", "colocation_veto"): 2,
        }
        assert c.declines_by_reason("reduce") == {
            ("reduce", "colocation_veto"): 2,
        }

    def test_offer_declined_rejects_unknown_kind(self):
        c = MetricsCollector()
        with pytest.raises(ValueError):
            c.note(
                Decline(t=0.0, node="n", kind="shuffle",
                        reason="no_candidate", job_id="")
            )
        assert c.scheduling_declines == 0
        with pytest.raises(ValueError):
            c.declines_by_reason("shuffle")

    def test_occupancy_series(self):
        c = MetricsCollector()
        c.task_completed(tr(index=0, start=0, end=10))
        c.task_completed(tr(index=1, start=5, end=15))
        times, levels = c.occupancy_series("map")
        assert list(times) == [0, 5, 10, 15]
        assert list(levels) == [1, 2, 1, 0]

    def test_occupancy_merges_simultaneous_events(self):
        c = MetricsCollector()
        c.task_completed(tr(index=0, start=0, end=10))
        c.task_completed(tr(index=1, start=0, end=10))
        times, levels = c.occupancy_series("map")
        assert list(times) == [0, 10]
        assert list(levels) == [2, 0]

    def test_mean_utilisation(self):
        c = MetricsCollector()
        c.task_completed(tr(index=0, start=0, end=10))
        c.task_completed(tr(index=1, start=10, end=20))
        # one task always running out of 2 slots over [0, 20]
        assert c.mean_utilisation("map", 2) == pytest.approx(0.5)

    def test_utilisation_empty(self):
        assert MetricsCollector().mean_utilisation("map", 4) == 0.0
        with pytest.raises(ValueError):
            MetricsCollector().mean_utilisation("map", 0)


class TestAnalysisCDF:
    def test_ecdf_simple(self):
        xs, ps = ecdf(np.array([3.0, 1.0, 2.0, 2.0]))
        assert list(xs) == [1.0, 2.0, 3.0]
        assert np.allclose(ps, [0.25, 0.75, 1.0])

    def test_ecdf_rejects_empty_and_nan(self):
        with pytest.raises(ValueError):
            ecdf(np.array([]))
        with pytest.raises(ValueError):
            ecdf(np.array([1.0, np.nan]))

    def test_ecdf_at(self):
        arr = np.array([1.0, 2.0, 3.0, 4.0])
        assert ecdf_at(arr, 2.5) == 0.5
        assert ecdf_at(arr, 0.0) == 0.0
        assert ecdf_at(arr, 4.0) == 1.0

    def test_quantile(self):
        arr = np.array([1.0, 2.0, 3.0, 4.0])
        assert quantile(arr, 0.5) in (2.0, 3.0)
        assert quantile(arr, 1.0) == 4.0
        with pytest.raises(ValueError):
            quantile(arr, 1.5)

    def test_fraction_above(self):
        arr = np.array([1.0, 2.0, 3.0])
        assert fraction_above(arr, 1.5) == pytest.approx(2 / 3)
        with pytest.raises(ValueError):
            fraction_above(np.array([]), 1.0)

    def test_reduction_percent(self):
        base = np.array([100.0, 200.0])
        ours = np.array([50.0, 300.0])
        r = reduction_percent(base, ours)
        assert np.allclose(r, [50.0, -50.0])

    def test_reduction_shape_mismatch(self):
        with pytest.raises(ValueError):
            reduction_percent(np.array([1.0]), np.array([1.0, 2.0]))

    def test_reduction_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            reduction_percent(np.array([0.0]), np.array([1.0]))


class TestRendering:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2], [33, 44]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "--" in lines[1]
        widths = {len(l) for l in lines}
        assert len(widths) == 1  # uniform width

    def test_format_table_title(self):
        out = format_table(["x"], [[1]], title="T")
        assert out.splitlines()[0] == "T"

    def test_ascii_cdf_renders_all_series(self):
        out = ascii_cdf(
            {"a": np.array([1.0, 2.0]), "b": np.array([2.0, 4.0])},
            width=32, height=8,
        )
        assert "*=a" in out and "o=b" in out
        assert "1.00 |" in out and "0.00 |" in out

    def test_ascii_cdf_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_cdf({})

    def test_format_cdf_points(self):
        pts = format_cdf_points(np.array([1.0, 2.0, 3.0, 4.0]), [2.0, 5.0])
        assert pts == [(2.0, 0.5), (5.0, 1.0)]
