"""Tests for the Capacity job-level scheduler."""

from __future__ import annotations

import pytest

from repro.cluster import ClusterSpec
from repro.engine import Simulation
from repro.schedulers import CapacityJobScheduler, RandomScheduler
from repro.units import MB
from repro.workload import JobSpec


def run_small(scheduler, *, job_scheduler=None, num_jobs=3, seed=3):
    jobs = [
        JobSpec.make(f"{i:02d}", "terasort", 8 * 64 * MB, 8, 3)
        for i in range(1, num_jobs + 1)
    ]
    sim = Simulation(
        cluster=ClusterSpec(num_racks=2, nodes_per_rack=3),
        scheduler=scheduler,
        jobs=jobs,
        job_scheduler=job_scheduler,
        seed=seed,
    )
    return sim, sim.run()


class TestCapacityJobScheduler:
    class FakeJob:
        def __init__(self, jid, submit, running):
            self.submit_time = submit
            self.spec = type("S", (), {"job_id": jid})()
            self._running = running

        def running_maps(self):
            return [None] * self._running

        def running_reduces(self):
            return [None] * self._running

    def test_default_queue(self):
        sched = CapacityJobScheduler()
        job = self.FakeJob("a", 0.0, 0)
        assert sched.queue_of(job) == "default"

    def test_capacities_normalised(self):
        sched = CapacityJobScheduler({"prod": 3.0, "dev": 1.0})
        assert sched.capacities["prod"] == pytest.approx(0.6)
        assert sched.capacities["dev"] == pytest.approx(0.2)
        assert "default" in sched.capacities

    def test_underserved_queue_first(self):
        sched = CapacityJobScheduler(
            {"prod": 0.75, "dev": 0.25},
            assignments={"p1": "prod", "d1": "dev"},
        )
        p1 = self.FakeJob("p1", 0.0, 6)   # prod usage 6 / 0.75 share -> 8
        d1 = self.FakeJob("d1", 1.0, 1)   # dev usage 1 / 0.25 share -> 4
        out = sched.order([p1, d1], "map")
        assert [j.spec.job_id for j in out] == ["d1", "p1"]

    def test_fifo_within_queue(self):
        sched = CapacityJobScheduler(assignments={})
        a = self.FakeJob("a", 5.0, 0)
        b = self.FakeJob("b", 1.0, 0)
        out = sched.order([a, b], "reduce")
        assert [j.spec.job_id for j in out] == ["b", "a"]

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            CapacityJobScheduler({"q": -1.0})
        with pytest.raises(ValueError):
            CapacityJobScheduler({"q": 1.0}, assignments={"j": "nope"})
        with pytest.raises(ValueError):
            CapacityJobScheduler().order([], "shuffle")

    def test_end_to_end(self):
        sched = CapacityJobScheduler(
            {"prod": 0.7, "dev": 0.3},
            assignments={"01": "prod", "02": "dev", "03": "prod"},
        )
        sim, result = run_small(RandomScheduler(), job_scheduler=sched)
        assert result.job_completion_times.size == 3
