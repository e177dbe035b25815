"""Focused tests for JobTracker mechanics (heartbeats, offers, lifecycle)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.engine import EngineConfig, Simulation
from repro.schedulers import FIFOJobScheduler, RandomScheduler, TaskScheduler
from repro.units import MB
from repro.workload import JobSpec


def make_sim(jobs=None, scheduler=None, config=None, job_scheduler=None, seed=4):
    jobs = jobs or [JobSpec.make("01", "grep", 6 * 64 * MB, 6, 2)]
    return Simulation(
        cluster=ClusterSpec(num_racks=2, nodes_per_rack=3),
        scheduler=scheduler or RandomScheduler(),
        jobs=jobs,
        config=config,
        job_scheduler=job_scheduler,
        seed=seed,
    )


class TestHeartbeats:
    def test_staggered_across_period(self):
        sim = make_sim()
        beats = []

        original = sim.tracker.on_heartbeat

        def spy(node):
            beats.append((sim.sim.now, node.name))
            original(node)

        sim.tracker.on_heartbeat = spy
        sim.tracker.start()
        sim.sim.run(until=2.99)
        times = [t for t, _ in beats]
        # 6 nodes over a 3 s period: one heartbeat every 0.5 s
        assert len(times) == 6
        assert times == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0, 2.5])

    def test_heartbeats_stop_after_completion(self):
        sim = make_sim()
        result = sim.run()
        # after the run, the event queue has fully drained
        assert sim.sim.pending == 0
        assert sim.tracker.all_done

    def test_double_start_rejected(self):
        sim = make_sim()
        sim.tracker.start()
        with pytest.raises(RuntimeError):
            sim.tracker.start()


class TestSubmission:
    def test_future_submission_creates_job_later(self):
        spec = JobSpec.make("01", "grep", 4 * 64 * MB, 4, 2, submit_time=100.0)
        sim = make_sim(jobs=[spec])
        sim.tracker.start()
        sim.sim.run(until=50.0)
        assert not sim.tracker.active_jobs
        sim.sim.run(until=150.0)
        assert len(sim.tracker.active_jobs) + len(sim.tracker.finished_jobs) == 1

    def test_collector_tracks_submission_time(self):
        spec = JobSpec.make("01", "grep", 4 * 64 * MB, 4, 2, submit_time=30.0)
        sim = make_sim(jobs=[spec])
        result = sim.run()
        assert result.collector.submitted["01"] == 30.0
        (rec,) = result.collector.job_records
        assert rec.submit == 30.0


class TestOfferValidation:
    def test_scheduler_returning_foreign_task_rejected(self):
        class EvilScheduler(RandomScheduler):
            name = "evil"

            def select_map(self, node, job, ctx):
                other = ctx.tracker.active_jobs[-1]
                if other is not job and other.pending_maps():
                    return other.pending_maps()[0]  # task of the wrong job
                return super().select_map(node, job, ctx)

        jobs = [
            JobSpec.make("01", "grep", 4 * 64 * MB, 4, 2),
            JobSpec.make("02", "grep", 4 * 64 * MB, 4, 2),
        ]
        sim = make_sim(jobs=jobs, scheduler=EvilScheduler())
        with pytest.raises(RuntimeError):
            sim.run()

    def test_scheduler_returning_assigned_task_rejected(self):
        class StickyScheduler(RandomScheduler):
            name = "sticky"

            def __init__(self):
                self.last = None

            def select_map(self, node, job, ctx):
                if self.last is not None and not self.last.done:
                    return self.last
                self.last = super().select_map(node, job, ctx)
                return self.last

        sim = make_sim(scheduler=StickyScheduler())
        with pytest.raises(RuntimeError):
            sim.run()


class TestOfferAccounting:
    def test_assignment_counts_match_task_count(self):
        sim = make_sim()
        result = sim.run()
        # every task consumed exactly one accepted offer (no speculation)
        assert result.collector.scheduling_assignments == len(
            result.collector.task_records
        )

    def test_declining_scheduler_counts_declines(self):
        class ShyScheduler(RandomScheduler):
            name = "shy"

            def __init__(self):
                self.count = 0

            def select_map(self, node, job, ctx):
                self.count += 1
                if self.count % 2 == 0:
                    return None  # decline every other offer
                return super().select_map(node, job, ctx)

        sim = make_sim(scheduler=ShyScheduler())
        result = sim.run()
        assert result.collector.scheduling_declines > 0
        assert sim.tracker.all_done


class TestJobOrderingIntegration:
    def test_fifo_gives_head_job_priority(self):
        """Under FIFO, the first job's maps all start no later than the
        moment the second job gets its first slot beyond capacity."""
        jobs = [
            JobSpec.make("01", "grep", 20 * 64 * MB, 20, 2, submit_time=0.0),
            JobSpec.make("02", "grep", 20 * 64 * MB, 20, 2, submit_time=0.0),
        ]
        sim = make_sim(jobs=jobs, job_scheduler=FIFOJobScheduler())
        result = sim.run()
        starts = {"01": [], "02": []}
        for t in result.collector.task_records:
            if t.kind == "map":
                starts[t.job_id].append(t.start)
        # job 01 monopolises early slots: its median start precedes job 02's
        assert np.median(starts["01"]) <= np.median(starts["02"])


class _NeverScheduler(RandomScheduler):
    name = "never"

    def select_map(self, node, job, ctx):
        return None

    def select_reduce(self, node, job, ctx):
        return None


def _offer_events(sim, kind):
    """Offer and decline trace events of one slot kind."""
    return [
        ev for ev in sim.tracker.recorder.events
        if ev.type in ("offer", "decline") and ev.kind == kind
    ]


class TestSlotKinds:
    """What the map and reduce offer rounds do differently."""

    def test_reduce_round_without_schedulable_job_is_silent(self):
        # no map ever runs, so slow-start never opens the reduces: every
        # reduce round finds no candidate job and leaves no trace
        sim = make_sim(
            scheduler=_NeverScheduler(), config=EngineConfig(trace=True)
        )
        sim.tracker.start()
        sim.sim.run(until=10.0)
        heartbeats = [
            ev for ev in sim.tracker.recorder.events
            if ev.type == "heartbeat" and ev.free_reduce_slots > 0
        ]
        assert heartbeats
        assert _offer_events(sim, "map")  # the map rounds did run
        assert _offer_events(sim, "reduce") == []

    @pytest.mark.parametrize("speculative", [False, True])
    def test_map_round_without_pending_map_is_silent(self, speculative):
        # two maps on 24 map slots launch on the first heartbeats; after
        # that no job has a pending map and no map is old enough to back up
        sim = make_sim(
            jobs=[JobSpec.make("01", "grep", 2 * 64 * MB, 2, 2)],
            config=EngineConfig(trace=True, speculative=speculative),
        )
        sim.tracker.start()
        sim.sim.run(until=0.0)
        (job,) = sim.tracker.active_jobs
        while job.pending_maps():
            sim.sim.step()
        idle = [n for n in sim.cluster.nodes if n.free_map_slots > 0]
        rec = sim.tracker.recorder
        rec.events.clear()
        for node in idle:
            sim.tracker.on_heartbeat(node)
        assert _offer_events(sim, "map") == []
        assert sim.tracker.collector.speculative_launched == 0

    def test_only_an_idle_map_slot_backs_up_a_straggler(self, straggler_sim):
        sim = straggler_sim(config=EngineConfig(slowstart=1.0))
        tracker = sim.tracker
        tracker.start()
        sim.sim.run(until=40.0)
        (job,) = tracker.active_jobs
        assert not job.pending_maps() and job.running_maps()
        # no backup yet; from now on every idle slot may offer one
        tracker.config = dataclasses.replace(tracker.config, speculative=True)
        straggler = next(
            m for m in job.running_maps() if m.node.name == "r1n2"
        )
        node = next(
            n for n in sim.cluster.nodes
            if n.free_map_slots > 0 and n.free_reduce_slots > 0
            and all(a.node is not n for a in straggler.attempts)
        )
        # with the node's map slots taken, its idle reduce slots back up
        # nothing
        spare = node.map_slots
        node.map_slots = node.running_maps
        tracker.on_heartbeat(node)
        assert tracker.collector.speculative_launched == 0
        node.map_slots = spare
        tracker.on_heartbeat(node)
        assert tracker.collector.speculative_launched == 1

    @pytest.mark.parametrize("assign_multiple, launched", [(False, 1), (True, 2)])
    def test_assign_multiple_fills_every_free_reduce_slot(
        self, assign_multiple, launched
    ):
        sim = make_sim(
            jobs=[JobSpec.make("01", "grep", 6 * 64 * MB, 6, 12)],
            config=EngineConfig(
                trace=True, slowstart=0.0, assign_multiple=assign_multiple
            ),
        )
        tracker = sim.tracker
        tracker.start()
        sim.sim.run(until=0.0)
        node = sim.cluster.nodes[0]
        assigns = [
            ev for ev in tracker.recorder.events
            if ev.type == "assign" and ev.kind == "reduce"
            and ev.node == node.name
        ]
        assert len(assigns) == launched
        assert node.free_reduce_slots == 2 - launched
