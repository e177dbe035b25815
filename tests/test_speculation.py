"""Tests for speculative (backup) map execution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import BackgroundSpec, ClusterSpec
from repro.engine import EngineConfig, Simulation, TaskState
from repro.hdfs import SubsetPlacement
from repro.schedulers import RandomScheduler
from repro.units import MB
from repro.workload import JobSpec


class TestConfigValidation:
    def test_valid_defaults(self):
        cfg = EngineConfig()
        assert cfg.speculative is False

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            EngineConfig(speculative_min_age=-1)
        with pytest.raises(ValueError):
            EngineConfig(speculative_progress_factor=0.0)
        with pytest.raises(ValueError):
            EngineConfig(speculative_progress_factor=1.5)
        with pytest.raises(ValueError):
            EngineConfig(speculative_cap=0.0)


class TestSpeculativeExecution:
    def test_backup_attempts_launched_for_stragglers(self, straggler_sim):
        sim = straggler_sim()
        result = sim.run()
        assert result.collector.speculative_launched > 0

    def test_speculation_beats_no_speculation_with_stragglers(
        self, straggler_sim
    ):
        jct_off = straggler_sim(config=EngineConfig()).run().mean_jct
        jct_on = straggler_sim().run().mean_jct
        assert jct_on < jct_off

    def test_off_by_default_no_backups(self, straggler_sim):
        sim = straggler_sim(config=EngineConfig())
        result = sim.run()
        assert result.collector.speculative_launched == 0
        assert result.collector.speculated_tasks() == 0

    def test_all_slots_released_after_cancellations(self, straggler_sim):
        sim = straggler_sim()
        sim.run()
        for node in sim.cluster.nodes:
            assert node.running_maps == 0
            assert node.running_reduces == 0

    def test_each_map_recorded_once(self, straggler_sim):
        sim = straggler_sim()
        result = sim.run()
        maps = [t for t in result.collector.task_records if t.kind == "map"]
        assert len(maps) == 12
        assert len({t.index for t in maps}) == 12

    def test_winner_attempt_count_recorded(self, straggler_sim):
        sim = straggler_sim()
        result = sim.run()
        if result.collector.speculative_launched:
            assert any(t.attempts > 1 for t in result.collector.task_records)

    def test_byte_conservation_with_speculation(self, straggler_sim):
        """Reduces still shuffle exactly the I matrix despite killed clones."""
        sim = straggler_sim()
        result = sim.run()
        job = sim.tracker.finished_jobs[0]
        shuffled = sum(
            t.bytes_in for t in result.collector.task_records
            if t.kind == "reduce"
        )
        assert shuffled == pytest.approx(job.I.sum(), rel=1e-6)

    def test_no_speculation_on_homogeneous_fast_cluster(self, spec_config):
        """Without stragglers, the progress gate keeps backups rare."""
        spec = JobSpec.make("01", "terasort", 12 * 64 * MB, 12, 2)
        sim = Simulation(
            cluster=ClusterSpec(num_racks=2, nodes_per_rack=3),
            scheduler=RandomScheduler(),
            jobs=[spec],
            config=spec_config(speculative_progress_factor=0.3),
            seed=2,
        )
        result = sim.run()
        assert result.collector.speculative_launched <= 2

    def test_cap_limits_concurrent_backups(self, spec_config, straggler_sim):
        cfg = spec_config(speculative_cap=0.01)  # at most 1 for a 12-map job
        sim = straggler_sim(config=cfg)
        sim.tracker.start()
        job = None
        while sim.sim.step():
            if job is None and sim.tracker.active_jobs:
                job = sim.tracker.active_jobs[0]
            if job is not None and not job.done:
                backups = sum(
                    1 for m in job.running_maps() if len(m.attempts) > 1
                )
                assert backups <= 1

    def test_determinism_with_speculation(self, straggler_sim):
        def fp():
            sim = straggler_sim()
            result = sim.run()
            return [
                (t.index, t.node, round(t.end, 6), t.attempts)
                for t in result.collector.task_records
            ]

        assert fp() == fp()


class TestAttemptSemantics:
    def test_launch_speculative_requires_running(self, straggler_sim):
        sim = straggler_sim()
        sim.tracker.start()
        sim.sim.run(until=1e-9)
        job = sim.tracker.active_jobs[0]
        pending = job.pending_maps()[0]
        with pytest.raises(RuntimeError):
            pending.launch_speculative(sim.cluster.nodes[0])

    def test_no_duplicate_attempt_on_same_node(self, straggler_sim):
        sim = straggler_sim()
        sim.tracker.start()
        sim.sim.run(until=1e-9)
        job = sim.tracker.active_jobs[0]
        task = job.pending_maps()[0]
        node = sim.cluster.nodes[0]
        task.launch(node)
        with pytest.raises(RuntimeError):
            task.launch_speculative(node)

    def test_d_read_reports_best_attempt(self, straggler_sim):
        sim = straggler_sim()
        sim.tracker.start()
        sim.sim.run(until=1e-9)
        job = sim.tracker.active_jobs[0]
        task = job.pending_maps()[0]
        slow = sim.cluster.node("r1n2")   # compute factor 0.05
        fast = sim.cluster.node("r0n0")
        task.launch(slow)
        task.launch_speculative(fast)
        sim.sim.run(until=sim.sim.now + 10.0)
        if not task.done:
            best = task.d_read(sim.sim.now)
            per_attempt = [a.d_read(sim.sim.now) for a in task.attempts]
            assert best == max(per_attempt)
