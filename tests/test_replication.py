"""Durability-plane tests: the NameNode ReplicationMonitor end to end.

Covers the acceptance criteria of the durability work: config validation,
transparency (a monitor-off run is byte-identical, and a *fault-free*
monitor-on run is too), crash-triggered re-replication back to full RF,
repair cancellation when a source dies mid-copy, churn convergence with
zero permanent loss, RF=1 data-loss degradation (typed ``block_lost`` /
``input_lost`` accounting, deterministic termination under both
``on_data_loss`` policies), drain-safe decommissioning versus crash,
over-replication trimming after rejoin, hot-block extra replicas, and the
durability instruments of the metrics plane.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterSpec
from repro.engine import EngineConfig, Simulation
from repro.faults import FaultPlan, NodeChurn, NodeCrash, NodeDecommission
from repro.hdfs import DurabilityConfig
from repro.obs import MetricsConfig
from repro.schedulers import FairScheduler
from repro.trace import jsonl_lines
from repro.trace.events import (
    INPUT_LOST,
    AttemptFailed,
    BlockLost,
    DecommissionDone,
    DecommissionStart,
    JobFail,
    ReplicaAdded,
    ReplicaRemoved,
)
from repro.units import MB
from repro.workload import JobSpec

DURABILITY_EVENT_TYPES = (
    "replica_added",
    "replica_removed",
    "block_lost",
    "decommission_start",
    "decommission_done",
)


def jobs(n=2, num_maps=6, app="wordcount"):
    return [
        JobSpec.make(f"{i:02d}", app, num_maps * 64 * MB, num_maps, 2)
        for i in range(1, n + 1)
    ]


def run(plan=None, seed=7, n_jobs=2, **knobs):
    sim = Simulation(
        cluster=ClusterSpec(num_racks=2, nodes_per_rack=3),
        scheduler=FairScheduler(),
        jobs=jobs(n_jobs),
        seed=seed,
        config=EngineConfig(faults=plan, **knobs),
    )
    return sim, sim.run()


def live_replicas(sim, block):
    return [r for r in block.replicas if sim.cluster.node(r).alive]


# ----------------------------------------------------------------------
# configuration validation
# ----------------------------------------------------------------------
class TestConfigValidation:
    def test_knob_bounds(self):
        with pytest.raises(ValueError):
            DurabilityConfig(check_period=0.0)
        with pytest.raises(ValueError):
            DurabilityConfig(max_repairs=0)
        with pytest.raises(ValueError):
            DurabilityConfig(repair_rate=0.0)
        with pytest.raises(ValueError):
            DurabilityConfig(on_data_loss="panic")
        with pytest.raises(ValueError):
            DurabilityConfig(loss_grace=-1.0)
        with pytest.raises(ValueError):
            DurabilityConfig(hot_threshold=-1)
        with pytest.raises(ValueError):
            DurabilityConfig(hot_extra=0)
        DurabilityConfig(loss_grace=0.0)  # fail-at-first-poll is allowed

    def test_engine_config_type_checked(self):
        with pytest.raises(ValueError, match="DurabilityConfig"):
            EngineConfig(durability={"max_repairs": 4})

    def test_decommission_requires_durability_plane(self):
        plan = FaultPlan(
            decommissions=(NodeDecommission(at=10.0, node="r0n1"),)
        )
        with pytest.raises(ValueError, match="durability"):
            Simulation(
                cluster=ClusterSpec(num_racks=2, nodes_per_rack=3),
                scheduler=FairScheduler(),
                jobs=jobs(1),
                config=EngineConfig(faults=plan),
            )


# ----------------------------------------------------------------------
# transparency: nothing changes unless something needs repairing
# ----------------------------------------------------------------------
class TestTransparency:
    def test_fault_free_run_identical_with_monitor_on(self):
        """With no faults every block stays at target, so the monitor's
        ticks must not move a single event: the on/off traces are equal."""
        sim_off, res_off = run(trace=True)
        sim_on, res_on = run(trace=True, durability=DurabilityConfig())
        assert sim_off.replication is None
        assert sim_on.replication is not None
        assert jsonl_lines(res_off.trace.events) == jsonl_lines(
            res_on.trace.events
        )
        assert sim_on.replication.repairs_started == 0
        assert sim_on.replication.fully_replicated_at is not None

    def test_monitor_off_run_emits_no_durability_state(self):
        plan = FaultPlan(churn=NodeChurn(level=0.10, mean_downtime=60.0))
        sim, res = run(plan=plan, trace=True, tracker_expiry_interval=9.0)
        assert sim.replication is None
        types = {e.type for e in res.trace.events}
        assert not types & set(DURABILITY_EVENT_TYPES)
        c = res.collector
        assert (
            c.replicas_added, c.replicas_removed, c.blocks_lost,
            c.repair_bytes, c.decommissions,
        ) == (0, 0, 0, 0.0, 0)

    def test_monitor_on_run_is_deterministic(self):
        plan = FaultPlan(churn=NodeChurn(level=0.10, mean_downtime=60.0))
        _, r1 = run(plan=plan, trace=True, tracker_expiry_interval=9.0,
                    durability=DurabilityConfig())
        _, r2 = run(plan=plan, trace=True, tracker_expiry_interval=9.0,
                    durability=DurabilityConfig())
        assert jsonl_lines(r1.trace.events) == jsonl_lines(r2.trace.events)


# ----------------------------------------------------------------------
# re-replication
# ----------------------------------------------------------------------
class TestRepair:
    def test_permanent_crash_repairs_back_to_full_rf(self):
        plan = FaultPlan(crashes=(NodeCrash(at=10.0, node="r0n1"),))
        sim, res = run(plan=plan, trace=True, tracker_expiry_interval=9.0,
                       durability=DurabilityConfig())
        mon = sim.replication
        adds = [e for e in res.trace.events if isinstance(e, ReplicaAdded)]
        assert adds
        assert all(e.src != "r0n1" and e.node != "r0n1" for e in adds)
        assert res.collector.replicas_added == len(adds)
        assert res.collector.repair_bytes == pytest.approx(
            sum(e.size for e in adds)
        )
        assert mon.under_replicated_count() == 0
        assert mon.lost_blocks() == []
        assert mon.fully_replicated_at is not None
        for block in sim.namenode.blocks():
            assert len(live_replicas(sim, block)) >= 2
        assert res.collector.job_completion_times().size == 2

    def test_repair_traffic_is_real_flow_traffic(self):
        """Repair bytes cross the fabric: the faulted+repaired run moves
        more fabric bytes than the same faulted run without the monitor."""
        plan = FaultPlan(crashes=(NodeCrash(at=10.0, node="r0n1"),))
        sim_off, _ = run(plan=plan, tracker_expiry_interval=9.0)
        sim_on, res_on = run(plan=plan, tracker_expiry_interval=9.0,
                             durability=DurabilityConfig())
        assert res_on.collector.repair_bytes > 0
        assert (
            sim_on.cluster.network.bytes_transferred
            > sim_off.cluster.network.bytes_transferred
        )

    def test_repair_rate_cap_slows_convergence(self):
        plan = FaultPlan(crashes=(NodeCrash(at=10.0, node="r0n1"),))
        sim_fast, _ = run(plan=plan, tracker_expiry_interval=9.0,
                          durability=DurabilityConfig())
        sim_slow, _ = run(plan=plan, tracker_expiry_interval=9.0,
                          durability=DurabilityConfig(repair_rate=2 * MB))
        assert sim_slow.replication.fully_replicated_at is not None
        assert (
            sim_slow.replication.fully_replicated_at
            > sim_fast.replication.fully_replicated_at
        )

    def test_source_death_cancels_inflight_repairs(self):
        """A node dying mid-copy kills the repair flows it served and the
        blocks are re-queued (ref-counted cancellation, not a leak)."""
        plan = FaultPlan(crashes=(
            NodeCrash(at=10.0, node="r0n1"),
            NodeCrash(at=13.0, node="r1n1", down_for=120.0),
        ))
        sim, res = run(
            plan=plan, trace=True, tracker_expiry_interval=9.0,
            durability=DurabilityConfig(repair_rate=2 * MB, max_repairs=16),
        )
        mon = sim.replication
        assert mon.repairs_cancelled >= 1
        assert mon.under_replicated_count() == 0
        for block in sim.namenode.blocks():
            assert len(live_replicas(sim, block)) >= 2

    def test_churn_converges_with_zero_permanent_loss(self):
        """The PR-3 churn shape at RF=2: every under-replicated block is
        repaired back to target and nothing is lost for good."""
        plan = FaultPlan(churn=NodeChurn(level=0.2, mean_downtime=20.0))
        sim, res = run(plan=plan, trace=True, tracker_expiry_interval=9.0,
                       durability=DurabilityConfig(),
                       check_invariants=True)
        mon = sim.replication
        assert res.collector.replicas_added >= 1
        assert mon.lost_blocks() == []
        assert mon.under_replicated_count() == 0
        assert res.collector.job_completion_times().size == 2
        assert not res.collector.failed_jobs


# ----------------------------------------------------------------------
# data loss and degradation
# ----------------------------------------------------------------------
class TestDataLoss:
    def _rf1_plan(self):
        # RF=1 and a permanent crash: every block on the dead node is gone
        return FaultPlan(crashes=(NodeCrash(at=10.0, node="r0n1"),))

    def test_rf1_crash_terminates_with_typed_accounting(self):
        sim, res = run(
            plan=self._rf1_plan(), trace=True, tracker_expiry_interval=9.0,
            replication=1,
            durability=DurabilityConfig(loss_grace=5.0),
        )
        mon = sim.replication
        losses = [e for e in res.trace.events if isinstance(e, BlockLost)]
        assert losses
        assert res.collector.blocks_lost == len(losses)
        assert mon.lost_blocks()
        assert mon.unrepairable(mon.lost_blocks()[0])
        input_lost = [
            e for e in res.trace.events
            if isinstance(e, AttemptFailed) and e.reason == INPUT_LOST
        ]
        assert input_lost
        # charged failures exhaust the budget: the affected jobs abort,
        # the rest of the batch still finishes — the run never hangs
        assert res.collector.failed_jobs
        fails = [e for e in res.trace.events if isinstance(e, JobFail)]
        assert fails

    def test_input_lost_failures_never_blacklist(self):
        _, res = run(
            plan=self._rf1_plan(), trace=True, tracker_expiry_interval=9.0,
            replication=1,
            durability=DurabilityConfig(loss_grace=5.0),
        )
        assert res.collector.blacklistings == 0

    def test_abort_policy_fails_job_at_grace_expiry(self):
        _, res = run(
            plan=self._rf1_plan(), trace=True, tracker_expiry_interval=9.0,
            replication=1,
            durability=DurabilityConfig(loss_grace=5.0, on_data_loss="abort"),
        )
        fails = [e for e in res.trace.events if isinstance(e, JobFail)]
        assert fails
        assert any(e.reason == INPUT_LOST for e in fails)

    def test_loss_grace_lets_a_revival_win(self):
        """Both policies survive a transient total outage that heals inside
        the grace window: the block leaves the lost set and no job fails."""
        plan = FaultPlan(crashes=(NodeCrash(at=10.0, node="r0n1",
                                            down_for=20.0),))
        sim, res = run(
            plan=plan, trace=True, tracker_expiry_interval=9.0,
            replication=1,
            durability=DurabilityConfig(loss_grace=60.0),
        )
        mon = sim.replication
        assert res.collector.blocks_lost >= 1   # the outage was detected
        assert mon.blocks_recovered >= 1        # ... and healed
        assert mon.lost_blocks() == []
        assert not res.collector.failed_jobs
        assert res.collector.job_completion_times().size == 2

    def test_rf1_run_is_deterministic(self):
        kw = dict(
            plan=self._rf1_plan(), trace=True, tracker_expiry_interval=9.0,
            replication=1, durability=DurabilityConfig(loss_grace=5.0),
        )
        _, r1 = run(**kw)
        _, r2 = run(**kw)
        assert jsonl_lines(r1.trace.events) == jsonl_lines(r2.trace.events)


# ----------------------------------------------------------------------
# decommissioning
# ----------------------------------------------------------------------
class TestDecommission:
    def test_drain_safe_release(self):
        plan = FaultPlan(
            decommissions=(NodeDecommission(at=15.0, node="r0n1"),)
        )
        sim, res = run(plan=plan, trace=True, durability=DurabilityConfig())
        mon = sim.replication
        starts = [
            e for e in res.trace.events if isinstance(e, DecommissionStart)
        ]
        dones = [
            e for e in res.trace.events if isinstance(e, DecommissionDone)
        ]
        assert [e.node for e in starts] == ["r0n1"]
        assert [e.node for e in dones] == ["r0n1"]
        assert dones[0].t >= starts[0].t
        assert res.collector.decommissions == 1
        assert sim.faults.decommissions_injected == 1
        # released: out of service, its copies dropped from the metadata
        assert not sim.cluster.node("r0n1").alive
        for block in sim.namenode.blocks():
            assert "r0n1" not in block.replicas
            assert len(live_replicas(sim, block)) >= 2
        # drain-safe: re-replicated *before* release, nothing was ever lost
        assert res.collector.blocks_lost == 0
        assert mon.lost_blocks() == []
        assert res.collector.job_completion_times().size == 2

    def test_decommission_vs_crash_loses_nothing_at_rf1(self):
        """The whole point of draining: at RF=1 a crash loses blocks but a
        decommission of the same node at the same time loses none."""
        crash = FaultPlan(crashes=(NodeCrash(at=15.0, node="r0n1"),))
        drain = FaultPlan(
            decommissions=(NodeDecommission(at=15.0, node="r0n1"),)
        )
        kw = dict(trace=True, tracker_expiry_interval=9.0, replication=1,
                  durability=DurabilityConfig(loss_grace=5.0))
        _, res_crash = run(plan=crash, **kw)
        _, res_drain = run(plan=drain, **kw)
        assert res_crash.collector.blocks_lost >= 1
        assert res_crash.collector.failed_jobs
        assert res_drain.collector.blocks_lost == 0
        assert not res_drain.collector.failed_jobs
        assert res_drain.collector.job_completion_times().size == 2

    def test_decommission_of_dead_node_is_noop(self):
        plan = FaultPlan(
            crashes=(NodeCrash(at=5.0, node="r0n1"),),
            decommissions=(NodeDecommission(at=10.0, node="r0n1"),),
        )
        sim, res = run(plan=plan, tracker_expiry_interval=9.0,
                       durability=DurabilityConfig())
        assert sim.faults.decommissions_injected == 0
        assert res.collector.decommissions == 0


# ----------------------------------------------------------------------
# trimming and hot blocks
# ----------------------------------------------------------------------
class TestTrimAndHotBlocks:
    def test_rejoin_over_replication_is_trimmed(self):
        plan = FaultPlan(crashes=(NodeCrash(at=5.0, node="r0n1",
                                            down_for=15.0),))
        sim, res = run(plan=plan, trace=True, tracker_expiry_interval=9.0,
                       durability=DurabilityConfig())
        mon = sim.replication
        removed = [
            e for e in res.trace.events if isinstance(e, ReplicaRemoved)
        ]
        assert removed
        assert res.collector.replicas_removed == len(removed)
        assert mon.replicas_trimmed >= 1
        # every block settles back at exactly its target
        for block in sim.namenode.blocks():
            assert len(live_replicas(sim, block)) == mon.target(block)

    def test_trim_can_be_disabled(self):
        plan = FaultPlan(crashes=(NodeCrash(at=5.0, node="r0n1",
                                            down_for=15.0),))
        sim, res = run(plan=plan, tracker_expiry_interval=9.0,
                       durability=DurabilityConfig(trim_excess=False))
        assert res.collector.replicas_removed == 0
        assert any(
            len(live_replicas(sim, b)) > 2 for b in sim.namenode.blocks()
        )

    def test_hot_blocks_gain_extra_replicas(self):
        sim, res = run(trace=True,
                       durability=DurabilityConfig(hot_threshold=1))
        mon = sim.replication
        assert res.collector.replicas_added >= 1
        assert any(
            len(b.replicas) == 3 for b in sim.namenode.blocks()
        )
        assert mon.under_replicated_count() == 0

    def test_cold_threshold_never_triggers(self):
        sim, _ = run(durability=DurabilityConfig(hot_threshold=10 ** 6))
        assert sim.replication.repairs_started == 0


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
class TestObservability:
    def test_metrics_export_gains_durability_series(self, tmp_path):
        plan = FaultPlan(crashes=(NodeCrash(at=10.0, node="r0n1"),))
        on = tmp_path / "on.jsonl"
        off = tmp_path / "off.jsonl"
        run(plan=plan, tracker_expiry_interval=9.0,
            durability=DurabilityConfig(),
            metrics=MetricsConfig(jsonl=str(on)))
        run(plan=plan, tracker_expiry_interval=9.0,
            metrics=MetricsConfig(jsonl=str(off)))
        on_text = on.read_text(encoding="utf-8")
        assert "under_replicated_blocks" in on_text
        assert "repair_bytes_total" in on_text
        assert "under_replicated_blocks" not in off.read_text(
            encoding="utf-8"
        )

    def test_summary_reports_durability_line(self):
        plan = FaultPlan(crashes=(NodeCrash(at=10.0, node="r0n1"),))
        _, res = run(plan=plan, tracker_expiry_interval=9.0,
                     durability=DurabilityConfig())
        assert "durability:" in res.summary()
        _, res_off = run(plan=plan, tracker_expiry_interval=9.0)
        assert "durability:" not in res_off.summary()

    def test_run_end_invariant_checks_convergence(self):
        plan = FaultPlan(crashes=(NodeCrash(at=10.0, node="r0n1"),))
        sim, _ = run(plan=plan, tracker_expiry_interval=9.0,
                     durability=DurabilityConfig(), check_invariants=True)
        assert sim.tracker.invariants is not None
        assert sim.tracker.invariants.checks_run > 0
