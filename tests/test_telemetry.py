"""Telemetry monitor tests: degraded measurement plane for PNA netcond.

Unit half: ``TelemetryConfig`` validation and ``TelemetryMonitor``
mechanics (sampling, per-path staleness, hop fallback, the all-stale
``None`` sentinel, the ``stale_telemetry`` trace event).  Acceptance
half — the two byte-identity bounds the design hinges on:

* ``period=inf`` (a monitor that never samples) degrades the
  network-condition PNA scheduler to **exactly** the hop-count variant's
  decisions, and
* ``period=0, noise=0, drop_prob=0`` (continuous exact measurement)
  reproduces the **oracle** network-condition scheduler bit for bit.

Both are proven on full traced runs, not spot checks.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cluster import ClusterSpec, TelemetryConfig, TelemetryMonitor
from repro.core import PNAConfig, ProbabilisticNetworkAwareScheduler
from repro.engine import EngineConfig, Simulation
from repro.sim import Simulator
from repro.units import MB
from repro.workload import JobSpec

INF = float("inf")


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------
class TestTelemetryConfig:
    def test_defaults_are_valid(self):
        cfg = TelemetryConfig()
        assert cfg.period == 5.0

    def test_boundary_values(self):
        TelemetryConfig(period=0.0)            # continuous
        TelemetryConfig(period=INF)            # never samples
        TelemetryConfig(staleness_budget=INF)  # trust forever
        TelemetryConfig(drop_prob=0.0)

    @pytest.mark.parametrize("kwargs", [
        {"period": -1.0},
        {"period": float("nan")},
        {"period": "fast"},
        {"staleness_budget": 0.0},
        {"staleness_budget": -5.0},
        {"noise": -0.1},
        {"noise": INF},
        {"drop_prob": 1.0},
        {"drop_prob": -0.2},
        {"drop_prob": True},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            TelemetryConfig(**kwargs)

    def test_engine_config_type_checks_telemetry(self):
        with pytest.raises(ValueError):
            EngineConfig(telemetry={"period": 5.0})
        EngineConfig(telemetry=TelemetryConfig())


# ----------------------------------------------------------------------
# monitor mechanics on a standalone cluster
# ----------------------------------------------------------------------
def make_monitor(config, seed=0):
    sim = Simulator()
    cluster = ClusterSpec(num_racks=2, nodes_per_rack=2).build(sim)
    rng = np.random.default_rng(seed)
    return sim, cluster, TelemetryMonitor(cluster, config, rng)


class TestMonitorMechanics:
    def test_unsampled_monitor_is_fully_blind(self):
        _, _, mon = make_monitor(TelemetryConfig(period=5.0))
        assert mon.path_costs(0.0) is None
        assert mon.samples_taken == 0

    def test_fresh_sample_matches_oracle_exactly(self):
        _, cluster, mon = make_monitor(TelemetryConfig(period=5.0))
        mon.sample()
        view = mon.path_costs(0.0).dense()
        np.testing.assert_array_equal(view, cluster.inverse_rate_matrix())

    def test_period_zero_reads_through(self):
        _, cluster, mon = make_monitor(TelemetryConfig(period=0.0))
        view = mon.path_costs(0.0).dense()
        assert mon.samples_taken == 1
        np.testing.assert_array_equal(view, cluster.inverse_rate_matrix())

    def test_everything_goes_stale_past_the_budget(self):
        _, _, mon = make_monitor(
            TelemetryConfig(period=5.0, staleness_budget=15.0)
        )
        mon.sample()  # at t=0
        assert mon.path_costs(15.0) is not None  # == budget: still fresh
        assert mon.path_costs(15.1) is None      # > budget: blind

    def test_partial_staleness_mixes_hops_and_measurements(self):
        _, cluster, mon = make_monitor(
            TelemetryConfig(period=5.0, staleness_budget=10.0, drop_prob=0.5)
        )
        sim = mon.sim
        mon.sample()            # t=0: ~half the paths measured
        sim.now = 5.0
        mon.sample()            # t=5: another coin flip per path
        stale = mon.stale_mask(12.0)  # t=0 measurements are now stale
        assert 0 < stale.sum() < stale.size - stale.shape[0]
        view = mon.path_costs(12.0).dense()
        hops = cluster.hop_matrix
        oracle = cluster.inverse_rate_matrix()
        np.testing.assert_array_equal(view[stale], hops[stale])
        fresh = ~stale
        np.fill_diagonal(fresh, False)
        np.testing.assert_array_equal(view[fresh], oracle[fresh])

    def test_noise_is_multiplicative_and_seeded(self):
        _, cluster, a = make_monitor(TelemetryConfig(noise=0.5), seed=42)
        _, _, b = make_monitor(TelemetryConfig(noise=0.5), seed=42)
        a.sample()
        b.sample()
        np.testing.assert_array_equal(a._inv, b._inv)
        oracle = cluster.inverse_rate_matrix()
        off = oracle > 0
        assert not np.allclose(a._inv[off], oracle[off])  # noisy
        assert (a._inv[off] > 0).all()                    # but sign-preserving
        assert (np.diag(a._inv) == 0).all()

    def test_dropped_probes_keep_aging(self):
        _, _, mon = make_monitor(
            TelemetryConfig(period=5.0, staleness_budget=7.0, drop_prob=0.4)
        )
        mon.sample()  # t=0
        mon.sim.now = 5.0
        mon.sample()  # t=5: dropped paths still carry the t=0 timestamp
        stale = mon.stale_mask(8.0)
        # stale ⇔ the t=5 probe was dropped (timestamp still 0 or -inf)
        undelivered = mon._measured_at < 5.0
        np.fill_diagonal(undelivered, False)
        np.testing.assert_array_equal(stale, undelivered)
        assert stale.sum() > 0

    def test_stale_telemetry_event_emitted_on_change(self):
        from repro.trace.recorder import TraceRecorder

        sim = Simulator()
        cluster = ClusterSpec(num_racks=2, nodes_per_rack=2).build(sim)
        recorder = TraceRecorder()
        mon = TelemetryMonitor(
            cluster, TelemetryConfig(period=5.0, staleness_budget=10.0),
            np.random.default_rng(0), recorder=recorder,
        )
        mon.sample()
        mon.path_costs(1.0)   # all fresh — no change from initial 0
        mon.path_costs(11.0)  # all stale — one event
        mon.path_costs(12.0)  # still all stale — no new event
        events = [e for e in recorder.events if e.type == "stale_telemetry"]
        assert len(events) == 1
        assert events[0].stale_paths == events[0].total_paths == 12


# ----------------------------------------------------------------------
# acceptance: full-run byte identity at the degradation extremes
# ----------------------------------------------------------------------
def traced_run(*, network_condition, telemetry=None, seed=11):
    from repro.trace import jsonl_lines

    sim = Simulation(
        cluster=ClusterSpec(num_racks=2, nodes_per_rack=4),
        scheduler=ProbabilisticNetworkAwareScheduler(
            PNAConfig(network_condition=network_condition)
        ),
        jobs=[
            JobSpec.make(f"{i:02d}", "wordcount", 6 * 64 * MB, 6, 2)
            for i in range(1, 4)
        ],
        seed=seed,
        config=EngineConfig(telemetry=telemetry, trace=True,
                            check_invariants=True),
    )
    result = sim.run()
    lines = jsonl_lines(result.trace.events)
    # run_start embeds the config (differs by construction) and
    # stale_telemetry is new-information-only: exclude both, keep every
    # decision-bearing line
    return [
        l for l in lines
        if '"type":"run_start"' not in l
        and '"type":"stale_telemetry"' not in l
    ]


class TestDegradationExtremes:
    def test_blind_monitor_reproduces_hop_count_scheduler(self):
        hop = traced_run(network_condition=False)
        blind = traced_run(
            network_condition=True,
            telemetry=TelemetryConfig(period=INF),
        )
        assert blind == hop

    def test_continuous_exact_monitor_reproduces_oracle(self):
        oracle = traced_run(network_condition=True)
        fresh = traced_run(
            network_condition=True,
            telemetry=TelemetryConfig(period=0.0, noise=0.0, drop_prob=0.0),
        )
        assert fresh == oracle

    def test_degraded_run_is_seed_reproducible(self):
        cfg = TelemetryConfig(
            period=5.0, staleness_budget=8.0, noise=0.3, drop_prob=0.3
        )
        a = traced_run(network_condition=True, telemetry=cfg)
        b = traced_run(network_condition=True, telemetry=cfg)
        assert a == b

    def test_degraded_run_differs_from_oracle(self):
        # sanity that the knobs bite: heavy noise must eventually change
        # at least one decision on this workload
        cfg = TelemetryConfig(
            period=5.0, staleness_budget=8.0, noise=1.0, drop_prob=0.4
        )
        degraded = traced_run(network_condition=True, telemetry=cfg)
        oracle = traced_run(network_condition=True)
        assert degraded != oracle
