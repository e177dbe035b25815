"""Tests for the background cross-traffic generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import BackgroundSpec, BackgroundTraffic, ClusterSpec
from repro.sim import Simulator
from repro.units import MB


def make(spec, seed=0, racks=2, per_rack=3):
    sim = Simulator()
    cluster = ClusterSpec(num_racks=racks, nodes_per_rack=per_rack).build(sim)
    bg = BackgroundTraffic(cluster.network, spec, np.random.default_rng(seed))
    return sim, cluster, bg


class TestBackgroundSpec:
    def test_defaults_valid(self):
        BackgroundSpec()

    def test_bad_intensity(self):
        with pytest.raises(ValueError):
            BackgroundSpec(intensity=1.0)
        with pytest.raises(ValueError):
            BackgroundSpec(intensity=-0.1)

    def test_bad_size(self):
        with pytest.raises(ValueError):
            BackgroundSpec(mean_size=0.0)

    def test_bad_hotspot(self):
        with pytest.raises(ValueError):
            BackgroundSpec(hotspot_alpha=-1.0)


class TestBackgroundTraffic:
    def test_generates_flows(self):
        sim, cluster, bg = make(BackgroundSpec(intensity=0.3))
        bg.start()
        sim.run(until=60.0)
        assert bg.flows_issued > 0
        assert bg.bytes_issued > 0

    def test_offered_load_tracks_intensity(self):
        """Mean issued rate lands near the configured fraction of edge
        capacity (Poisson noise allowed)."""
        spec = BackgroundSpec(intensity=0.25, mean_size=64 * MB)
        sim, cluster, bg = make(spec, seed=1)
        bg.start()
        horizon = 600.0
        sim.run(until=horizon)
        total_edge = sum(
            cluster.topology.link_capacity(
                cluster.topology.route(h, [x for x in cluster.topology.hosts if x != h][0])[0]
            )
            for h in cluster.topology.hosts
        )
        offered = bg.bytes_issued / horizon
        target = spec.intensity * total_edge / 2.0
        assert offered == pytest.approx(target, rel=0.25)

    def test_stop_halts_arrivals(self):
        sim, cluster, bg = make(BackgroundSpec(intensity=0.3))
        bg.start()
        sim.run(until=30.0)
        n = bg.flows_issued
        bg.stop()
        sim.run(until=60.0)
        assert bg.flows_issued == n

    def test_should_continue_predicate(self):
        done = {"flag": False}
        sim = Simulator()
        cluster = ClusterSpec(num_racks=2, nodes_per_rack=3).build(sim)
        bg = BackgroundTraffic(
            cluster.network,
            BackgroundSpec(intensity=0.3),
            np.random.default_rng(0),
            should_continue=lambda: not done["flag"],
        )
        bg.start()
        sim.run(until=20.0)
        n = bg.flows_issued
        assert n > 0
        done["flag"] = True
        sim.run(until=60.0)
        # at most one further arrival event fires before noticing the flag
        assert bg.flows_issued <= n + 1

    def test_hotspot_concentrates_endpoints(self):
        spec = BackgroundSpec(intensity=0.3, hotspot_alpha=2.0)
        sim, cluster, bg = make(spec, seed=3, racks=2, per_rack=5)
        # inspect the weight vector directly: heavily skewed to node 0
        assert bg.weights[0] > 5 * bg.weights[-1]

    def test_uniform_weights_without_hotspot(self):
        sim, cluster, bg = make(BackgroundSpec(intensity=0.2, hotspot_alpha=0.0))
        assert np.allclose(bg.weights, bg.weights[0])

    def test_start_idempotent(self):
        sim, cluster, bg = make(BackgroundSpec(intensity=0.2))
        bg.start()
        bg.start()
        sim.run(until=10.0)
        assert bg.flows_issued >= 0

    def test_deterministic_given_seed(self):
        def trace(seed):
            sim, cluster, bg = make(BackgroundSpec(intensity=0.3), seed=seed)
            bg.start()
            sim.run(until=30.0)
            return (bg.flows_issued, bg.bytes_issued)

        assert trace(5) == trace(5)
        assert trace(5) != trace(6)


class TestBackgroundInSimulation:
    def test_simulation_with_background_completes(self):
        from repro import ClusterSpec, Simulation
        from repro.schedulers import RandomScheduler
        from repro.workload import JobSpec

        sim = Simulation(
            cluster=ClusterSpec(num_racks=2, nodes_per_rack=3),
            scheduler=RandomScheduler(),
            jobs=[JobSpec.make("01", "grep", 8 * 64 * MB, 8, 3)],
            background=BackgroundSpec(intensity=0.3),
            seed=4,
        )
        result = sim.run()
        assert result.job_completion_times.size == 1
        assert sim.background.flows_issued > 0

    def test_background_slows_jobs_down(self):
        from repro import ClusterSpec, Simulation
        from repro.schedulers import RandomScheduler
        from repro.workload import JobSpec

        def jct(bg):
            sim = Simulation(
                cluster=ClusterSpec(num_racks=2, nodes_per_rack=3),
                scheduler=RandomScheduler(),
                jobs=[JobSpec.make("01", "terasort", 16 * 64 * MB, 16, 6)],
                background=bg,
                seed=4,
            )
            return sim.run().mean_jct

        assert jct(BackgroundSpec(intensity=0.6)) > jct(None)


class TestHotspotSatisfiable:
    def test_underflowed_hotspot_rejected_up_front(self):
        """At alpha = 2000 every weight but the first underflows to 0, so
        no two distinct endpoints can be drawn."""
        with pytest.raises(
            ValueError, match=r"hotspot_alpha=2000.* 1 non-zero .* 6 host"
        ):
            make(BackgroundSpec(intensity=0.3, hotspot_alpha=2000))

    def test_single_host_rejected(self):
        with pytest.raises(ValueError, match="hotspot_alpha=0.0 leaves 1 non-zero"):
            make(BackgroundSpec(intensity=0.3), racks=1, per_rack=1)

    def test_two_nonzero_weights_accepted(self):
        """alpha = 1000 keeps 2^-1000 > 0: two endpoints, always the same
        pair of hosts."""
        sim, cluster, bg = make(BackgroundSpec(intensity=0.3, hotspot_alpha=1000))
        assert np.count_nonzero(bg.weights) == 2
        assert {bg._endpoints() for _ in range(50)} <= {(0, 1), (1, 0)}


class _CountingRng:
    """Forwards the draws ``BackgroundTraffic`` makes and counts the
    one-uniform redraws that follow a collision."""

    def __init__(self, rng):
        self.rng = rng
        self.redraws = 0

    def random(self, size):
        self.redraws += size == 1
        return self.rng.random(size)

    def exponential(self, scale):
        return self.rng.exponential(scale)


class TestSamplerMatchesChoice:
    """The CDF sampler against ``Generator.choice``, the reference it
    replaces: the same two endpoints from the same stream, with a flow
    size drawn between arrivals as ``_arrival`` does."""

    DRAWS = 20_000

    @pytest.mark.parametrize("n", [2, 16, 128, 400])
    @pytest.mark.parametrize("alpha", [0.0, 0.8, 1.0, 1.2])
    def test_same_draws_as_choice(self, alpha, n):
        spec = BackgroundSpec(intensity=0.3, hotspot_alpha=alpha)
        _, _, bg = make(spec, seed=n, racks=1, per_rack=n)
        rng = bg.rng = _CountingRng(bg.rng)
        reference = np.random.default_rng(n)
        got, want = [], []
        for _ in range(self.DRAWS):
            got.append((*bg._endpoints(), rng.exponential(spec.mean_size)))
            src, dst = reference.choice(n, 2, replace=False, p=bg.weights)
            want.append(
                (int(src), int(dst), reference.exponential(spec.mean_size))
            )
        assert got == want
        assert all(src != dst for src, dst, _ in got)
        if n == 2:
            # over half the first draws collide: the redraw path is covered
            assert rng.redraws > self.DRAWS // 4
