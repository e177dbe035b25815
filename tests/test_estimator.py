"""Unit tests for intermediate-size estimation (Section II-B-2).

These run against a live engine so the estimators see real heartbeat-style
progress (``d_read``, ``A_jf``) rather than mocks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.core import CurrentSizeEstimator, OracleEstimator, ProgressEstimator
from repro.engine import Simulation
from repro.schedulers import RandomScheduler
from repro.units import MB
from repro.workload import JobSpec
from repro.workload.apps import ApplicationModel


def make_sim(gamma=1.0, num_maps=6, num_reduces=4):
    app = ApplicationModel(
        name="est-app",
        map_rate=10 * MB,
        reduce_rate=50 * MB,
        map_output_ratio=1.0,
        output_gamma=gamma,
        task_overhead=0.0,
    )
    spec = JobSpec(
        job_id="01",
        app=app,
        input_size=num_maps * 100 * MB,
        num_maps=num_maps,
        num_reduces=num_reduces,
    )
    return Simulation(
        cluster=ClusterSpec(num_racks=2, nodes_per_rack=3),
        scheduler=RandomScheduler(),
        jobs=[spec],
        seed=3,
    )


def first_running_map(sim):
    job = sim.tracker.active_jobs[0]
    running = job.running_maps()
    assert running, "no map is running yet"
    return job, running[0]


class TestProgressEstimator:
    """The paper's Formula (3): A_jf * B_j / d_read_j."""

    def test_exact_for_linear_output(self):
        sim = make_sim(gamma=1.0)
        sim.tracker.start()
        sim.sim.run(until=5.0)  # partway through the first map wave
        job, task = first_running_map(sim)
        now = sim.sim.now
        assert 0 < task.read_fraction(now) < 1
        est = ProgressEstimator().estimate(task, now)
        # linear accrual makes the extrapolation exact: I_hat == I
        assert np.allclose(est, job.I[task.index])

    def test_corrects_current_size_bias(self):
        sim = make_sim(gamma=1.0)
        sim.tracker.start()
        sim.sim.run(until=5.0)
        job, task = first_running_map(sim)
        now = sim.sim.now
        frac = task.read_fraction(now)
        progress = ProgressEstimator().estimate(task, now)
        current = CurrentSizeEstimator().estimate(task, now)
        # current-size underestimates by exactly the progress fraction
        assert np.allclose(current, progress * frac)

    def test_biased_when_output_is_nonlinear(self):
        # gamma != 1 models apps whose output accrues non-linearly with
        # input read; the extrapolation then misses by frac**(gamma-1)
        sim = make_sim(gamma=2.0)
        sim.tracker.start()
        sim.sim.run(until=5.0)
        job, task = first_running_map(sim)
        now = sim.sim.now
        frac = task.read_fraction(now)
        est = ProgressEstimator().estimate(task, now)
        assert np.allclose(est, job.I[task.index] * frac)

    def test_zero_progress_yields_zeros(self):
        """A map launched at this very instant has read no input yet."""
        sim = make_sim()
        sim.tracker.start()
        sim.sim.run(until=1e-9)  # submission only (heartbeats staggered)
        job = sim.tracker.active_jobs[0]
        task = job.pending_maps()[0]
        task.launch(sim.cluster.nodes[0])
        now = sim.sim.now
        assert task.node is not None and task.d_read(now) == 0.0
        est = ProgressEstimator().estimate(task, now)
        assert est.shape == (job.num_reduces,) and np.all(est == 0)
        assert np.all(ProgressEstimator().estimate_many([task], now) == 0)

    def test_completed_map_returns_exact_row(self):
        sim = make_sim()
        sim.tracker.start()
        sim.sim.run(until=60.0)
        job = sim.tracker.active_jobs[0] if sim.tracker.active_jobs else sim.tracker.finished_jobs[0]
        done = [m for m in job.maps if m.done]
        assert done
        est = ProgressEstimator().estimate(done[0], sim.sim.now)
        assert np.array_equal(est, job.I[done[0].index])


class TestCurrentSizeEstimator:
    def test_tracks_current_output(self):
        sim = make_sim()
        sim.tracker.start()
        sim.sim.run(until=5.0)
        job, task = first_running_map(sim)
        now = sim.sim.now
        est = CurrentSizeEstimator().estimate(task, now)
        assert np.allclose(est, task.current_output(now))

    def test_grows_monotonically(self):
        sim = make_sim()
        sim.tracker.start()
        sim.sim.run(until=4.0)
        job, task = first_running_map(sim)
        e1 = CurrentSizeEstimator().estimate(task, sim.sim.now).sum()
        sim.sim.run(until=6.0)
        if not task.done:
            e2 = CurrentSizeEstimator().estimate(task, sim.sim.now).sum()
            assert e2 >= e1


class TestOracleEstimator:
    def test_always_exact(self):
        sim = make_sim(gamma=2.0)  # even under nonlinear accrual
        sim.tracker.start()
        sim.sim.run(until=5.0)
        job, task = first_running_map(sim)
        est = OracleEstimator().estimate(task, sim.sim.now)
        assert np.array_equal(est, job.I[task.index])


class TestEstimateMany:
    """The vectorised batch API must be bit-identical to the per-task loop."""

    ESTIMATORS = [ProgressEstimator, CurrentSizeEstimator, OracleEstimator]

    @pytest.mark.parametrize("est_cls", ESTIMATORS)
    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    def test_matches_per_task_loop(self, est_cls, gamma):
        sim = make_sim(gamma=gamma)
        sim.tracker.start()
        sim.sim.run(until=30.0)  # mixed population: done + in-flight maps
        job = (sim.tracker.active_jobs or sim.tracker.finished_jobs)[0]
        tasks = [m for m in job.maps if m.done or m.node is not None]
        assert tasks
        est = est_cls()
        now = sim.sim.now
        many = est.estimate_many(tasks, now)
        loop = np.stack([est.estimate(t, now) for t in tasks])
        # exact equality: rows must be bit-identical, not merely close
        assert np.array_equal(many, loop)

    @pytest.mark.parametrize("est_cls", ESTIMATORS)
    def test_zero_progress_rows_match(self, est_cls):
        sim = make_sim()
        sim.tracker.start()
        sim.sim.run(until=0.0)  # placed at t=0, but no bytes read yet
        job = sim.tracker.active_jobs[0]
        now = sim.sim.now
        tasks = [
            m for m in job.maps if m.node is not None and m.d_read(now) == 0.0
        ]
        assert tasks, "no zero-progress placed maps at t=0"
        est = est_cls()
        many = est.estimate_many(tasks, now)
        loop = np.stack([est.estimate(t, now) for t in tasks])
        assert np.array_equal(many, loop)

    @pytest.mark.parametrize("est_cls", ESTIMATORS)
    def test_completed_maps_return_exact_rows(self, est_cls):
        sim = make_sim()
        sim.tracker.start()
        sim.sim.run(until=60.0)
        job = (sim.tracker.active_jobs or sim.tracker.finished_jobs)[0]
        done = [m for m in job.maps if m.done]
        assert done
        many = est_cls().estimate_many(done, sim.sim.now)
        assert np.array_equal(many, job.I[[m.index for m in done]])

    @pytest.mark.parametrize("est_cls", ESTIMATORS)
    def test_empty_batch_rejected(self, est_cls):
        with pytest.raises(ValueError):
            est_cls().estimate_many([], 0.0)


class TestPaperExample:
    """The 10 MB / 5 MB scenario of Section II-B-2.

    Map M2 will ultimately produce 10 MB for R1 but is 10 % done (so shows
    ~1 MB); M1 has produced 5 MB at 90 % done.  Current-size scoring ranks
    M1's node higher; progress extrapolation correctly ranks M2's node.
    """

    def test_extrapolation_reverses_ranking(self):
        B = 100.0  # input bytes per map
        d_read_m1, A_m1 = 90.0, 5.0
        d_read_m2, A_m2 = 10.0, 1.0
        est_m1 = A_m1 * B / d_read_m1   # ~5.6
        est_m2 = A_m2 * B / d_read_m2   # 10.0
        assert A_m1 > A_m2              # current size prefers M1
        assert est_m2 > est_m1          # extrapolation prefers M2
        assert est_m2 == pytest.approx(10.0)
