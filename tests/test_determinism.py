"""Determinism regression: same seed ⇒ byte-identical run metrics.

Every figure in the paper compares schedulers under a common seed, which is
only sound if a run is a pure function of ``(scenario, scheduler, seed)``.
Two independently constructed simulations with equal seeds must therefore
agree on every collected metric, for each scheduler family — including the
job-level Capacity scheduler combination.  The static side of this
guarantee is enforced by ``repro check`` (global-rng / rng-ambient /
rng-constant-seed / rng-unprovenanced); this is the dynamic side.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterSpec, Simulation, table2_batch
from repro.core import ProbabilisticNetworkAwareScheduler
from repro.schedulers import (
    CapacityJobScheduler,
    CouplingScheduler,
    FairScheduler,
)

SCHEDULERS = [
    pytest.param(ProbabilisticNetworkAwareScheduler, None, id="pna"),
    pytest.param(FairScheduler, None, id="fair"),
    pytest.param(CouplingScheduler, None, id="coupling"),
    pytest.param(FairScheduler, CapacityJobScheduler, id="fair+capacity"),
]


def run_once(task_factory, job_factory, seed):
    sim = Simulation(
        cluster=ClusterSpec(num_racks=2, nodes_per_rack=3),
        scheduler=task_factory(),
        jobs=table2_batch("wordcount", scale=0.02)[:4],
        job_scheduler=job_factory() if job_factory is not None else None,
        seed=seed,
    )
    return sim.run()


@pytest.mark.parametrize("task_factory,job_factory", SCHEDULERS)
def test_same_seed_identical_metrics(task_factory, job_factory):
    r1 = run_once(task_factory, job_factory, seed=123)
    r2 = run_once(task_factory, job_factory, seed=123)

    assert np.array_equal(r1.job_completion_times, r2.job_completion_times)
    assert r1.sim_time == r2.sim_time
    assert r1.bytes_over_fabric == r2.bytes_over_fabric
    assert r1.bytes_local == r2.bytes_local
    assert r1.flows == r2.flows
    assert r1.locality_shares() == r2.locality_shares()
    assert r1.locality_shares("map") == r2.locality_shares("map")
    assert r1.summary() == r2.summary()


def test_different_seeds_change_the_run():
    """Sanity check that the seed actually reaches the stochastic parts."""
    r1 = run_once(ProbabilisticNetworkAwareScheduler, None, seed=123)
    r2 = run_once(ProbabilisticNetworkAwareScheduler, None, seed=456)
    assert (
        not np.array_equal(r1.job_completion_times, r2.job_completion_times)
        or r1.bytes_over_fabric != r2.bytes_over_fabric
        or r1.sim_time != r2.sim_time
    )
