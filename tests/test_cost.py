"""Unit tests for the transmission-cost model (Formulae 1-3).

Includes a full check of the paper's Figure 2 worked example.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterSpec, paper_example_topology
from repro.cluster.pathcost import DensePathCosts
from repro.core import (
    JobCostModel,
    OracleEstimator,
    ProgressEstimator,
    map_cost_matrix,
    reduce_cost_matrix,
)
from repro.engine import Simulation
from repro.schedulers import RandomScheduler
from repro.sim import Simulator
from repro.units import GB, MB
from repro.workload import JobSpec


class TestMapCostMatrix:
    def test_local_replica_is_free(self):
        d = np.array([[0.0, 2.0], [2.0, 0.0]])
        costs = map_cost_matrix(d, np.array([100.0]), [np.array([0])])
        assert costs[0, 0] == 0.0
        assert costs[1, 0] == 200.0

    def test_min_over_replicas(self):
        # node 2 is distance 5 from replica 0 but 1 from replica 1
        d = np.array([
            [0.0, 9.0, 5.0],
            [9.0, 0.0, 1.0],
            [5.0, 1.0, 0.0],
        ])
        costs = map_cost_matrix(d, np.array([10.0]), [np.array([0, 1])])
        assert costs[2, 0] == 10.0  # min(5, 1) * 10

    def test_scales_with_block_size(self):
        d = np.array([[0.0, 2.0], [2.0, 0.0]])
        costs = map_cost_matrix(d, np.array([10.0, 30.0]), [np.array([0]), np.array([0])])
        assert costs[1, 1] == 3 * costs[1, 0]


class TestReduceCostMatrix:
    def test_sums_over_maps(self):
        d = np.array([
            [0.0, 1.0, 2.0],
            [1.0, 0.0, 1.0],
            [2.0, 1.0, 0.0],
        ])
        map_nodes = np.array([0, 2])
        I = np.array([[10.0], [20.0]])
        costs = reduce_cost_matrix(d, map_nodes, I)
        # node 1: 10 * d[0,1] + 20 * d[2,1] = 10 + 20
        assert costs[1, 0] == 30.0
        # node 0: 10 * 0 + 20 * 2
        assert costs[0, 0] == 40.0

    def test_no_placed_maps_is_zero(self):
        d = np.eye(3)
        costs = reduce_cost_matrix(d, np.array([], dtype=int), np.zeros((0, 4)))
        assert costs.shape == (3, 4)
        assert np.all(costs == 0)


class TestPaperWorkedExample:
    """Figure 2: M1 on D3 (block on D1), M2 on D2 (block on D2);
    R1 on D1, R2 on D3; both blocks 128 MB; the given H and I matrices."""

    H = np.array([
        [0, 4, 2, 8],
        [4, 0, 10, 2],
        [2, 10, 0, 6],
        [8, 2, 6, 0],
    ], dtype=float)
    I = np.array([
        [10.0, 5.0],   # M1 -> R1, R2 (MB)
        [20.0, 10.0],  # M2 -> R1, R2
    ])

    def test_map_costs(self):
        B = np.array([128.0, 128.0])  # MB
        replicas = [np.array([0]), np.array([1])]  # M1's block on D1, M2's on D2
        costs = map_cost_matrix(self.H, B, replicas)
        # paper: cost of M1 on D3 = 128 * 2 = 256; M2 on D2 = 128 * 0 = 0
        assert costs[2, 0] == 256.0
        assert costs[1, 1] == 0.0

    def test_mapper_reducer_distance_matrix(self):
        # distances from (M1 on D3, M2 on D2) to (R1 on D1, R2 on D3)
        placement = np.array([2, 1])  # M1 -> D3, M2 -> D2
        d_m1 = [self.H[2, 0], self.H[2, 2]]
        d_m2 = [self.H[1, 0], self.H[1, 2]]
        assert d_m1 == [2, 0]
        assert d_m2 == [4, 10]

    def test_reduce_costs_match_link_costs(self):
        placement = np.array([2, 1])
        costs = reduce_cost_matrix(self.H, placement, self.I)
        # R1 on D1: 10 MB * 2 hops + 20 MB * 4 hops = 100
        assert costs[0, 0] == 100.0
        # R2 on D3: 5 MB * 0 + 10 MB * 10 = 100
        assert costs[2, 1] == 100.0
        # total for the assignment in Figure 2(b)
        assert costs[0, 0] + costs[2, 1] == 200.0


def build_job_sim(num_maps=6, num_reduces=3, nodes=6):
    spec = JobSpec.make(
        "01", "terasort", num_maps * 64 * MB, num_maps, num_reduces
    )
    sim = Simulation(
        cluster=ClusterSpec(num_racks=2, nodes_per_rack=nodes // 2),
        scheduler=RandomScheduler(),
        jobs=[spec],
        seed=11,
    )
    return sim


class TestJobCostModel:
    def test_map_costs_zero_on_replica_holders(self):
        sim = build_job_sim()
        sim.tracker.start()
        sim.sim.run(until=0.01)
        job = sim.tracker.active_jobs[0]
        model = JobCostModel(job)
        all_nodes = np.arange(sim.cluster.num_nodes)
        all_tasks = np.arange(job.num_maps)
        costs = model.map_costs(all_nodes, all_tasks)
        for j, block in enumerate(job.file.blocks):
            for rep in block.replicas:
                assert costs[sim.cluster.node(rep).index, j] == 0.0

    def test_map_costs_respect_min_replica_distance(self):
        sim = build_job_sim()
        sim.tracker.start()
        sim.sim.run(until=0.01)
        job = sim.tracker.active_jobs[0]
        model = JobCostModel(job)
        nn = sim.tracker.namenode
        costs = model.map_costs(
            np.arange(sim.cluster.num_nodes), np.arange(job.num_maps)
        )
        for j, block in enumerate(job.file.blocks):
            for node in sim.cluster.nodes:
                _, h = nn.closest_replica(block, node.name)
                assert costs[node.index, j] == pytest.approx(block.size * h)

    def test_reduce_costs_match_bruteforce(self):
        """Incremental Sc cache equals the direct Formula (2) computation."""
        sim = build_job_sim(num_maps=8, num_reduces=4)
        job = None
        sched_model = {}

        sim.tracker.start()
        # attach model at submission time via listener registration
        job = sim.tracker.active_jobs[0] if sim.tracker.active_jobs else None
        if job is None:
            sim.sim.run(until=0.001)
            job = sim.tracker.active_jobs[0]
        model = JobCostModel.attach(job)
        sim.sim.run(until=30.0)  # some maps done, some running

        now = sim.sim.now
        nodes = np.arange(sim.cluster.num_nodes)
        reduces = np.arange(job.num_reduces)
        est = ProgressEstimator()
        fast = model.reduce_costs(nodes, reduces, now, estimator=est)

        # brute force over started maps
        hops = sim.cluster.hop_costs.dense()
        expected = np.zeros((len(nodes), len(reduces)))
        for m in job.maps:
            if m.node is None:
                continue
            row = est.estimate(m, now)
            for i in nodes:
                expected[i] += hops[m.node.index, i] * row
        assert np.allclose(fast, expected)

    def test_custom_distance_matrix_recomputes(self):
        sim = build_job_sim()
        sim.tracker.start()
        sim.sim.run(until=0.001)
        job = sim.tracker.active_jobs[0]
        model = JobCostModel.attach(job)
        sim.sim.run(until=30.0)
        nodes = np.arange(sim.cluster.num_nodes)
        reduces = np.arange(job.num_reduces)
        # doubling the distance matrix doubles every cost
        base = model.reduce_costs(nodes, reduces, sim.sim.now)
        doubled = model.reduce_costs(
            nodes, reduces, sim.sim.now,
            distance=DensePathCosts(2.0 * sim.cluster.hop_costs.dense()),
        )
        assert np.allclose(doubled, 2 * base)

    def test_realised_cost_requires_all_placed(self):
        sim = build_job_sim(num_maps=30)
        sim.tracker.start()
        sim.sim.run(until=0.001)
        job = sim.tracker.active_jobs[0]
        model = JobCostModel(job)
        with pytest.raises(RuntimeError):
            model.realised_reduce_costs(np.arange(2), np.arange(2))

    def test_oracle_estimate_matches_realised_when_done(self):
        sim = build_job_sim(num_maps=4, num_reduces=2)
        sim.tracker.start()
        sim.sim.run(until=0.001)
        job = sim.tracker.active_jobs[0]
        model = JobCostModel.attach(job)
        sim.sim.run()  # to completion
        now = sim.sim.now
        nodes = np.arange(sim.cluster.num_nodes)
        reduces = np.arange(job.num_reduces)
        est = model.reduce_costs(nodes, reduces, now, estimator=OracleEstimator())
        real = model.realised_reduce_costs(nodes, reduces)
        assert np.allclose(est, real)
