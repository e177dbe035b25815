"""White-box tests of the PNA scheduler's Algorithm 1 / 2 mechanics.

These drive ``select_map`` / ``select_reduce`` directly against a live
engine state, with a stubbed RNG so the Bernoulli draw (Lines 13-16) is
deterministic, and verify the selection against hand-computed Formulae.
"""

from __future__ import annotations

import numpy as np

from repro.cluster import ClusterSpec
from repro.core import (
    ExponentialModel,
    PNAConfig,
    ProbabilisticNetworkAwareScheduler,
)
from repro.engine import Simulation
from repro.schedulers import RandomScheduler
from repro.units import MB
from repro.workload import JobSpec


class FixedRng:
    """An rng whose random() returns a fixed sequence (integers unused)."""

    def __init__(self, values):
        self.values = list(values)
        self.calls = 0

    def random(self):
        self.calls += 1
        if self.values:
            return self.values.pop(0)
        return 0.0

    def integers(self, *a, **k):  # pragma: no cover - not used by PNA
        return 0


def make_state(num_maps=6, num_reduces=3, seed=13, noise_sigma=0.0):
    """A live simulation paused right after submission (nothing placed)."""
    spec = JobSpec.make("01", "terasort", num_maps * 64 * MB,
                        num_maps, num_reduces, noise_sigma=noise_sigma)
    sched = ProbabilisticNetworkAwareScheduler()
    sim = Simulation(
        cluster=ClusterSpec(num_racks=2, nodes_per_rack=3),
        scheduler=sched,
        jobs=[spec],
        seed=seed,
    )
    sim.tracker.start()
    sim.sim.run(until=1e-9)  # submission event only (heartbeats staggered)
    job = sim.tracker.active_jobs[0]
    return sim, sched, job


class TestAlgorithm1:
    def test_picks_highest_probability_candidate(self):
        sim, sched, job = make_state()
        ctx = sim.tracker.ctx
        ctx.rng = FixedRng([0.0])  # always accept the draw
        node = sim.cluster.nodes[0]
        task = sched.select_map(node, job, ctx)
        assert task is not None

        # recompute by hand: the chosen task maximises P (Formula 4)
        model = sched.cost_model(job)
        free = np.array([n.index for n in ctx.free_map_nodes()])
        pend = np.array([m.index for m in job.pending_maps()])
        costs = model.map_costs(free, pend)
        row = int(np.nonzero(free == node.index)[0][0])
        probs = ExponentialModel().probability(costs.mean(axis=0), costs[row])
        assert task.index == pend[int(np.argmax(probs))]

    def test_local_block_gives_p_one(self):
        sim, sched, job = make_state()
        ctx = sim.tracker.ctx
        ctx.rng = FixedRng([0.999999])  # accept only if P == 1
        # find a node holding some block
        block = job.maps[0].block
        node = sim.cluster.node(block.replicas[0])
        task = sched.select_map(node, job, ctx)
        assert task is not None
        # the chosen task must be local to this node (cost 0 -> P = 1)
        assert node.name in task.block.replicas

    def test_bernoulli_rejection(self):
        """If the draw exceeds P, the offer is declined (Lines 13-16)."""
        sim, sched, job = make_state()
        ctx = sim.tracker.ctx
        node = sim.cluster.nodes[0]
        # P for some candidate is 1 (replica present); a draw must be < P.
        ctx.rng = FixedRng([1.0])  # random() == 1.0 >= any P -> reject
        assert sched.select_map(node, job, ctx) is None

    def test_p_min_gate_declines_expensive_offers(self):
        sim, sched, job = make_state()
        ctx = sim.tracker.ctx
        ctx.rng = FixedRng([0.0])
        node = sim.cluster.nodes[0]
        model = sched.cost_model(job)
        free = np.array([n.index for n in ctx.free_map_nodes()])
        pend = np.array([m.index for m in job.pending_maps()])
        costs = model.map_costs(free, pend)
        row = int(np.nonzero(free == node.index)[0][0])
        probs = ExponentialModel().probability(costs.mean(axis=0), costs[row])
        p_best = probs.max()
        # a threshold just above the best probability forces a decline
        strict = ProbabilisticNetworkAwareScheduler(
            PNAConfig(p_min=min(float(p_best) + 1e-6, 0.999))
        )
        strict._models = sched._models  # share the attached cost model
        if p_best < 0.999:
            assert strict.select_map(node, job, ctx) is None

    def test_no_pending_maps_returns_none(self):
        sim, sched, job = make_state()
        ctx = sim.tracker.ctx
        for m in job.pending_maps():
            m.launch(sim.cluster.nodes[m.index % 6])
        assert sched.select_map(sim.cluster.nodes[0], job, ctx) is None


class TestAlgorithm2:
    def test_colocation_line1(self):
        sim, sched, job = make_state(num_maps=4, num_reduces=4)
        ctx = sim.tracker.ctx
        ctx.rng = FixedRng([0.0, 0.0, 0.0])
        node = sim.cluster.nodes[0]
        # launch one reducer there by hand
        r0 = job.reduces[0]
        r0.launch(node)
        assert job.has_running_reduce_on(node.name)
        assert sched.select_reduce(node, job, ctx) is None

    def test_zero_cost_everywhere_accepts(self):
        """Before any map starts, all reduce costs are 0 -> P = 1."""
        sim, sched, job = make_state(num_maps=4, num_reduces=2)
        ctx = sim.tracker.ctx
        ctx.rng = FixedRng([0.5])
        node = sim.cluster.nodes[0]
        task = sched.select_reduce(node, job, ctx)
        assert task is not None

    def test_reduce_cost_drives_selection(self):
        """After maps complete, the reduce with max P here is returned.

        Noisy intermediate data gives each map its own partition split, so
        the reduces' probabilities on one node differ."""
        sim, sched, job = make_state(num_maps=4, num_reduces=3, noise_sigma=0.5)
        # decline every reduce offer until the last map has finished
        sched.select_reduce = lambda node, job, ctx: None
        sim.sim.run(until=120.0)
        del sched.select_reduce
        assert job.all_maps_done
        pending = job.pending_reduces()
        assert len(pending) == 3
        ctx = sim.tracker.ctx
        ctx.rng = FixedRng([0.0])
        node = sim.cluster.nodes[0]
        assert node.free_reduce_slots and not job.has_running_reduce_on(node.name)
        task = sched.select_reduce(node, job, ctx)
        assert task is not None

        model = sched.cost_model(job)
        free = np.array([n.index for n in ctx.free_reduce_nodes()])
        idx = np.array([r.index for r in pending])
        costs = model.reduce_costs(free, idx, ctx.now, estimator=sched.estimator)
        row = int(np.nonzero(free == node.index)[0][0])
        probs = ExponentialModel().probability(costs.mean(axis=0), costs[row])
        assert np.ptp(probs) > 1e-3
        assert task.index == idx[int(np.argmax(probs))]


class TestNetworkConditionVariant:
    def test_uses_inverse_rate_matrix(self):
        sim, _, job = make_state()
        sched = ProbabilisticNetworkAwareScheduler(
            PNAConfig(network_condition=True)
        )
        sched.on_job_added(job)
        ctx = sim.tracker.ctx
        ctx.rng = FixedRng([0.0])
        node = sim.cluster.nodes[0]
        task = sched.select_map(node, job, ctx)
        assert task is not None
        # the distance is the cluster's path-cost view, not None
        d = sched._distance(ctx)
        assert d is ctx.cluster.path_costs()
        dense = d.dense()
        assert dense.shape == (6, 6)
        assert np.all(np.diag(dense) == 0.0)
