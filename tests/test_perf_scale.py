"""Scale coverage: fabric-churn trace identity, batched workloads, the sweep.

Four concerns from the 1000-node scaling work live here:

* **trace identity under fabric churn** — the incremental fast paths
  (persistent fabric membership state, gather-min rate matrices,
  running cost vectors) must stay byte-identical to the naive
  ``REPRO_NO_CACHE=1`` reference even while links fail and heal and
  ``route_version`` bumps mid-run (node churn is covered by
  ``tests/test_perf_cache.py``);
* **the sharded sweep** — canonical task identity, shard-independent
  seeding, and merged-JSON byte-identity across worker counts;
* **benchmark inputs** — the xxl batched workload builder and the
  profile-diff renderer behind ``repro profile --compare``;
* **the gather-min kernel** behind ``rate_matrix``, against numpy.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import EngineConfig, Simulation
from repro.cluster import Cluster, clos_topology
from repro.core import PNAConfig, ProbabilisticNetworkAwareScheduler
from repro.experiments.perf import batched_workload
from repro.experiments.scenarios import get_scenario
from repro.experiments.sweep import (
    _task_seeds,
    run_sweep,
    sweep_tasks,
    task_key,
    write_sweep,
)
from repro.faults import FaultPlan, LinkFailure
from repro.obs.profile import compare_docs
from repro.sim import Simulator
from repro.units import MB
from repro.workload import JobSpec


# ---------------------------------------------------------------------------
# cached vs naive byte-identity while the fabric churns
# ---------------------------------------------------------------------------
def _run_fabric_traced(tmp_path, tag, routing):
    """A netcond run on a Clos fabric with a mid-run link fault."""
    trace = tmp_path / f"{tag}.jsonl"
    clock = Simulator()
    cluster = Cluster(clock, clos_topology(4, routing=routing))
    sim = Simulation(
        cluster=cluster,
        scheduler=ProbabilisticNetworkAwareScheduler(
            PNAConfig(network_condition=True)
        ),
        jobs=[
            JobSpec.make("01", "terasort", 16 * 64 * MB, 16, 6),
            JobSpec.make("02", "grep", 8 * 32 * MB, 8, 2),
        ],
        seed=11,
        config=EngineConfig(
            trace_jsonl=str(trace),
            faults=FaultPlan(link_failures=(
                LinkFailure(link=("edge0_0", "agg0_0"), duration=25.0, at=5.0),
                LinkFailure(node="h1_0_0", duration=20.0, at=8.0),
            )),
            route_convergence_delay=0.5,
        ),
    )
    result = sim.run()
    return trace.read_bytes(), result


@pytest.mark.parametrize("routing", ["linkstate", "static"])
def test_fabric_fault_trace_identical_with_and_without_caches(
    tmp_path, monkeypatch, routing
):
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    cached_bytes, result = _run_fabric_traced(tmp_path, "cached", routing)
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    naive_bytes, _ = _run_fabric_traced(tmp_path, "naive", routing)

    assert cached_bytes, "trace was empty — nothing was compared"
    assert cached_bytes == naive_bytes
    if routing == "linkstate":
        # the fault plan must actually reroute, otherwise route_version
        # never bumps and the incremental paths dodge the scenario under
        # test.  Static routing never reroutes; its multi-path pairs run
        # the route tensor's per-pair fallback against the reference.
        assert result.route_convergences >= 2


# ---------------------------------------------------------------------------
# the xxl batched workload
# ---------------------------------------------------------------------------
class TestBatchedWorkload:
    def test_unique_ids_and_staggered_submits(self):
        specs = batched_workload(70, scale=0.1, stagger=15.0)
        assert len(specs) == 70
        assert len({s.job_id for s in specs}) == 70
        assert [s.submit_time for s in specs[:4]] == [0.0, 15.0, 30.0, 45.0]

    def test_cycles_the_catalogue_with_fresh_seeds(self):
        specs = batched_workload(40)
        # 30 Table II jobs, then the cycle restarts with offset seeds
        assert specs[30].app == specs[0].app
        assert specs[30].num_maps == specs[0].num_maps
        assert specs[30].seed == specs[0].seed + 1000
        assert specs[30].job_id != specs[0].job_id

    def test_deterministic(self):
        assert batched_workload(12) == batched_workload(12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            batched_workload(0)


# ---------------------------------------------------------------------------
# the sharded sweep
# ---------------------------------------------------------------------------
class TestSweep:
    def test_tasks_are_key_sorted_and_unique(self):
        for quick in (False, True):
            tasks = sweep_tasks(quick=quick)
            keys = [task_key(t) for t in tasks]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)

    def test_seeds_are_a_pure_function_of_the_grid(self):
        tasks = sweep_tasks(quick=True)
        assert _task_seeds(tasks, 42) == _task_seeds(tasks, 42)
        assert _task_seeds(tasks, 42) != _task_seeds(tasks, 43)
        # one independent seed per task, no collisions expected here
        assert len(set(_task_seeds(tasks, 42))) == len(tasks)

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            run_sweep(jobs=0, quick=True)

    def test_merged_json_byte_identical_across_worker_counts(self, tmp_path):
        scenario = get_scenario("ci").with_(scale=0.02)
        blobs = []
        for jobs in (1, 2):
            doc = run_sweep(jobs=jobs, quick=True, scenario=scenario)
            path = tmp_path / f"sweep_j{jobs}.json"
            write_sweep(doc, str(path))
            blobs.append(path.read_bytes())
        assert blobs[0], "sweep artifact was empty"
        assert blobs[0] == blobs[1]

    def test_records_carry_no_timing_or_process_facts(self, tmp_path):
        scenario = get_scenario("ci").with_(scale=0.02)
        doc = run_sweep(jobs=2, quick=True, scenario=scenario)
        blob = json.dumps(doc)
        for forbidden in ("wall", "pid", "worker", "elapsed"):
            assert forbidden not in blob


# ---------------------------------------------------------------------------
# profile --compare
# ---------------------------------------------------------------------------
class TestCompareDocs:
    A = {
        "format": "repro-profile", "wall_s": 10.0,
        "components": {
            "network.tick": {"self_s": 6.0, "calls": 100},
            "scheduler.select": {"self_s": 2.0, "calls": 50},
        },
    }
    B = {
        "format": "repro-profile", "wall_s": 4.0,
        "components": {
            "network.tick": {"self_s": 1.0, "calls": 100},
            "tracker.heartbeat": {"self_s": 0.5, "calls": 10},
        },
    }

    def test_largest_mover_leads_and_absent_side_is_zero(self):
        table = compare_docs(self.A, self.B)
        lines = table.splitlines()
        assert lines[1].startswith("network.tick")
        # scheduler.select vanished in B; tracker.heartbeat is new
        assert any(l.startswith("scheduler.select") for l in lines)
        assert any(l.startswith("tracker.heartbeat") for l in lines)
        assert "(total wall)" in lines[-1]
        assert "0.40x" in lines[-1]

    def test_top_truncates(self):
        table = compare_docs(self.A, self.B, top=1)
        body = [l for l in table.splitlines()[1:-1]]
        assert len(body) == 1

    def test_zero_baseline_component_renders_dash_ratio(self):
        table = compare_docs({"wall_s": 0.0, "components": {}}, self.B)
        assert "-" in table.splitlines()[-1]


# ---------------------------------------------------------------------------
# the gather-min kernel behind rate_matrix
# ---------------------------------------------------------------------------
def test_gather_min_kernel_matches_numpy():
    from repro import accel

    kern = accel.refill_kernel()
    if kern is None:
        pytest.skip("C kernels unavailable")
    rng = np.random.default_rng(5)
    k, depth = 13, 4
    share = rng.uniform(1.0, 9.0, size=37)
    tensor = rng.integers(0, 37, size=(k, k, depth))
    out = np.empty((k, k))
    rc = kern.gather_min(
        k * k, depth, np.ascontiguousarray(tensor).ctypes.data,
        share.ctypes.data, out.ctypes.data,
    )
    assert rc == 0
    np.testing.assert_array_equal(out, share[tensor].min(axis=2))


def test_gather_min_rejects_empty_rows():
    from repro import accel

    kern = accel.refill_kernel()
    if kern is None:
        pytest.skip("C kernels unavailable")
    buf = np.zeros(1)
    tensor = np.zeros((1, 1, 0), dtype=np.int64)
    assert kern.gather_min(1, 0, tensor.ctypes.data, buf.ctypes.data,
                           buf.ctypes.data) != 0
