"""A simulation run imports only what it uses.

The run happens in a fresh interpreter, so nothing another test imported
can hide a regression: a smoke-sized PNA network-condition run on a tree,
built through the public API, must leave networkx, scipy, the analysis
package and every exporter unloaded.  So must a run on a link-state Clos
fabric under a link and a switch failure, which re-routes flows and asks
which hosts the down links cut off.  The checks count modules, not
seconds, so they hold on any host.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap

import pytest

#: modules a plain simulation run must never load
OFF_PATH = (
    "networkx",
    "scipy",
    "repro.analysis",
    "repro.trace.render",
    "repro.trace.export",
    "repro.obs.export",
    "repro.obs.dashboard",
    "repro.experiments.chaos",
    "repro.experiments.sweep",
)

SCRIPT = textwrap.dedent(
    """
    import json
    import sys

    from repro import ClusterSpec, Simulation
    from repro.core import PNAConfig, ProbabilisticNetworkAwareScheduler
    from repro.experiments.perf import batched_workload

    OFF_PATH = {off_path!r}


    def run(scheduler):
        Simulation(
            cluster=ClusterSpec(num_racks=2, nodes_per_rack=8),
            scheduler=scheduler,
            jobs=batched_workload(3, scale=0.05, stagger=5.0),
            seed=1,
        ).run()


    def loaded():
        return sorted(m for m in OFF_PATH if m in sys.modules)


    def run_faulted_fabric():
        from repro.cluster import Cluster
        from repro.cluster.topologies import clos_topology
        from repro.engine import EngineConfig
        from repro.faults import FaultPlan, LinkFailure, SwitchFailure
        from repro.sim import Simulator

        plan = FaultPlan(
            link_failures=(
                LinkFailure(link=("edge0_0", "h0_0_0"), duration=6.0, at=2.0),
            ),
            switch_failures=(
                SwitchFailure(switch="agg1_0", duration=4.0, at=2.5),
            ),
        )
        result = Simulation(
            cluster=Cluster(Simulator(), clos_topology(4, routing="linkstate")),
            scheduler=ProbabilisticNetworkAwareScheduler(),
            jobs=batched_workload(2, scale=0.05, stagger=1.0),
            config=EngineConfig(faults=plan, route_convergence_delay=0.5),
            seed=1,
        ).run()
        return result.route_convergences


    doc = {{}}
    run(ProbabilisticNetworkAwareScheduler(PNAConfig(network_condition=True)))
    doc["loaded_after_pna"] = loaded()
    doc["fabric_convergences"] = run_faulted_fabric()
    doc["loaded_after_fabric"] = loaded()
    print(json.dumps(doc))
    """
)


@pytest.fixture(scope="module")
def fresh_run():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(off_path=OFF_PATH)],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_simulation_run_leaves_heavy_modules_unloaded(fresh_run):
    assert fresh_run["loaded_after_pna"] == []


def test_faulted_fabric_run_leaves_heavy_modules_unloaded(fresh_run):
    assert fresh_run["fabric_convergences"] >= 2
    assert fresh_run["loaded_after_fabric"] == []

