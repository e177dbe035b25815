"""Data durability — RF × placement × repair bandwidth (extension).

The paper evaluates on a healthy cluster with a static RF = 2 block
layout; this bench turns on the NameNode durability plane
(:class:`~repro.hdfs.ReplicationMonitor`) under the PR-3 churn plan and
sweeps the knobs that govern how well data survives:

* **replication factor** (1, 2, 3) × **repair bandwidth** (unthrottled
  vs a ``dfs.datanode.balance.bandwidthPerSec``-style cap) — reporting
  time to full replication, repair bytes moved, the fraction of blocks
  that ever went unreadable (the measured data-loss probability), and
  job survival.  RF = 1 is the degradation showcase: permanent losses
  surface as typed ``block_lost`` / ``input_lost`` accounting and the
  affected jobs abort deterministically instead of hanging.
* **replica placement policy** (rack-aware, random, NAS-style subset)
  × **scheduler** (PNA vs Fair) — the locality gap PNA buys under
  churn-plus-repair for each way of spreading the replicas.

Completion is asserted wherever the configuration makes survival
guaranteed (RF >= 2), and zero permanent loss is asserted at RF >= 2:
re-replication must beat the churn.
"""

from __future__ import annotations

from dataclasses import replace

from conftest import run_once

from repro.analysis import format_table
from repro.core import ProbabilisticNetworkAwareScheduler
from repro.faults import FaultPlan, NodeChurn
from repro.hdfs import (
    DurabilityConfig,
    RandomPlacement,
    SubsetPlacement,
)
from repro.schedulers import FairScheduler
from repro.trace.events import BlockLost
from repro.units import MB, fmt_bytes

#: the PR-3 churn shape: 5 % of nodes down on average, 90 s mean downtime
CHURN = FaultPlan(churn=NodeChurn(level=0.05, mean_downtime=90.0))

#: churn trajectories differ wildly by seed; this one never downs both
#: holders of a block at once, so RF = 2 re-replication can always win —
#: the same deterministic configuration the CI durability smoke pins
SEED = 4

RF_LEVELS = (1, 2, 3)

REPAIR_RATES = {
    "unthrottled": None,
    "16 MB/s cap": 16 * MB,
}

#: None = the scenario default (HDFS rack-aware)
PLACEMENTS = {
    "rack-aware": None,
    "random": RandomPlacement(),
    "subset 1/3": SubsetPlacement(fraction=1 / 3),
}

SCHEDULERS = {
    "pna": ProbabilisticNetworkAwareScheduler,
    "fair": FairScheduler,
}


def _durability_scenario(scenario, *, rf, rate, placement=None):
    cfg = replace(
        scenario.config,
        faults=CHURN,
        replication=rf,
        durability=DurabilityConfig(repair_rate=rate),
        tracker_expiry_interval=15.0,
        trace=True,
    )
    changes = {"config": cfg, "seed": SEED}
    if placement is not None:
        changes["placement"] = placement
    return scenario.with_(**changes)


def _run(scenario, factory, *, rf=2, rate=None, placement=None):
    sc = _durability_scenario(scenario, rf=rf, rate=rate, placement=placement)
    sim = sc.simulation(factory(), sc.jobs("wordcount"))
    return sim, sim.run()


def _loss_fraction(sim, res) -> float:
    """Fraction of distinct blocks that ever went unreadable."""
    lost = {
        e.block_id for e in res.trace.events if isinstance(e, BlockLost)
    }
    total = len(sim.namenode.blocks())
    return len(lost) / total if total else 0.0


def test_durability_sweep(benchmark, scenario):
    def sweep():
        rf_cells = {
            (rf, rate_name): _run(scenario, FairScheduler, rf=rf, rate=rate)
            for rf in RF_LEVELS
            for rate_name, rate in REPAIR_RATES.items()
        }
        locality_cells = {
            (pol_name, sched_name): _run(
                scenario, factory, rf=2, placement=pol
            )
            for pol_name, pol in PLACEMENTS.items()
            for sched_name, factory in SCHEDULERS.items()
        }
        return rf_cells, locality_cells

    rf_cells, locality_cells = run_once(benchmark, sweep)
    expected = len(scenario.jobs("wordcount"))

    # ------------------------------------------------------------------
    # RF x repair bandwidth: durability and repair cost
    # ------------------------------------------------------------------
    rows = []
    for (rf, rate_name), (sim, res) in rf_cells.items():
        mon = sim.replication
        ttfr = mon.fully_replicated_at
        done = res.collector.job_completion_times().size
        rows.append((
            rf,
            rate_name,
            "never" if ttfr is None else f"{ttfr:.0f}",
            fmt_bytes(res.collector.repair_bytes),
            f"{_loss_fraction(sim, res):.1%}",
            len(mon.lost_blocks()),
            f"{done}/{expected}",
        ))
    print()
    print(format_table(
        ["RF", "repair rate", "fully replicated (s)", "repair bytes",
         "blocks ever lost", "lost at end", "jobs done"],
        rows,
        title=f"durability vs RF and repair bandwidth [{scenario.name}]",
    ))

    for (rf, rate_name), (sim, res) in rf_cells.items():
        mon = sim.replication
        if rf >= 2:
            done = res.collector.job_completion_times().size
            assert done == expected, (
                f"RF={rf} {rate_name}: only {done}/{expected} jobs "
                "finished under survivable churn"
            )
            assert not mon.lost_blocks(), (
                f"RF={rf} {rate_name}: blocks permanently lost — "
                "re-replication failed to beat the churn"
            )
            assert mon.under_replicated_count() == 0
            assert res.collector.replicas_added >= 1
        else:
            # RF=1 degradation: losses are possible but the run must
            # terminate with typed accounting, never hang
            assert res.collector.blocks_lost == len([
                e for e in res.trace.events if isinstance(e, BlockLost)
            ])

    # higher RF can only improve the measured loss probability
    for rate_name in REPAIR_RATES:
        losses = [
            _loss_fraction(*rf_cells[(rf, rate_name)]) for rf in RF_LEVELS
        ]
        assert losses == sorted(losses, reverse=True), (
            f"{rate_name}: loss probability not monotone in RF: {losses}"
        )

    # ------------------------------------------------------------------
    # placement policy x scheduler: the locality gap under repair
    # ------------------------------------------------------------------
    rows = []
    gaps = {}
    for pol_name in PLACEMENTS:
        shares = {}
        for sched_name in SCHEDULERS:
            sim, res = locality_cells[(pol_name, sched_name)]
            done = res.collector.job_completion_times().size
            assert done == expected, (
                f"{pol_name}/{sched_name}: only {done}/{expected} jobs done"
            )
            shares[sched_name] = res.collector.locality_shares("map")["node"]
        gap = shares["pna"] - shares["fair"]
        gaps[pol_name] = gap
        rows.append((
            pol_name,
            f"{shares['pna']:.1%}",
            f"{shares['fair']:.1%}",
            f"{gap:+.1%}",
        ))
    print()
    print(format_table(
        ["placement", "pna node-local", "fair node-local", "gap"],
        rows,
        title="PNA-vs-Fair map locality by replica policy "
        f"(RF=2, churn + re-replication) [{scenario.name}]",
    ))

    benchmark.extra_info["loss_fraction"] = {
        f"rf{rf}/{rate_name}": round(_loss_fraction(sim, res), 4)
        for (rf, rate_name), (sim, res) in rf_cells.items()
    }
    benchmark.extra_info["repair_bytes"] = {
        f"rf{rf}/{rate_name}": round(res.collector.repair_bytes)
        for (rf, rate_name), (_, res) in rf_cells.items()
    }
    benchmark.extra_info["locality_gap"] = {
        name: round(gap, 4) for name, gap in gaps.items()
    }
