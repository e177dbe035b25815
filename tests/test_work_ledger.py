"""Exact work ledger: per-layer call counts of small profiled runs.

Every case below runs under :func:`repro.experiments.perf.profile_simulation`.
From its document the ledger keeps each component's ``calls``, plus the
processed ``events``, ``network.flows_started``, ``routing.convergences``,
``network.reroutes`` and ``routing.bfs_runs`` (ECMP BFS records built).  Each count is a pure function of the case and
its seed, so the test compares them exactly against the committed
``tests/work_ledger.json``.

This catches a layer that does *more calls* than before: a refill run
twice per tick, a selection asked twice per offer, or a rate matrix
recomputed within one epoch (the ``network.rate_matrix`` scope opens only
on a miss of ``Cluster.inverse_rate_matrix``'s epoch cache, the one cache
of the rate view, so its calls count misses).
It does not catch a slower implementation of the same calls; wall time
is the benchmark's job (``perfbench/``, declared in ``BENCHMARK.json``).

``network.refill`` is the one path-dependent key: the fused C tick
refills outside the scope, so the numpy path (``REPRO_NO_CKERNEL=1``)
counts more scope calls.  The ledger records it per path; every other
key must be equal on both paths.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro import EngineConfig, Simulation, accel
from repro.cluster import Cluster, clos_topology
from repro.core import PNAConfig, ProbabilisticNetworkAwareScheduler
from repro.experiments.perf import bench_cases, profile_simulation
from repro.faults import FaultPlan, LinkFailure, SwitchFailure
from repro.sim import Simulator
from repro.units import MB
from repro.workload import JobSpec

LEDGER = Path(__file__).with_name("work_ledger.json")
#: counters whose value depends on whether the C fabric kernel is loaded
PATH_KEYS = ("network.refill",)
PATHS = ("ckernel", "numpy")
#: the 16-node benchmark cases, shrunk to about 0.3 s each
SMALL_CASES = ("pna_hop", "pna_netcond", "fair", "coupling",
               "pna_netcond_churn")


def _clos_faults(**config) -> Simulation:
    """Link-state k=4 Clos losing a fabric link and an aggregation switch
    while flows are in flight, so routing converges and flows reroute.
    ``config`` holds further :class:`EngineConfig` fields."""
    return Simulation(
        cluster=Cluster(Simulator(), clos_topology(4, routing="linkstate")),
        scheduler=ProbabilisticNetworkAwareScheduler(
            PNAConfig(network_condition=True)
        ),
        jobs=[
            JobSpec.make("01", "terasort", 16 * 64 * MB, 16, 6),
            JobSpec.make("02", "grep", 8 * 32 * MB, 8, 2),
        ],
        seed=11,
        config=EngineConfig(
            faults=FaultPlan(
                link_failures=(
                    LinkFailure(link=("edge0_0", "agg0_0"), duration=20.0,
                                at=5.0),
                ),
                switch_failures=(
                    SwitchFailure(switch="agg1_1", duration=10.0, at=8.0),
                ),
            ),
            route_convergence_delay=0.5,
            **config,
        ),
    )


def _simulations(**config):
    """Each case's simulation, built lazily; ``config`` holds further
    :class:`EngineConfig` fields for every case."""
    cases = {c.name: c for c in bench_cases()}
    for name in SMALL_CASES:
        case = replace(cases[name], scale=0.05)
        scenario = case.scenario()
        scenario = scenario.with_(config=replace(scenario.config, **config))
        yield name, scenario.simulation(
            case.make_scheduler(), case.jobs(scenario)
        )
    yield "clos_linkstate_faults", _clos_faults(**config)


def _counts(doc) -> dict:
    counts = {name: rec["calls"] for name, rec in doc["components"].items()}
    counts["events"] = doc["events"]
    counts["network.flows_started"] = doc["flows_started"]
    counts["routing.convergences"] = doc["route_convergences"]
    counts["network.reroutes"] = doc["reroutes"]
    counts["routing.bfs_runs"] = doc["bfs_runs"]
    return counts


def _expected(entry: dict, path: str) -> dict:
    return {
        key: value[path] if key in PATH_KEYS else value
        for key, value in entry.items()
    }


def _regenerate(ledger: dict, path: str, measured: dict) -> dict:
    """The committed ledger with this path's measurements written in."""
    out = {}
    for name, counts in measured.items():
        old = ledger.get(name, {})
        entry = {}
        for key, value in counts.items():
            if key in PATH_KEYS:
                per_path = dict(old.get(key) or dict.fromkeys(PATHS, 0))
                per_path[path] = value
                value = per_path
            entry[key] = value
        out[name] = entry
    return out


@pytest.fixture(params=PATHS)
def fabric_path(request, monkeypatch):
    """Run with the C fabric kernel or on the numpy path.  The kernel
    handle is resolved once per process, so forget it either way."""
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    if request.param == "numpy":
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
    else:
        monkeypatch.delenv("REPRO_NO_CKERNEL", raising=False)
    monkeypatch.setattr(accel, "_loaded", None)
    monkeypatch.setattr(accel, "_load_attempted", False)
    kernel = accel.refill_kernel()
    if request.param == "numpy":
        assert kernel is None
    elif kernel is None:
        pytest.skip("C kernels unavailable")
    return request.param


def test_work_matches_ledger(fabric_path):
    ledger = json.loads(LEDGER.read_text())
    measured = {
        name: _counts(profile_simulation(sim))
        for name, sim in _simulations()
    }
    problems = []
    for name in sorted(set(ledger) | set(measured)):
        if name not in ledger or name not in measured:
            problems.append(f"{name}: case missing from "
                            f"{'the ledger' if name in measured else 'the run'}")
            continue
        expected = _expected(ledger[name], fabric_path)
        actual = measured[name]
        for key in sorted(set(expected) | set(actual)):
            want, got = expected.get(key, 0), actual.get(key, 0)
            if want != got:
                problems.append(
                    f"{name}: {key} expected {want}, got {got}"
                )
    if problems:
        regenerated = json.dumps(
            _regenerate(ledger, fabric_path, measured), indent=2,
            sort_keys=True,
        )
        pytest.fail(
            f"work ledger mismatch on the {fabric_path} path:\n  "
            + "\n  ".join(problems)
            + f"\n\nregenerated {LEDGER.name}:\n{regenerated}\n",
            pytrace=False,
        )


def test_ledger_covers_routing_and_both_paths():
    ledger = json.loads(LEDGER.read_text())
    assert set(ledger) == {*SMALL_CASES, "clos_linkstate_faults"}
    clos = ledger["clos_linkstate_faults"]
    assert clos["routing.convergences"] > 0
    assert clos["network.reroutes"] > 0
    for entry in ledger.values():
        for key in PATH_KEYS:
            assert set(entry[key]) == set(PATHS)
