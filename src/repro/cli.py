"""Command-line interface: regenerate any table or figure of the paper.

Usage::

    python -m repro.cli table2              # the 30-job catalogue
    python -m repro.cli fig4                # JCT CDFs for the 3 schedulers
    python -m repro.cli table3 --scenario nas
    python -m repro.cli all                 # every artefact in sequence
    repro fig7                              # installed entry point
    repro check src                         # static analysis (all passes)
    repro check --format sarif src          # ... machine-readable, for CI
    repro fig4 --check-invariants           # runtime invariant checking
    repro trace out.json                    # one traced run -> Perfetto JSON
    repro trace out.jsonl --scheduler fair  # ... or the archival JSONL form
    repro report out.jsonl                  # re-render a saved trace
    repro fig4 --trace run.jsonl            # trace every sim of an artefact
    repro run --faults plan.json            # one run under a fault plan
    repro run --scheduler fair --seed 3     # one plain run, summary printed
    repro run --durability --faults p.json  # ... with HDFS re-replication on
    repro chaos --rounds 20 --seed 1        # randomized-fault soak, verified
    repro chaos --rounds 3 --quick          # the CI chaos smoke
    repro run --metrics m.jsonl             # run with the metrics plane on
    repro report m.jsonl                    # ... render its ASCII dashboard
    repro profile                           # wall-time attribution (200 nodes)
    repro profile --quick --out p.json      # ... the CI smoke, JSON artifact
    repro profile --compare a.json b.json   # diff two saved profiles
    repro sweep -j4 --out sweep.json        # sharded evaluation-grid sweep
    repro sweep -j2 --quick                 # ... the CI smoke (tiny grid)

Scenario selection: ``--scenario {ci,medium,paper,nas,churn}`` or the
``REPRO_SCALE`` environment variable (default ``ci``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List

import numpy as np

from repro.analysis import (
    ascii_cdf,
    feasible_pmin,
    format_table,
    tradeoff_curve,
)
from repro.experiments import (
    ablation_bandwidth,
    ablation_estimator,
    ablation_network_condition,
    ablation_probabilistic,
    ablation_probability_model,
    fig3_data_sizes,
    fig4_jct,
    fig5_reduction,
    fig6_task_times,
    fig7_locality_by_size,
    get_scenario,
    pmin_sweep,
    table3_locality,
)
from repro.units import GB
from repro.workload import TABLE2

__all__ = ["main"]


def _cmd_table2(scenario) -> None:
    rows = [
        (e.job_id, e.name, e.num_maps, e.num_reduces)
        for e in TABLE2
    ]
    print(format_table(
        ["JobID", "Job", "Map (#)", "Reduce (#)"], rows,
        title="Table II: the 30-job catalogue",
    ))


def _cmd_fig3(scenario) -> None:
    data = fig3_data_sizes(scale=1.0)
    print(ascii_cdf(
        {k: v / GB for k, v in data.items()},
        xlabel="data size (GB)",
        title="Figure 3: CDF of input and shuffle size (full-scale workload)",
    ))
    shuffle = data["shuffle"]
    frac_50 = float(np.mean(shuffle > 50 * GB))
    frac_100 = float(np.mean(shuffle > 100 * GB))
    frac_10 = float(np.mean(shuffle < 10 * GB))
    print(
        f"\nshuffle-intensive (> 50 GB): {frac_50:.0%}   "
        f"(> 100 GB): {frac_100:.0%}   map-intensive (< 10 GB): {frac_10:.0%}"
    )


def _cmd_fig4(scenario) -> None:
    data = fig4_jct(scenario)
    print(ascii_cdf(
        data, xlabel="job completion time (s)",
        title=f"Figure 4: CDF of job completion time [{scenario.name}]",
    ))
    rows = [
        (name, f"{v.mean():.1f}", f"{np.median(v):.1f}", f"{v.max():.1f}")
        for name, v in data.items()
    ]
    print()
    print(format_table(["scheduler", "mean (s)", "median (s)", "max (s)"], rows))


def _cmd_fig5(scenario) -> None:
    data = fig5_reduction(scenario)
    print(ascii_cdf(
        data, xlabel="reduction of job processing time (%)",
        title=f"Figure 5: per-job reduction by the probabilistic scheduler [{scenario.name}]",
    ))
    for name, v in data.items():
        print(f"{name}: mean {v.mean():.1f}%  median {np.median(v):.1f}%  "
              f"jobs improved {np.mean(v > 0):.0%}")


def _cmd_fig6(scenario) -> None:
    data = fig6_task_times(scenario)
    for kind in ("map", "reduce"):
        print(ascii_cdf(
            data[kind], xlabel=f"{kind} task time (s)",
            title=f"Figure 6: CDF of {kind} task completion time [{scenario.name}]",
        ))
        print()


def _cmd_table3(scenario) -> None:
    data = table3_locality(scenario)
    headers = ["", *data.keys()]
    rows = []
    for level, label in (
        ("node", "% of local node tasks"),
        ("rack", "% of local rack tasks"),
        ("remote", "% of remote tasks"),
    ):
        rows.append([label, *(f"{data[s][level] * 100:.2f}" for s in data)])
    print(format_table(
        headers, rows,
        title=f"Table III: data locality by scheduler [{scenario.name}]",
    ))


def _cmd_fig7(scenario) -> None:
    data = fig7_locality_by_size(scenario)
    sizes = sorted(next(iter(data.values())))
    headers = ["input (GB)", *data.keys()]
    rows = [
        [gb, *(f"{data[s][gb] * 100:.1f}%" for s in data)]
        for gb in sizes
    ]
    print(format_table(
        headers, rows,
        title=f"Figure 7: % node-local map tasks vs input size [{scenario.name}]",
    ))


def _cmd_pmin(scenario) -> None:
    data = pmin_sweep(scenario)
    rows = [
        (f"{p:.1f}", "did not finish" if jct == float("inf") else f"{jct:.1f}")
        for p, jct in data.items()
    ]
    print(format_table(
        ["P_min", "mean Wordcount JCT (s)"], rows,
        title=f"P_min sweep (paper picks 0.4) [{scenario.name}]",
    ))


def _cmd_ablations(scenario) -> None:
    print("A1 — distance matrix (Section II-B-3)")
    for name, jct in ablation_network_condition(scenario).items():
        print(f"  {name:20s} mean JCT {jct:.1f} s")
    print("A2 — intermediate-size estimator (Section II-B-2)")
    for name, jct in ablation_estimator(scenario).items():
        print(f"  {name:20s} mean Wordcount JCT {jct:.1f} s")
    print("A3 — probabilistic vs deterministic placement (Section II-C)")
    for name, jct in ablation_probabilistic(scenario).items():
        print(f"  {name:20s} mean Wordcount JCT {jct:.1f} s")
    print("A4 — probability model family (Section V)")
    for name, jct in ablation_probability_model(scenario).items():
        print(f"  {name:20s} mean Wordcount JCT {jct:.1f} s")


def _cmd_util(scenario) -> None:
    """Cluster resource utilisation per scheduler (Section III-A claim)."""
    from repro.experiments import comparison

    results = comparison(scenario)
    headers = ["scheduler", "map-slot util", "reduce-slot util",
               "offers declined"]
    rows = []
    for name, runs in results.items():
        map_u = sum(r.utilisation("map") for r in runs.values()) / len(runs)
        red_u = sum(r.utilisation("reduce") for r in runs.values()) / len(runs)
        declines = sum(r.collector.scheduling_declines for r in runs.values())
        rows.append((name, f"{map_u:.1%}", f"{red_u:.1%}", declines))
    print(format_table(
        headers, rows,
        title=f"Cluster resource utilisation [{scenario.name}]",
    ))


def _cmd_theory(scenario) -> None:
    """The §V analytical cost-delay tradeoff on a measured cost sample."""
    import numpy as np

    from repro.core import ExponentialModel, JobCostModel
    from repro.schedulers import RandomScheduler

    sim = scenario.simulation(
        RandomScheduler(), scenario.jobs("wordcount")[:1]
    )
    sim.tracker.start()
    sim.sim.run(until=1e-9)
    job = sim.tracker.active_jobs[0]
    model = JobCostModel(job)
    costs = model.map_costs(
        np.arange(sim.cluster.num_nodes), np.arange(job.num_maps)
    ).ravel()
    p_mins = [0.0, 0.2, 0.4, 0.5, 0.6]
    rows = []
    for p, s in zip(p_mins, tradeoff_curve(costs, ExponentialModel(), p_mins)):
        rows.append((f"{p:.2f}", f"{s.accept_rate:.3f}",
                     f"{s.expected_offers:.2f}", f"{s.cost_reduction:+.1%}"))
    print(format_table(
        ["P_min", "accept rate", "E[offers]", "cost saving"], rows,
        title=f"Acceptance-rule tradeoff (analytical) [{scenario.name}]",
    ))
    print(f"highest feasible P_min: "
          f"{feasible_pmin(costs, ExponentialModel()):.3f}")


def _cmd_bandwidth(scenario) -> None:
    data = ablation_bandwidth(scenario)
    schedulers = list(next(iter(data.values())))
    headers = ["bg intensity", *schedulers]
    rows = [
        [f"{i:.2f}", *(f"{data[i][s]:.1f}" for s in schedulers)]
        for i in data
    ]
    print(format_table(
        headers, rows,
        title=f"A5: mean Wordcount JCT vs background utilisation [{scenario.name}]",
    ))


#: scheduler factories for `repro trace --scheduler`
def _trace_schedulers() -> Dict[str, Callable]:
    from repro.core import ProbabilisticNetworkAwareScheduler
    from repro.schedulers import (
        CouplingScheduler,
        FairScheduler,
        GreedyCostScheduler,
        RandomScheduler,
    )

    return {
        "pna": ProbabilisticNetworkAwareScheduler,
        "fair": FairScheduler,
        "coupling": CouplingScheduler,
        "random": RandomScheduler,
        "greedy": GreedyCostScheduler,
    }


def _trace_main(argv: List[str]) -> int:
    """`repro trace <out.jsonl|out.json>` — run one traced simulation."""
    import dataclasses

    from repro.trace import (
        ascii_timeline,
        events_to_chrome,
        events_to_jsonl,
        trace_summary,
    )

    factories = _trace_schedulers()
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Run one traced simulation and export the event stream.",
    )
    parser.add_argument(
        "out",
        help="output path: *.json writes Chrome/Perfetto trace-event JSON, "
        "anything else the canonical JSONL stream",
    )
    parser.add_argument("--scenario", default=None,
                        help="scenario name (ci, medium, paper, nas)")
    parser.add_argument("--scheduler", default="pna", choices=sorted(factories),
                        help="task scheduler to trace (default: pna)")
    parser.add_argument("--app", default="wordcount",
                        help="Table II application (default: wordcount)")
    parser.add_argument("--jobs", type=int, default=0,
                        help="truncate the batch to its first N jobs")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    args = parser.parse_args(argv)

    scenario = get_scenario(args.scenario)
    changes: Dict = {
        "config": dataclasses.replace(scenario.config, trace=True)
    }
    if args.seed is not None:
        changes["seed"] = args.seed
    scenario = scenario.with_(**changes)
    jobs = scenario.jobs(args.app)
    if args.jobs > 0:
        jobs = jobs[: args.jobs]
    sim = scenario.simulation(factories[args.scheduler](), jobs)
    result = sim.run()
    recorder = result.trace

    if args.out.endswith(".json"):
        n = events_to_chrome(recorder.events, args.out)
        print(f"wrote {n} Chrome trace events to {args.out} "
              "(load in Perfetto / chrome://tracing)")
    else:
        n = events_to_jsonl(recorder.events, args.out)
        print(f"wrote {n} events to {args.out}")
    print()
    print(trace_summary(recorder.events))
    print()
    print(ascii_timeline(recorder.events))
    print()
    print(result.summary())
    return 0


def _run_main(argv: List[str]) -> int:
    """`repro run` — one simulation, optionally under a fault plan."""
    import dataclasses

    from repro.faults import load_plan

    factories = _trace_schedulers()
    parser = argparse.ArgumentParser(
        prog="repro run",
        description="Run one simulation and print its summary, optionally "
        "injecting a declarative fault plan.",
    )
    parser.add_argument("--scenario", default=None,
                        help="scenario name (ci, medium, paper, nas, churn)")
    parser.add_argument("--scheduler", default="pna", choices=sorted(factories),
                        help="task scheduler (default: pna)")
    parser.add_argument("--app", default="wordcount",
                        help="Table II application (default: wordcount)")
    parser.add_argument("--jobs", type=int, default=0,
                        help="truncate the batch to its first N jobs")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    parser.add_argument("--faults", metavar="PLAN.json", default=None,
                        help="JSON fault plan (see repro.faults.FaultPlan); "
                        "overrides the scenario's own plan")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="append the run's JSONL event trace to PATH")
    parser.add_argument("--metrics", metavar="PATH", default=None,
                        help="enable the time-series metrics plane and "
                        "append its JSONL export to PATH "
                        "(render with `repro report PATH`)")
    parser.add_argument("--metrics-period", type=float, default=5.0,
                        metavar="SECONDS",
                        help="sampling cadence of the metrics plane "
                        "(default: 5.0 simulated seconds)")
    parser.add_argument("--durability", action="store_true",
                        help="enable the HDFS durability plane (NameNode "
                        "ReplicationMonitor: re-replication, trimming, "
                        "decommission support, data-loss detection)")
    parser.add_argument("--on-data-loss", default=None,
                        choices=("abort", "retry"),
                        help="job policy when a map's input block is "
                        "permanently lost (implies --durability; "
                        "default: retry)")
    parser.add_argument("--repair-rate", type=float, default=None,
                        metavar="BYTES_PER_S",
                        help="per-flow bandwidth cap for re-replication "
                        "copies (implies --durability; default: unthrottled)")
    parser.add_argument("--check-invariants", action="store_true",
                        help="run with the runtime invariant checker on")
    parser.add_argument("--max-stall-iters", type=int, default=None,
                        metavar="N",
                        help="abort with a diagnostic dump after N "
                        "consecutive events without the sim clock advancing "
                        "(0 disables the watchdog)")
    args = parser.parse_args(argv)

    scenario = get_scenario(args.scenario)
    changes: Dict = {}
    if args.faults is not None:
        try:
            changes["faults"] = load_plan(args.faults)
        except (OSError, ValueError) as exc:
            print(f"cannot load fault plan: {exc}", file=sys.stderr)
            return 2
    if args.durability or args.on_data_loss or args.repair_rate is not None:
        from repro.hdfs import DurabilityConfig

        if args.repair_rate is not None and args.repair_rate <= 0:
            print("--repair-rate must be positive", file=sys.stderr)
            return 2
        changes["durability"] = DurabilityConfig(
            on_data_loss=args.on_data_loss or "retry",
            repair_rate=args.repair_rate,
        )
    if args.check_invariants:
        changes["check_invariants"] = True
    if args.max_stall_iters is not None:
        if args.max_stall_iters < 0:
            print("--max-stall-iters must be >= 0", file=sys.stderr)
            return 2
        changes["max_stall_iters"] = args.max_stall_iters
    if args.trace:
        changes.update(trace=True, trace_jsonl=args.trace)
    if args.metrics:
        from repro.obs import MetricsConfig

        if args.metrics_period <= 0:
            print("--metrics-period must be positive", file=sys.stderr)
            return 2
        changes["metrics"] = MetricsConfig(
            period=args.metrics_period, jsonl=args.metrics
        )
    if changes:
        scenario = scenario.with_(
            config=dataclasses.replace(scenario.config, **changes)
        )
    if args.seed is not None:
        scenario = scenario.with_(seed=args.seed)
    jobs = scenario.jobs(args.app)
    if args.jobs > 0:
        jobs = jobs[: args.jobs]
    try:
        sim = scenario.simulation(factories[args.scheduler](), jobs)
    except ValueError as exc:
        # e.g. a fault plan with decommissions but no --durability
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    result = sim.run()
    print(result.summary())
    if args.metrics:
        print(f"metrics appended to {args.metrics}")
    if sim.faults is not None:
        inj = sim.faults
        print(
            f"injected: {inj.crashes_injected} crashes, "
            f"{inj.revivals} revivals, "
            f"{inj.attempt_failures_injected} attempt failures, "
            f"{inj.heartbeats_dropped} heartbeats dropped, "
            f"{inj.decommissions_injected} decommissions"
        )
    if sim.replication is not None:
        mon = sim.replication
        print(
            f"replication monitor: {mon.repairs_started} repairs started, "
            f"{result.collector.replicas_added} completed, "
            f"{mon.repairs_cancelled} cancelled, "
            f"{result.collector.blocks_lost} blocks lost"
        )
    return 0


def _chaos_main(argv: List[str]) -> int:
    """`repro chaos` — randomized-fault soak across every scheduler."""
    from repro.experiments.chaos import run_chaos

    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description="Soak every scheduler family under seed-reproducible "
        "randomized fault plans (crashes, churn, heartbeat loss, link "
        "degradation, tracker crashes, degraded telemetry) with runtime "
        "invariants on, verifying completion, shuffle byte conservation "
        "and determinism.",
    )
    parser.add_argument("--rounds", type=int, default=20,
                        help="number of randomized fault plans (default: 20)")
    parser.add_argument("--seed", type=int, default=0,
                        help="soak seed; same seed = same plans and traces")
    parser.add_argument("--intensity", type=float, default=1.0,
                        help="fault intensity multiplier (default: 1.0)")
    parser.add_argument("--quick", action="store_true",
                        help="truncate each run's batch to 4 jobs (CI smoke)")
    parser.add_argument("--trace", metavar="PATH", default="",
                        help="append every run's JSONL event trace to PATH")
    parser.add_argument("--metrics", metavar="PATH", default="",
                        help="sample the metrics plane during each primary "
                        "run and append its JSONL export to PATH")
    args = parser.parse_args(argv)

    if args.rounds < 1:
        print("--rounds must be >= 1", file=sys.stderr)
        return 2
    if args.intensity < 0:
        print("--intensity must be >= 0", file=sys.stderr)
        return 2
    report = run_chaos(
        rounds=args.rounds,
        seed=args.seed,
        intensity=args.intensity,
        quick=args.quick,
        progress=print,
        trace_path=args.trace,
        metrics_path=args.metrics,
    )
    print()
    print(report.summary())
    return 0 if report.ok else 1


def _is_metrics_file(path: str) -> bool:
    """True when ``path`` starts with a repro-metrics meta line.

    `repro report` accepts both event traces and metrics exports; the two
    are distinguished by their first non-empty JSONL line so users never
    have to remember which flag produced which file.
    """
    import json

    from repro.obs.export import FORMAT_MARKER

    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                except ValueError:
                    return False
                return (
                    isinstance(doc, dict)
                    and doc.get("format") == FORMAT_MARKER
                )
    except OSError:
        pass
    return False


def _report_metrics(path: str, width: int) -> int:
    """Render a metrics JSONL export as per-run ASCII dashboards."""
    from repro.obs.dashboard import render_dashboard
    from repro.obs.export import read_metrics_jsonl

    try:
        runs = read_metrics_jsonl(path)
    except (OSError, ValueError) as exc:
        print(f"cannot read metrics: {exc}", file=sys.stderr)
        return 2
    if not runs:
        print("empty metrics file", file=sys.stderr)
        return 2
    for i, run_doc in enumerate(runs):
        if i:
            print("\n" + "=" * 72 + "\n")
        print(render_dashboard(run_doc, width=width))
    return 0


def _profile_main(argv: List[str]) -> int:
    """`repro profile` — wall-time attribution of one benchmark case."""
    import json

    from repro.experiments.perf import bench_cases, profile_case
    from repro.obs.profile import compare_docs, table_from_doc

    cases = {c.name: c for c in bench_cases()}
    parser = argparse.ArgumentParser(
        prog="repro profile",
        description="Run one benchmark case under the hot-path wall-time "
        "profiler and print the per-component attribution table "
        "(self time: a parent scope is charged only for the wall time its "
        "children did not claim).",
    )
    which = parser.add_mutually_exclusive_group()
    which.add_argument("--case", default=None, choices=sorted(cases),
                       help="benchmark case to profile "
                       "(default: xl_pna_netcond, the 200-node showcase)")
    which.add_argument("--quick", action="store_true",
                       help="profile the small-cluster pna_netcond case "
                       "instead (the CI smoke)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="also write the canonical profile JSON to PATH")
    parser.add_argument("--top", type=int, default=0, metavar="N",
                        help="show only the N hottest components (0 = all)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        default=None,
                        help="diff two saved profile JSONs by component "
                        "self-time (no simulation runs) and exit")
    args = parser.parse_args(argv)

    if args.compare is not None:
        docs = []
        for path in args.compare:
            try:
                with open(path, encoding="utf-8") as fh:
                    doc = json.load(fh)
            except (OSError, ValueError) as exc:
                print(f"cannot read profile {path}: {exc}", file=sys.stderr)
                return 2
            if doc.get("format") != "repro-profile":
                print(f"{path} is not a repro-profile document",
                      file=sys.stderr)
                return 2
            docs.append(doc)
        print(f"A = {args.compare[0]}\nB = {args.compare[1]}\n")
        print(compare_docs(docs[0], docs[1], top=args.top))
        return 0

    name = args.case or ("pna_netcond" if args.quick else "xl_pna_netcond")
    case = cases[name]
    print(f"profiling {case.name} ({case.cluster.num_nodes} nodes)...")
    doc = profile_case(case)
    print()
    print(table_from_doc(doc, top=args.top))
    print(f"\n{doc['events']:,} events in {doc['wall_s']:.3f} s wall")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


def _sweep_main(argv: List[str]) -> int:
    """`repro sweep` — the sharded multi-process evaluation-grid sweep."""
    from repro.experiments.scenarios import SCENARIOS
    from repro.experiments.sweep import run_sweep, write_sweep

    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description="Run the full evaluation grid (scheduler x application "
        "comparison, P_min calibration, ablation points) as independent "
        "tasks over worker processes.  The merged canonical-JSON output is "
        "byte-identical for any -j value: task seeds are spawned from one "
        "SeedSequence in canonical task order before sharding, and records "
        "carry no wall times or pids.",
    )
    parser.add_argument("-j", "--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default: 1)")
    parser.add_argument("--seed", type=int, default=42,
                        help="base SeedSequence entropy (default: 42)")
    parser.add_argument("--out", metavar="PATH", default="sweep.json",
                        help="merged artifact path (default: sweep.json)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny grid at 5%% workload scale (CI smoke)")
    parser.add_argument("--scenario", default=None,
                        choices=sorted(SCENARIOS),
                        help="scenario name (default: REPRO_SCALE or ci)")
    args = parser.parse_args(argv)

    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    scenario = None
    if args.scenario is not None:
        scenario = get_scenario(args.scenario)
        if args.quick:
            scenario = scenario.with_(scale=0.05)
    doc = run_sweep(
        jobs=args.jobs, seed=args.seed, quick=args.quick, scenario=scenario
    )
    write_sweep(doc, args.out)
    meta = doc["sweep"]
    print(f"wrote {args.out}")
    print(
        f"{meta['tasks']} tasks on scenario {meta['scenario']} "
        f"(scale {meta['scale']}, base seed {meta['base_seed']}, "
        f"{args.jobs} worker{'s' if args.jobs != 1 else ''})"
    )
    rows = []
    for key, record in doc["records"].items():
        jct = record.get("mean_jct")
        rows.append((key, "-" if jct is None else f"{jct:.2f}"))
    print()
    print(format_table(["task", "mean JCT (s)"], rows,
                       title="sweep results"))
    return 0


def _report_main(argv: List[str]) -> int:
    """`repro report <file.jsonl>` — render a saved trace or metrics export."""
    from repro.trace import ascii_timeline, read_jsonl, trace_summary

    parser = argparse.ArgumentParser(
        prog="repro report",
        description="Render a saved JSONL artifact: an event trace "
        "(`repro trace` / EngineConfig(trace_jsonl=...)) as summary tables "
        "+ timeline, or a metrics export (`repro run --metrics`) as an "
        "ASCII dashboard.  The file kind is auto-detected.",
    )
    parser.add_argument("trace", help="JSONL trace written by `repro trace` "
                        "or metrics export from `repro run --metrics`")
    parser.add_argument("--width", type=int, default=64,
                        help="timeline/sparkline width in columns (default 64)")
    args = parser.parse_args(argv)

    try:
        if _is_metrics_file(args.trace):
            return _report_metrics(args.trace, args.width)
        try:
            events = read_jsonl(args.trace)
        except OSError as exc:
            print(f"cannot read trace: {exc}", file=sys.stderr)
            return 2
        if not events:
            print("empty trace", file=sys.stderr)
            return 2
        print(trace_summary(events))
        print()
        print(ascii_timeline(events, width=args.width))
    except BrokenPipeError:
        # output piped into head/less that exited early: not an error
        import os

        os.close(sys.stdout.fileno())
    return 0


COMMANDS: Dict[str, Callable] = {
    "table2": _cmd_table2,
    "fig3": _cmd_fig3,
    "fig4": _cmd_fig4,
    "fig5": _cmd_fig5,
    "fig6": _cmd_fig6,
    "table3": _cmd_table3,
    "fig7": _cmd_fig7,
    "pmin": _cmd_pmin,
    "ablations": _cmd_ablations,
    "bandwidth": _cmd_bandwidth,
    "util": _cmd_util,
    "theory": _cmd_theory,
}


def main(argv: List[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "check":
        from repro.analysis.check.runner import main as check_main

        return check_main(argv[1:])
    if argv and argv[0] == "trace":
        return _trace_main(argv[1:])
    if argv and argv[0] == "run":
        return _run_main(argv[1:])
    if argv and argv[0] == "report":
        return _report_main(argv[1:])
    if argv and argv[0] == "chaos":
        return _chaos_main(argv[1:])
    if argv and argv[0] == "profile":
        return _profile_main(argv[1:])
    if argv and argv[0] == "sweep":
        return _sweep_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "experiment",
        choices=[*COMMANDS, "all"],
        help="which paper artefact to regenerate "
        "(or `check`/`trace`/`run`/`report`/`chaos`/"
        "`profile`/`sweep`)",
    )
    parser.add_argument(
        "--scenario",
        default=None,
        help="scenario name (ci, medium, paper, nas); default from REPRO_SCALE",
    )
    parser.add_argument(
        "--check-invariants",
        action="store_true",
        help="run every simulation with the runtime invariant checker on",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="append a decision-level JSONL trace of every simulation to PATH",
    )
    args = parser.parse_args(argv)
    scenario = get_scenario(args.scenario)
    if args.check_invariants or args.trace:
        import dataclasses

        changes = {"check_invariants": True} if args.check_invariants else {}
        if args.trace:
            changes.update(trace=True, trace_jsonl=args.trace)
        scenario = scenario.with_(
            config=dataclasses.replace(scenario.config, **changes)
        )
    targets = list(COMMANDS) if args.experiment == "all" else [args.experiment]
    try:
        for i, name in enumerate(targets):
            if i:
                print("\n" + "=" * 72 + "\n")
            COMMANDS[name](scenario)
    except BrokenPipeError:
        # output piped into head/less that exited early: not an error
        import os

        os.close(sys.stdout.fileno())
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
