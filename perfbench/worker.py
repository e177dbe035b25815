"""One benchmark process: build one workload, run it once, report JSON.

Started by ``perfbench/run.py`` in a fresh interpreter for every sample,
never imported by it.  Modes:

* ``timed``  — plain run; the end-to-end sample.
* ``verify`` — the same run with ``EngineConfig(check_invariants=True)``;
  a violation raises and the process fails.
* ``traced`` — the same run under the per-layer tracer and the event-loop
  profiler.

The last stdout line is one JSON object.  Host time is reported two ways.
CPU seconds come from ``time.process_time()``: ``setup_cpu_s`` counts from
process creation (interpreter start, imports, workload generation,
``Simulation`` construction) to the first event, and ``run_cpu_s`` covers
``Simulation.run()``.  ``cal_s`` holds the CPU seconds of a fixed
calibration loop run just before and just after the simulation.  Wall
seconds come as ``wall_s`` for the run and as
``t_ready``, a ``time.monotonic()`` stamp (system-wide on Linux) taken once
the ``Simulation`` is constructed; the parent subtracts its spawn time
from it.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def sim_outcome(sim, result) -> dict:
    """The simulated results: exact for a fixed seed, on any host."""
    import numpy as np

    c = result.collector
    jct = c.job_completion_times()
    return {
        "events": int(sim.sim.processed),
        "makespan_s": float(c.makespan()),
        "jct_mean_s": float(jct.mean()) if jct.size else 0.0,
        "jct_p50_s": float(np.median(jct)) if jct.size else 0.0,
        "map_node_local": float(c.locality_shares("map")["node"]),
        "transmission_cost_tbhop": float(c.total_cost()) / 1e12,
        "task_fabric_gb": float(c.bytes_moved()) / 1e9,
        "jct": [float(x) for x in jct],
    }


def work_counters(sim, result) -> dict:
    """Seed-deterministic work counters read from public objects."""
    c = result.collector
    net = sim.cluster.network
    offers = c.scheduling_assignments + c.scheduling_declines
    # a task's final record counts every attempt it ever launched
    # (speculative, killed, failed, lost-output re-runs)
    final_attempts = {}
    for rec in c.task_records:
        key = (rec.job_id, rec.kind, rec.index)
        final_attempts[key] = max(final_attempts.get(key, 0), rec.attempts)
    launched = sum(final_attempts.values())
    return {
        "network.reallocations": net.reallocations,
        "network.flows_started": net.flows_started,
        "network.reroutes": result.reroutes,
        "routing.convergences": result.route_convergences,
        "scheduler.offers": offers,
        "scheduler.assign_ratio": (
            c.scheduling_assignments / offers if offers else 0.0
        ),
        "engine.attempt_useful_ratio": (
            len(final_attempts) / launched if launched else 0.0
        ),
        "hdfs.replicas_added": c.replicas_added,
        "hdfs.repair_gb": c.repair_bytes / 1e9,
        "hdfs.blocks_lost": c.blocks_lost,
        "faults.node_losses": c.nodes_lost,
        "faults.attempts_killed": c.attempts_killed,
    }


def calibrate(n: int = 150_000) -> float:
    """CPU seconds of a fixed pure-Python load: heap, dict and float work.

    It touches nothing of the program, so a change to the program cannot
    move it; it only measures how fast this host runs Python right now.
    """
    start = time.process_time()
    heap, table, acc = [], {}, 0.0
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1009 + i * 1e-3, i))
        if len(heap) > 64:
            t, k = heapq.heappop(heap)
            key = k % 257
            table[key] = table.get(key, 0.0) + t * 0.5
            acc += table[key] / (1.0 + (k & 7))
    return time.process_time() - start


def library_versions() -> dict:
    """numpy and BLAS versions as this (thread-pinned) process sees them."""
    import numpy as np

    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "openblas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", choices=("timed", "verify", "traced"), default="timed"
    )
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    import repro  # noqa: F401
    import repro.experiments.perf  # noqa: F401

    t_imported = time.monotonic()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.mode == "traced":
        from layers import LayerTracer

        tracer = LayerTracer()
    sim = workload.build(args.seed, args.mode == "verify", args.smoke)
    if tracer is not None:
        tracer.install(sim)
    t_ready = time.monotonic()
    setup_cpu = time.process_time()
    # host speed, sampled on both sides of the run
    calibration = [calibrate()]

    profile_doc = None
    c0 = time.process_time()
    t0 = time.perf_counter()
    if tracer is None:
        result = sim.run()
    else:
        from repro.obs.profile import profiled

        with profiled() as prof:
            result = sim.run()
        profile_doc = prof.to_doc()
    wall = time.perf_counter() - t0
    run_cpu = time.process_time() - c0
    calibration.append(calibrate())

    usage = resource.getrusage(resource.RUSAGE_SELF)
    outcome = sim_outcome(sim, result)
    c = result.collector
    doc = {
        "t_ready": t_ready,
        "import_s": t_imported - T_START,
        "wall_s": wall,
        "run_cpu_s": run_cpu,
        "setup_cpu_s": setup_cpu,
        "cal_s": calibration,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "jobs_submitted": len(sim.specs),
        "jobs_completed": len(c.job_records),
        "jobs_failed": len(c.failed_jobs),
        "outcome": outcome,
        "digest": hashlib.sha256(
            json.dumps(outcome, sort_keys=True).encode()
        ).hexdigest(),
        "counters": work_counters(sim, result),
        "versions": library_versions(),
    }
    if tracer is not None:
        doc["profile"] = profile_doc
        doc["calls"] = dict(tracer.calls)
        doc["rate_misses"] = tracer.rate_misses
    print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
