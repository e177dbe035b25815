"""The repository benchmark: ``python3 perfbench/run.py --workload W ...``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pna_400 --seed 1 --seconds 30 --trace 0

One invocation measures one workload (see ``perfbench/workloads.py``).
Every sample is a fresh single-threaded interpreter running
``perfbench/worker.py`` once; this process only spawns, checks and
summarises:

* ``--trace 0``: one discarded warm-up, the smoke-sized copy of the
  workload run with ``EngineConfig(check_invariants=True)``.  It absorbs
  the first-use C-kernel compile and the ``.pyc`` writes.  Then timed
  samples until ``--seconds`` of measuring have passed (at least
  ``MIN_SAMPLES``).  The end-to-end metrics are medians over the samples.
* ``--trace 1``: the verification pass, the full workload with
  ``check_invariants=True``, which is also the warm-up.  Then rounds of
  one timed and one traced sample, alternating which goes first.  The
  per-layer split comes from the traced samples; the tracing overhead is
  their wall time minus the timed ones'.

Every sample must finish every job.  Every full-size sample must also
reproduce the first one's simulated outcome exactly: the per-job JCT
vector, the simulated metrics and the event count.  A failed check prints
the result with ``"correct": false`` and exits 1.

The last stdout line is the result object.  The line before it is the
provenance stamp and the raw samples.  Metric names and units come from
``BENCHMARK.json`` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: timed samples per run, whatever ``--seconds`` says
MIN_SAMPLES = 3
#: plain + traced rounds per ``--trace 1`` run, at least
MIN_ROUNDS = 1
#: no new sample starts once it could end past this many seconds
RUN_BUDGET_S = 150.0
#: a single sample that takes longer than this is killed and fails
SAMPLE_TIMEOUT_S = 120.0
#: CPU seconds of ``worker.calibrate`` on the reference host (speed 1.0)
CAL_REF_S = 0.15
#: OpenBLAS starts a spinning helper thread on a 2-core host unless pinned
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class SampleError(RuntimeError):
    pass


def child_env() -> Dict[str, str]:
    """The caller's environment minus the knobs that change the program.

    ``REPRO_*`` switch caches, invariant checking, the sanitizer and the
    C kernels; ``PYTHONDONTWRITEBYTECODE`` would make every sample
    recompile the package.  Thread pools are pinned to one thread and
    string hashing to one seed.
    """
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"
    }
    env.update(PINNED_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_sample(args, mode: str, env, smoke: bool) -> Dict:
    """Spawn one worker process and return its report."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
    ] + (["--smoke"] if smoke else [])
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=SAMPLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise SampleError(f"{mode} sample timed out") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise SampleError(
            f"{mode} sample exited {proc.returncode}: " + " | ".join(tail)
        )
    try:
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise SampleError(f"{mode} sample printed no report") from None
    doc["mode"] = mode
    doc["setup_wall_s"] = doc["t_ready"] - t_spawn
    return doc


def check_sample(doc: Dict, reference: Optional[Dict]) -> List[str]:
    """Correctness problems of one sample.

    ``reference`` is the run's first full-size sample: the verification
    pass under ``--trace 1``, the first timed sample under ``--trace 0``.
    """
    problems = []
    if doc["jobs_completed"] != doc["jobs_submitted"] or doc["jobs_failed"]:
        problems.append(
            f"{doc['mode']}: {doc['jobs_completed']}/{doc['jobs_submitted']}"
            f" jobs completed, {doc['jobs_failed']} failed"
        )
    if reference is not None and doc["digest"] != reference["digest"]:
        problems.append(
            f"{doc['mode']}: simulated outcome differs from the run's "
            "reference sample"
        )
    return problems


def ok(samples: List[Dict]) -> List[Dict]:
    """The samples that ran to a report."""
    return [s for s in samples if not s.get("crashed")]


def median(values) -> float:
    return float(statistics.median(values))


def host_speed(samples: List[Dict]) -> float:
    """How fast this host ran the calibration loop during the run.

    1.0 is the reference host, where ``worker.calibrate`` takes
    ``CAL_REF_S`` CPU seconds.  The median over every calibration of the
    run (two per sample) follows slow changes in host speed and ignores
    sub-second bursts.
    """
    return CAL_REF_S / median(c for s in samples for c in s["cal_s"])


def end_to_end(samples: List[Dict], speed: float) -> Dict[str, float]:
    """Medians of the host metrics; the simulated ones are exact.

    Host time is CPU time of the single-threaded process, scaled to the
    reference host by ``speed``.  On a shared virtual machine the wall
    clock also counts the time other tenants and the hypervisor hold the
    CPU, and the CPU time of identical work moved by 20 % between
    quarter-hours as neighbouring load came and went; the calibration
    loop moved with it.
    """
    outcome = samples[0]["outcome"]
    return {
        "setup_s": median(s["setup_cpu_s"] for s in samples) * speed,
        "run_s": median(s["run_cpu_s"] for s in samples) * speed,
        "peak_rss_mb": median(s["rss_mb"] for s in samples),
        "makespan_s": outcome["makespan_s"],
        "jct_mean_s": outcome["jct_mean_s"],
        "transmission_cost_tbhop": outcome["transmission_cost_tbhop"],
        "task_fabric_gb": outcome["task_fabric_gb"],
    }


def per_layer(traced: List[Dict], plain: List[Dict]) -> Dict[str, float]:
    """The layer split: medians over traced samples, plus overhead."""
    from layers import LAYERS, layer_split, profile_calls

    def med(fn) -> float:
        return median(fn(s) for s in traced)

    plain_wall = median(s["wall_s"] for s in plain)
    plain_cpu = median(s["run_cpu_s"] for s in plain)
    traced_wall = med(lambda s: s["profile"]["wall_s"])
    splits = [layer_split(s["profile"]) for s in traced]
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = median(sp[layer] for sp in splits)
    metrics["other.self_s"] = median(sp["other"] for sp in splits)
    named = median(
        sum(v for k, v in sp.items() if k != "other") for sp in splits
    )
    metrics["trace.named_share"] = named / traced_wall
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - plain_wall

    calls = traced[0]["calls"]
    for name in (
        "network.rate_matrix", "network.start_flow", "network.reroute_flow",
        "scheduler.select_map", "scheduler.select_reduce",
        "cost.reduce_costs", "cost.map_offer_costs",
        "cost.reduce_offer_costs", "tracker.heartbeat",
    ):
        metrics[f"{name}.calls"] = calls.get(name, 0)
    doc = traced[0]["profile"]
    metrics["network.tick.calls"] = profile_calls(doc, "network.tick")
    metrics["background.calls"] = profile_calls(doc, "background")
    reads = calls.get("network.rate_matrix", 0)
    misses = traced[0]["rate_misses"]
    metrics["network.rate_matrix.misses"] = misses
    metrics["network.rate_matrix.hit_ratio"] = (
        1.0 - misses / reads if reads else 0.0
    )
    metrics.update(traced[0]["counters"])
    outcome = traced[0]["outcome"]
    # exact per seed, but too jumpy across seeds to carry a bound
    metrics["outcome.jct_p50_s"] = outcome["jct_p50_s"]
    metrics["outcome.map_node_local"] = outcome["map_node_local"]
    events = outcome["events"]
    metrics["sim.events"] = events
    metrics["sim.us_per_event"] = plain_cpu / events * 1e6
    # cpu_s well above setup + run wall means a stray thread pool
    metrics["process.cpu_s"] = median(s["cpu_s"] for s in plain)
    metrics["process.run_wall_s"] = plain_wall
    metrics["process.setup_wall_s"] = median(
        s["setup_wall_s"] for s in plain
    )
    metrics["process.import_s"] = median(s["import_s"] for s in plain)
    metrics["process.run_cpu_s"] = plain_cpu
    metrics["process.setup_cpu_s"] = median(s["setup_cpu_s"] for s in plain)
    metrics["process.host_speed"] = host_speed(traced + plain)
    return metrics


def git_revision() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    """sha256 over the program's sources, for checkouts without git."""
    import hashlib

    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(samples: List[Dict]) -> Dict:
    versions = next((s["versions"] for s in ok(samples)), {})
    return {
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "openblas": versions.get("openblas"),
        "thread_pinning": PINNED_THREADS,
        "runs": {
            mode: sum(1 for s in ok(samples) if s["mode"] == mode)
            for mode in ("verify", "timed", "traced")
        },
    }


def load_spec() -> Dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def measure(args, env) -> tuple:
    """Run the samples; returns (samples, problems, metrics)."""
    start = time.monotonic()
    samples: List[Dict] = []
    problems: List[str] = []
    reference: List[Dict] = []

    def sample(mode: str, smoke: bool = args.smoke) -> Optional[Dict]:
        try:
            doc = run_sample(args, mode, env, smoke)
        except SampleError as exc:
            problems.append(str(exc))
            samples.append({"mode": mode, "crashed": True})
            return None
        doc["smoke"] = smoke
        found = check_sample(doc, reference[0] if reference else None)
        doc["wrong"] = bool(found)
        problems.extend(found)
        samples.append(doc)
        if not reference and smoke == args.smoke:
            reference.append(doc)
        return doc

    def room_for(n_more: int) -> bool:
        longest = max(
            s["setup_wall_s"] + s["wall_s"] for s in ok(samples)
        )
        return time.monotonic() - start + n_more * longest < RUN_BUDGET_S

    if not args.trace:
        # warm-up on the smoke copy: compiles the kernel, writes .pyc files
        # and checks invariants on the same shape, at a fraction of the cost
        if sample("verify", smoke=True) is None:
            return samples, problems, {}
        t_measure = time.monotonic()
        count = 0
        while count < MIN_SAMPLES or (
            time.monotonic() - t_measure < args.seconds and room_for(1)
        ):
            if sample("timed") is None:
                break
            count += 1
        timed = [s for s in ok(samples) if s["mode"] == "timed"]
        metrics = (
            end_to_end(timed, host_speed(ok(samples)))
            if timed and not problems
            else {}
        )
        return samples, problems, metrics

    # the full-size invariant-checked run is the warm-up and the reference
    if sample("verify") is None:
        return samples, problems, {}
    t_measure = time.monotonic()
    rounds = 0
    while rounds < MIN_ROUNDS or (
        time.monotonic() - t_measure < args.seconds and room_for(2)
    ):
        order = ("timed", "traced") if rounds % 2 == 0 else ("traced", "timed")
        if any(sample(mode) is None for mode in order):
            break
        rounds += 1
    plain = [s for s in ok(samples) if s["mode"] == "timed"]
    traced = [s for s in ok(samples) if s["mode"] == "traced"]
    metrics = per_layer(traced, plain) if traced and not problems else {}
    return samples, problems, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark one workload of the MapReduce simulator."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="scaled-down copy of the workload, for tests",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources under {ROOT / 'src'}; run from "
            "the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            f"{sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    spec = load_spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = child_env()
    samples, problems, values = measure(args, env)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if values and missing:
        problems.append(f"metrics not produced: {missing}")
    attempted = failed = 0
    batch = max([s["jobs_submitted"] for s in ok(samples)], default=1)
    for s in samples:
        # a crashed sample or one with a wrong outcome fails its whole batch
        if s.get("crashed") or s["wrong"]:
            attempted += batch
            failed += batch
        else:
            attempted += s["jobs_submitted"]
            failed += s["jobs_submitted"] - s["jobs_completed"]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
            if m["name"] in values
        },
    }
    for problem in problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    report = {
        "provenance": provenance(samples),
        "samples": [
            {k: v for k, v in s.items() if k not in ("profile", "outcome")}
            for s in samples
        ],
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
