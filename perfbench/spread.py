"""Run-to-run spread of the benchmark, checked against its own bounds.

    python3 perfbench/spread.py --seeds 10 [--workloads a,b] [--trace 0]

Runs ``perfbench/run.py`` once per (seed, workload), one process at a
time, alternating the workload order between seed rounds so slow drift
on the host does not always land on the same workload.  For every
end-to-end metric it prints the median and the quartile spread
``(Q3 - Q1) / median`` over the seeds, as ``statistics.quantiles(n=4)``
gives the quartiles, next to the metric's bound.  A spread above a third
of the bound is flagged ``NOISY``.  ``setup_s`` is exempt from the flag;
its median is what later changes are held to.  Exits 1 if any run fails
or any metric is flagged.  ``--out`` also writes every result as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed}: exit {proc.returncode}: "
            + proc.stderr.strip()[-500:]
        )
    return json.loads(lines[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in spec["workloads"])
    )
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",")
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    results = {w: [] for w in workloads}
    for i, seed in enumerate(seeds):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            doc = run_once(w, seed, args.seconds, args.trace)
            if not doc["correct"] or doc["failed"]:
                print(f"{w} seed {seed}: incorrect run", file=sys.stderr)
                return 1
            results[w].append(doc["metrics"])
            print(f"{w} seed {seed}: done", file=sys.stderr, flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1))
    if args.trace:
        return 0

    noisy = False
    print(f"{'workload':<12} {'metric':<24} {'median':>12} "
          f"{'spread':>8} {'bound':>6}")
    for w in workloads:
        for m in spec["end_to_end"]:
            values = [r[m["name"]]["value"] for r in results[w]]
            s = spread(values) if len(values) >= 2 else 0.0
            flag = ""
            if m["name"] != "setup_s" and s > m["bound"] / 3:
                flag = "  NOISY"
                noisy = True
            print(f"{w:<12} {m['name']:<24} {statistics.median(values):>12.5g}"
                  f" {s:>8.2%} {m['bound']:>6.2f}{flag}")
    return 1 if noisy else 0


if __name__ == "__main__":
    sys.exit(main())
