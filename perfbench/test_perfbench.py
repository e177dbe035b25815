"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest perfbench -q``.
The smoke runs go through ``run.py --smoke``, i.e. the same spawn /
verify / measure / check path as a real run, on scaled-down copies of
each workload shape.
"""

from __future__ import annotations

import functools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@functools.lru_cache(maxsize=None)
def smoke(name: str, trace: str):
    """(returncode, stdout, stderr) of one smoke-sized benchmark run."""
    proc = run_bench(
        "--workload", name, "--seed", "3", "--seconds", "0",
        "--trace", trace, "--smoke",
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_spec_keys_and_workloads_agree():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert SPEC["paths"] == ["perfbench"]


def test_metric_names_units_and_directions():
    names = [
        m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]
    ] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(m["name"]), m
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25, m
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workloads_build_deterministically(name):
    build = WORKLOADS[name].build

    def shape(sim):
        return (
            [n.name for n in sim.cluster.nodes],
            [(s.job_id, s.app, s.input_size, s.num_maps, s.num_reduces,
              s.submit_time, s.seed) for s in sim.specs],
            sim.seed,
        )

    assert shape(build(7, False, False)) == shape(build(7, False, False))
    # the job batch is seed-independent; only the simulation seed moves
    assert shape(build(7, False, False))[1] == shape(build(8, False, False))[1]


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_completes_and_reports_every_metric(name, trace):
    rc, stdout, stderr = smoke(name, trace)
    assert rc == 0, stderr
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    report = json.loads(stdout.strip().splitlines()[-2])
    stamp = report["provenance"]
    for key in ("git_revision", "cpu_model", "nproc", "python", "numpy",
                "openblas", "thread_pinning", "runs"):
        assert stamp[key], key
    assert stamp["runs"]["verify"] == 1


def test_layer_contrast_on_smoke_copies():
    """Rate matrix only under PNA netcond; faults and hdfs only on Clos."""
    split = {}
    for name in WORKLOADS:
        rc, stdout, stderr = smoke(name, "1")
        assert rc == 0, stderr
        metrics = json.loads(stdout.strip().splitlines()[-1])["metrics"]
        split[name] = {k: v["value"] for k, v in metrics.items()}
    assert split["pna_400"]["network.rate_matrix.calls"] > 0
    assert split["fair_400"]["network.rate_matrix.calls"] == 0
    assert split["fair_400"]["cost.reduce_costs.calls"] == 0
    for name in ("pna_400", "fair_400"):
        assert split[name]["routing.convergences"] == 0
        assert split[name]["faults.self_s"] == 0
        assert split[name]["hdfs.replication.self_s"] == 0
    assert split["faults_clos"]["routing.convergences"] > 0
    assert split["faults_clos"]["faults.self_s"] > 0


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = run_bench(
        "--workload", "fair_400", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_unknown_workload_is_refused():
    proc = run_bench("--workload", "nope", "--seed", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
