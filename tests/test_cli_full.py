"""CLI coverage for every experiment command, on a tiny injected scenario."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.cluster import ClusterSpec
from repro.experiments import SCENARIOS, Scenario

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"


@pytest.fixture(scope="module", autouse=True)
def tiny_scenario():
    """Register a seconds-scale scenario and expose it to the CLI."""

    def factory():
        return Scenario(
            name="clitest",
            cluster=ClusterSpec(num_racks=2, nodes_per_rack=3),
            scale=0.02,
            background=None,
            seed=17,
        )

    SCENARIOS["clitest"] = factory
    yield
    del SCENARIOS["clitest"]


def run_cli(capsys, *args):
    assert main([*args, "--scenario", "clitest"]) == 0
    return capsys.readouterr().out


class TestFigureCommands:
    def test_fig4(self, capsys):
        out = run_cli(capsys, "fig4")
        assert "Figure 4" in out
        assert "probabilistic" in out and "coupling" in out and "fair" in out

    def test_fig5(self, capsys):
        out = run_cli(capsys, "fig5")
        assert "Figure 5" in out
        assert "vs_coupling" in out

    def test_fig6(self, capsys):
        out = run_cli(capsys, "fig6")
        assert "Figure 6 (map)" in out or "map task time" in out
        assert "reduce task time" in out

    def test_table3(self, capsys):
        out = run_cli(capsys, "table3")
        assert "Table III" in out
        assert "% of local node tasks" in out

    def test_fig7(self, capsys):
        out = run_cli(capsys, "fig7")
        assert "Figure 7" in out
        assert "input (GB)" in out

    def test_util(self, capsys):
        out = run_cli(capsys, "util")
        assert "utilisation" in out
        assert "%" in out

    def test_theory(self, capsys):
        out = run_cli(capsys, "theory")
        assert "P_min" in out
        assert "accept rate" in out


class TestSweepCommands:
    """The long-running sweep commands, on the seconds-scale scenario."""

    def test_pmin(self, capsys):
        out = run_cli(capsys, "pmin")
        assert "P_min sweep" in out
        assert "0.4" in out

    def test_ablations(self, capsys):
        out = run_cli(capsys, "ablations")
        assert "A1" in out and "A4" in out
        assert "network-condition" in out
        assert "oracle" in out

    def test_bandwidth(self, capsys):
        out = run_cli(capsys, "bandwidth")
        assert "bg intensity" in out


class TestStaticAnalysisCommands:
    """`repro check` dispatch and its exit-code contract: 0 clean,
    1 findings, 2 usage-or-parse-error.  Each contract holds with the
    committed baseline and without one (`--no-baseline`)."""

    #: the two ways to run the analyzer, by test id
    RUNS = pytest.mark.parametrize(
        "argv0", [["check", "--no-baseline"], ["check"]],
        ids=["check", "check-baseline"],
    )

    def test_lint_alias_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint", str(SRC)])
        assert exc.value.code == 2

    def test_check_with_baseline_clean_tree_exits_zero(self, capsys):
        assert main(["check", str(SRC)]) == 0

    def test_check_clean_tree_exits_zero(self, capsys):
        assert main(["check", "--no-baseline", str(SRC)]) == 0

    def test_check_with_baseline_findings_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "engine"
        bad.mkdir(parents=True)
        (bad / "mod.py").write_text(
            "import time\nt = time.time()\n", encoding="utf-8"
        )
        assert main(["check", str(tmp_path)]) == 1

    def test_check_findings_exit_one(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(
            "import numpy as np\nrng = np.random.default_rng()\n",
            encoding="utf-8",
        )
        assert main(["check", "--no-baseline", str(tmp_path)]) == 1
        assert "rng-ambient" in capsys.readouterr().out

    @RUNS
    def test_parse_error_exits_two(self, argv0, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("def broken(:\n", encoding="utf-8")
        assert main([*argv0, str(tmp_path)]) == 2

    @RUNS
    def test_usage_error_exits_two(self, argv0, capsys):
        assert main([*argv0, "--select", "bogus", str(SRC)]) == 2

    @RUNS
    def test_format_json_supported(self, argv0, capsys):
        assert main([*argv0, "--format", "json", str(SRC)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"] == "repro-check"

    def test_check_sarif_format_supported(self, capsys):
        assert main(
            ["check", "--no-baseline", "--format", "sarif", str(SRC)]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"


class TestArgumentHandling:
    def test_unknown_scenario_fails_cleanly(self):
        with pytest.raises(ValueError):
            main(["table2", "--scenario", "galaxy"])

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0


class TestObservabilityCommands:
    def test_run_metrics_then_report_dashboard(self, tmp_path, capsys):
        path = str(tmp_path / "metrics.jsonl")
        code = main([
            "run", "--scenario", "clitest", "--jobs", "2",
            "--metrics", path, "--metrics-period", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "jct percentiles" in out
        assert f"metrics appended to {path}" in out

        assert main(["report", path]) == 0
        report = capsys.readouterr().out
        assert "metrics dashboard" in report
        assert "slots_busy{kind=map}" in report
        assert "job_completion_s" in report

    def test_report_still_renders_event_traces(self, tmp_path, capsys):
        path = str(tmp_path / "trace.jsonl")
        assert main([
            "run", "--scenario", "clitest", "--jobs", "2", "--trace", path,
        ]) == 0
        capsys.readouterr()
        assert main(["report", path]) == 0
        out = capsys.readouterr().out
        assert "metrics dashboard" not in out

    def test_run_rejects_bad_metrics_period(self, tmp_path, capsys):
        code = main([
            "run", "--scenario", "clitest",
            "--metrics", str(tmp_path / "m.jsonl"), "--metrics-period", "0",
        ])
        assert code == 2
        assert "--metrics-period" in capsys.readouterr().err

    def test_profile_command(self, monkeypatch, capsys, tmp_path):
        import repro.experiments.perf as perf

        def fake_profile_case(case):
            return {
                "format": "repro-profile", "version": 1,
                "wall_s": 1.0, "attributed_s": 0.9, "coverage": 0.9,
                "components": {
                    "network.refill": {"self_s": 0.9, "calls": 10},
                },
                "case": case.name, "nodes": case.cluster.num_nodes,
                "events": 1234,
            }

        monkeypatch.setattr(perf, "profile_case", fake_profile_case)
        out_path = str(tmp_path / "profile.json")
        assert main(["profile", "--quick", "--out", out_path]) == 0
        out = capsys.readouterr().out
        assert "profiling pna_netcond" in out
        assert "network.refill" in out
        assert "(total attributed)" in out
        doc = json.loads(Path(out_path).read_text())
        assert doc["format"] == "repro-profile"
        assert doc["case"] == "pna_netcond"

    def test_profile_case_and_quick_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--case", "fair", "--quick"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_bench_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--quick"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "bench" in err
