"""Per-module rules of ``repro check`` and its command line.

These rules (determinism, unit and output hygiene, scheduler contracts,
closed reason vocabularies) once ran in a separate ``repro.lint`` suite;
they are now passes of the one analyzer.  Each rule keeps its positive
fixtures — reported at the same ``path:line:col`` — and its negative
fixtures.  The retired ids map as ``unseeded-rng`` -> ``rng-ambient``,
``hidden-seed`` -> ``rng-constant-seed`` and ``unknown-reason`` ->
``vocab-unknown``, and numpy's global RNG is ``rng-ambient`` everywhere.
Fixtures are ``(display_path, scope_path, source)`` triples; the scope path
names the module, which decides whether it is simulation-critical.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.check import RULES, CheckConfig, Finding, check_paths, check_sources
from repro.analysis.check.suppress import suppressions, unknown_waiver_rules
from repro.cli import main as cli_main

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: a module inside a deterministic package — determinism rules apply.
ENGINE = Path("repro/engine/mod.py")
#: a module outside the deterministic packages — they do not.
DRIVER = Path("repro/analysis/mod.py")


def run_lint(source, scope=ENGINE, config=None, extra=()):
    return check_sources([("mod.py", scope, source), *extra], config)


def rules(findings):
    return sorted({f.rule for f in findings})


def at(findings):
    return [(f.rule, f.line, f.col) for f in findings]


def lint_main(argv):
    return cli_main(["check", *argv])


# ----------------------------------------------------------------------
# global-rng (stdlib random) and numpy's global RNG (rng-ambient)
# ----------------------------------------------------------------------
class TestGlobalRng:
    def test_stdlib_random_flagged(self):
        src = "import random\nx = random.random()\n"
        assert at(run_lint(src)) == [("global-rng", 2, 5)]

    def test_numpy_global_state_flagged(self):
        src = "import numpy as np\nnp.random.seed(42)\ny = np.random.rand(3)\n"
        assert at(run_lint(src)) == [("rng-ambient", 2, 1), ("rng-ambient", 3, 5)]

    def test_from_import_alias_flagged(self):
        src = "from numpy.random import shuffle as sh\nsh([1, 2])\n"
        assert at(run_lint(src)) == [("rng-ambient", 2, 1)]

    def test_injected_generator_ok(self):
        src = (
            "import numpy as np\n"
            "def f(rng: np.random.Generator):\n"
            "    return rng.random()\n"
        )
        assert run_lint(src) == []

    def test_outside_deterministic_scope_ok(self):
        src = "import random\nx = random.random()\n"
        assert run_lint(src, scope=DRIVER) == []


# ----------------------------------------------------------------------
# wallclock
# ----------------------------------------------------------------------
class TestWallclock:
    def test_time_time_flagged(self):
        src = "import time\nt = time.time()\n"
        assert at(run_lint(src)) == [("wallclock", 2, 5)]

    def test_datetime_now_flagged(self):
        src = "from datetime import datetime\nd = datetime.now()\n"
        assert at(run_lint(src)) == [("wallclock", 2, 5)]

    def test_perf_counter_from_import_flagged(self):
        src = "from time import perf_counter\nt = perf_counter()\n"
        assert at(run_lint(src)) == [("wallclock", 2, 5)]

    def test_simulated_clock_ok(self):
        src = "def f(sim):\n    return sim.now\n"
        assert run_lint(src) == []

    def test_outside_deterministic_scope_ok(self):
        src = "import time\nt = time.time()\n"
        assert run_lint(src, scope=DRIVER) == []


# ----------------------------------------------------------------------
# generator construction: rng-ambient / rng-constant-seed, everywhere
# ----------------------------------------------------------------------
class TestRngConstruction:
    def test_unseeded_default_rng_flagged_even_outside_scope(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert at(run_lint(src, scope=DRIVER)) == [("rng-ambient", 2, 7)]

    def test_constant_seed_flagged_in_library_code(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert at(run_lint(src)) == [("rng-constant-seed", 2, 7)]

    def test_constant_seed_seedsequence_flagged(self):
        src = "from numpy.random import SeedSequence\nss = SeedSequence(7)\n"
        assert at(run_lint(src)) == [("rng-constant-seed", 2, 6)]

    def test_injected_seed_ok(self):
        src = (
            "import numpy as np\n"
            "def build(seed):\n"
            "    return np.random.default_rng(seed)\n"
        )
        assert run_lint(src) == []

    def test_constant_seed_flagged_outside_library_scope_too(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert at(run_lint(src, scope=DRIVER)) == [("rng-constant-seed", 2, 7)]


# ----------------------------------------------------------------------
# magic-unit
# ----------------------------------------------------------------------
class TestMagicUnit:
    def test_decimal_factor_flagged(self):
        assert at(run_lint("x = b / 1e9\n")) == [("magic-unit", 1, 5)]

    def test_binary_size_arithmetic_flagged(self):
        assert at(run_lint("cap = 128 * 1024 * 1024\n")) == [("magic-unit", 1, 7)]

    def test_power_and_shift_forms_flagged(self):
        fs = run_lint("a = 2 ** 30\nb = 1 << 20\nc = 1024 ** 3\n")
        assert at(fs) == [("magic-unit", line, 5) for line in (1, 2, 3)]

    def test_applies_outside_deterministic_scope_too(self):
        assert at(run_lint("x = 4 * 1e6\n", scope=DRIVER)) == [("magic-unit", 1, 5)]

    def test_named_constants_ok(self):
        src = "from repro.units import GB\nx = 5 * GB\n"
        assert run_lint(src) == []

    def test_unrelated_arithmetic_ok(self):
        assert run_lint("x = 3 * 7\ny = 10 ** 2\nz = 1 << 4\n") == []


# ----------------------------------------------------------------------
# scheduler contracts (whole-project rules)
# ----------------------------------------------------------------------
INIT_SCOPE = Path("repro/schedulers/__init__.py")
SCHED_SCOPE = Path("repro/schedulers/mine.py")

GOOD_SCHEDULER = (
    "class MyScheduler(TaskScheduler):\n"
    '    name = "mine"\n'
    "\n"
    "    def select_map(self, node, job, ctx):\n"
    "        return None\n"
    "\n"
    "    def select_reduce(self, node, job, ctx):\n"
    "        return None\n"
)


def run_contract(sched_source, exported=()):
    init_src = "__all__ = [" + ", ".join(repr(e) for e in exported) + "]\n"
    return check_sources(
        [
            ("schedulers/__init__.py", INIT_SCOPE, init_src),
            ("schedulers/mine.py", SCHED_SCOPE, sched_source),
        ]
    )


class TestSchedulerContracts:
    def test_conforming_scheduler_clean(self):
        assert run_contract(GOOD_SCHEDULER, exported=("MyScheduler",)) == []

    def test_missing_hooks_flagged(self):
        src = 'class MyScheduler(TaskScheduler):\n    name = "mine"\n'
        fs = run_contract(src, exported=("MyScheduler",))
        assert at(fs) == [("scheduler-hooks", 1, 1)] * 2
        assert "select_map" in fs[0].message
        assert "select_reduce" in fs[1].message

    def test_hooks_inherited_through_chain_ok(self):
        src = GOOD_SCHEDULER + (
            "\n\nclass Derived(MyScheduler):\n    name = \"derived\"\n"
        )
        assert run_contract(src, exported=("MyScheduler", "Derived")) == []

    def test_missing_name_flagged(self):
        src = (
            "class MyScheduler(TaskScheduler):\n"
            "    def select_map(self, node, job, ctx):\n"
            "        return None\n"
            "\n"
            "    def select_reduce(self, node, job, ctx):\n"
            "        return None\n"
        )
        fs = run_contract(src, exported=("MyScheduler",))
        assert at(fs) == [("scheduler-name", 1, 1)]

    def test_missing_export_flagged(self):
        fs = run_contract(GOOD_SCHEDULER, exported=())
        assert at(fs) == [("scheduler-export", 1, 1)]
        assert fs[0].path == "schedulers/mine.py"

    def test_private_subclass_needs_no_export(self):
        src = GOOD_SCHEDULER.replace("MyScheduler", "_Hidden")
        assert run_contract(src) == []

    def test_ctx_mutation_flagged(self):
        src = GOOD_SCHEDULER.replace(
            "    def select_map(self, node, job, ctx):\n",
            "    def select_map(self, node, job, ctx):\n        ctx.rng = None\n",
        )
        fs = run_contract(src, exported=("MyScheduler",))
        assert at(fs) == [("ctx-mutation", 5, 9)]
        assert "ctx.rng" in fs[0].message

    def test_ctx_mutation_by_annotation_flagged(self):
        src = GOOD_SCHEDULER.replace(
            "    def select_map(self, node, job, ctx):\n",
            "    def select_map(self, node, job, context: SchedulerContext):\n"
            "        context.tracker = None\n",
        )
        fs = run_contract(src, exported=("MyScheduler",))
        assert at(fs) == [("ctx-mutation", 5, 9)]

    def test_ctx_reads_ok(self):
        src = GOOD_SCHEDULER.replace(
            "    def select_map(self, node, job, ctx):\n",
            "    def select_map(self, node, job, ctx):\n"
            "        free = ctx.free_map_nodes()\n",
        )
        assert run_contract(src, exported=("MyScheduler",)) == []


# ----------------------------------------------------------------------
# no-print
# ----------------------------------------------------------------------
class TestNoPrint:
    def test_print_call_flagged(self):
        assert at(run_lint('print("hello")\n')) == [("no-print", 1, 1)]

    def test_flagged_anywhere_in_the_tree(self):
        src = "def report(x):\n    print(x)\n"
        assert at(run_lint(src, scope=DRIVER)) == [("no-print", 2, 5)]

    def test_excluded_entry_points_may_print(self):
        src = 'print("usage: ...")\n'
        for entry in ("repro/cli.py", "repro/analysis/check/runner.py"):
            assert run_lint(src, scope=Path(entry)) == []

    def test_shadowed_print_is_not_flagged(self):
        src = "def emit(print):\n    print('x')\n"
        assert run_lint(src) == []

    def test_method_named_print_is_not_flagged(self):
        assert run_lint("dev.print('x')\n") == []

    def test_marker_waives(self):
        src = 'print("dbg")  # repro: lint-ok[no-print]\n'
        assert run_lint(src) == []

    def test_pyproject_key_parsed(self, tmp_path):
        """The old ``no-print-exclude`` key is read and rejected, naming
        the file and the key: the allow-list is a constant of the pass."""
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            "[tool.repro.check]\n"
            'no-print-exclude = ["repro/tools/dump.py"]\n',
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="no-print-exclude") as err:
            CheckConfig.load(tmp_path)
        assert str(pyproject) in str(err.value)


# ----------------------------------------------------------------------
# closed decline/failure vocabularies (vocab-unknown), discovered from the
# analyzed trace/events.py rather than imported
# ----------------------------------------------------------------------
EVENTS = (
    "events.py",
    Path("repro/trace/events.py"),
    (SRC / "repro" / "trace" / "events.py").read_text(encoding="utf-8"),
)
#: the fixture uses a few members of the live vocabularies, not all
NO_UNUSED = CheckConfig(ignore=("vocab-unused",))


def run_reasons(source, scope=ENGINE, config=NO_UNUSED):
    return run_lint(source, scope, config, extra=[EVENTS])


class TestUnknownReason:
    def test_vocabulary_literals_pass(self):
        src = (
            'ctx.note_decline("below_pmin")\n'
            'Decline(t=0.0, node="n", kind="map", reason="node_dead", job_id="")\n'
            'job.fail("attempts_exhausted")\n'
            'NodeDown(t=0.0, node="n", reason="expired", killed_attempts=0, '
            "lost_maps=0)\n"
        )
        assert run_reasons(src) == []

    def test_typo_in_decline_reason_flagged(self):
        fs = run_reasons('ctx.note_decline("below_pmim")\n')
        assert at(fs) == [("vocab-unknown", 1, 18)]
        assert "DECLINE_REASONS" in fs[0].message

    def test_event_keyword_reasons_checked(self):
        src = (
            'AttemptFailed(t=0.0, node="n", kind="map", job_id="j", '
            'task_index=0, reason="task_eror", failures=1)\n'
            'JobFail(t=0.0, job_id="j", reason="gave_up")\n'
            'NodeDown(t=0.0, node="n", reason="vanished", killed_attempts=0, '
            "lost_maps=0)\n"
        )
        fs = run_reasons(src)
        assert at(fs) == [
            ("vocab-unknown", 1, 77), ("vocab-unknown", 2, 35),
            ("vocab-unknown", 3, 34),
        ]

    def test_job_fail_string_literal_checked(self):
        fs = run_reasons('job.fail("out_of_retries")\n')
        assert at(fs) == [("vocab-unknown", 1, 10)]
        assert "FAILURE_REASONS" in fs[0].message
        # fail() with a non-string, no or several arguments is another fail()
        assert run_reasons("attempt.fail()\n") == []
        assert run_reasons("thing.fail(5)\n") == []
        assert run_reasons('thing.fail("a", "b")\n') == []

    def test_dynamic_reasons_out_of_scope(self):
        assert run_reasons("ctx.note_decline(reason_var)\n") == []
        assert run_reasons("ctx.note_decline(BELOW_PMIN)\n") == []

    def test_applies_outside_deterministic_scope(self):
        # the vocabulary is global: drivers and exporters must honour it too
        fs = run_reasons('ctx.note_decline("nonsense")\n', scope=DRIVER)
        assert rules(fs) == ["vocab-unknown"]

    def test_waiver_and_ignore(self):
        waived = 'ctx.note_decline("custom")  # repro: lint-ok[vocab-unknown]\n'
        assert run_reasons(waived) == []
        config = CheckConfig(ignore=("vocab-unknown", "vocab-unused"))
        assert run_reasons('ctx.note_decline("custom")\n', config=config) == []


# ----------------------------------------------------------------------
# suppression markers
# ----------------------------------------------------------------------
class TestSuppression:
    def test_marker_waives_matching_rule(self):
        src = "x = b / 1e9  # repro: lint-ok[magic-unit]\n"
        assert run_lint(src) == []

    def test_marker_is_rule_specific(self):
        src = "import time\nt = time.time()  # repro: lint-ok[magic-unit]\n"
        assert rules(run_lint(src)) == ["wallclock"]

    def test_wildcard_marker_waives_everything(self):
        src = "import time\nt = time.time()  # repro: lint-ok[*]\n"
        assert run_lint(src) == []


# ----------------------------------------------------------------------
# the suppression parser, property-tested
# ----------------------------------------------------------------------
RULE_NAME = st.sampled_from(sorted(RULES))
WS = st.text(alphabet=" \t", max_size=3)


class TestSuppressionParser:
    @given(rules=st.lists(RULE_NAME, min_size=1, max_size=5, unique=True),
           before=WS, after=WS, sep=WS)
    def test_multiple_rules_and_whitespace_all_parse(
        self, rules, before, after, sep
    ):
        marker = (
            f"x = 1  #{before}repro:{sep}lint-ok["
            + f" ,{after}".join(rules)
            + "]"
        )
        waived = suppressions(marker + "\n")
        assert waived == {1: frozenset(rules)}

    @given(rules=st.lists(RULE_NAME, min_size=1, max_size=4, unique=True),
           trailer=st.text(
               alphabet=st.characters(
                   blacklist_characters="[]\n\r", max_codepoint=0x7E
               ),
               max_size=20,
           ))
    def test_trailing_comment_text_ignored(self, rules, trailer):
        marker = "x = 1  # repro: lint-ok[" + ",".join(rules) + "] " + trailer
        waived = suppressions(marker + "\n")
        assert waived[1] == frozenset(rules)

    @given(lineno=st.integers(min_value=1, max_value=50),
           rule=RULE_NAME)
    def test_marker_line_number_tracked(self, lineno, rule):
        src = "\n" * (lineno - 1) + f"y = 2  # repro: lint-ok[{rule}]\n"
        assert suppressions(src) == {lineno: frozenset([rule])}

    @given(junk=st.text(
        alphabet=st.characters(blacklist_characters="[]\n\r#"),
        max_size=30,
    ))
    def test_lines_without_marker_yield_nothing(self, junk):
        assert suppressions(junk + "\n") == {}

    def test_empty_bracket_is_not_a_waiver(self):
        assert suppressions("x = 1  # repro: lint-ok[]\n") == {}
        assert suppressions("x = 1  # repro: lint-ok[ , ]\n") == {}

    @given(known=st.lists(RULE_NAME, max_size=3, unique=True),
           unknown=st.text(
               alphabet="abcdefghijklmnopqrstuvwxyz-",
               min_size=1, max_size=12,
           ).filter(lambda s: s not in RULES))
    def test_unknown_rule_is_reported_known_are_not(self, known, unknown):
        waived = {1: frozenset(known + [unknown])}
        assert unknown_waiver_rules(waived, RULES) == [(1, unknown)]

    def test_unknown_rule_warning_via_lint(self):
        fs = run_lint("x = 1  # repro: lint-ok[magic-unti]\n")
        assert at(fs) == [("unknown-waiver", 1, 1)]
        assert "magic-unti" in fs[0].message

    def test_check_family_waivers_not_flagged_by_lint(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(
            "x = 1  # repro: lint-ok[cache-missing-bump,rng-ambient]\n",
            encoding="utf-8",
        )
        assert lint_main(["--no-baseline", str(tmp_path)]) == 0

    def test_marker_mentioned_in_docstring_not_validated(self):
        src = '"""Use # repro: lint-ok[whatever-rule] to waive."""\n'
        assert run_lint(src) == []


def test_syntax_error_reported_as_parse_error():
    fs = run_lint("def broken(:\n")
    assert [f.rule for f in fs] == ["parse-error"]


def test_violation_format_and_ordering():
    a = Finding(path="a.py", line=3, col=7, rule="magic-unit", message="m")
    b = Finding(path="a.py", line=9, col=1, rule="wallclock", message="w")
    assert a.format() == "a.py:3:7: [magic-unit] m"
    assert sorted([b, a]) == [a, b]


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
class TestConfig:
    def test_select_restricts_rules(self):
        config = CheckConfig(select=("magic-unit",))
        src = "import time\nt = time.time()\nx = b / 1e9\n"
        assert rules(run_lint(src, config=config)) == ["magic-unit"]

    def test_ignore_drops_rule(self):
        config = CheckConfig(ignore=("magic-unit",))
        assert run_lint("x = b / 1e9\n", config=config) == []

    def test_pyproject_table_parsed(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro.check]\nbaseline = "BASE.json"\n', encoding="utf-8"
        )
        config = CheckConfig.load(tmp_path)
        assert config.baseline_path() == tmp_path / "BASE.json"
        assert config.source == str(tmp_path / "pyproject.toml")

    def test_repo_pyproject_defines_the_table(self):
        config = CheckConfig.load(SRC)
        assert config.source.endswith("pyproject.toml")
        assert config.baseline_path() == REPO / "CHECK_BASELINE.json"
        assert config.root == REPO


# ----------------------------------------------------------------------
# module identity comes from the package layout, so scope and the
# repro/units.py exemption do not depend on the invocation path
# ----------------------------------------------------------------------
class TestConfigPathSymmetry:
    @pytest.fixture
    def project(self, tmp_path):
        engine = tmp_path / "src" / "repro" / "engine"
        engine.mkdir(parents=True)
        for pkg in (engine.parent, engine):
            (pkg / "__init__.py").write_text("", encoding="utf-8")
        (engine / "clock.py").write_text(
            "import time\nt = time.time()\n", encoding="utf-8"
        )
        (engine.parent / "units.py").write_text(
            "GB = 1 << 30\n", encoding="utf-8"
        )
        return tmp_path / "src"

    def test_deterministic_scope_same_from_any_invocation_dir(self, project):
        for target in (
            project,
            project / "repro" / "engine",
            project / "repro" / "engine" / "clock.py",
        ):
            assert at(check_paths([target], CheckConfig())) == [("wallclock", 2, 5)]

    def test_root_relative_exclude_same_from_any_invocation_dir(self, project):
        for target in (project, project / "repro", project / "repro" / "units.py"):
            assert not any(
                "units.py" in f.path
                for f in check_paths([target], CheckConfig())
            )

    def test_scope_falls_back_outside_the_root(self, tmp_path):
        # outside any package, the path below the invocation root names
        # the module
        bad = tmp_path / "repro" / "engine"
        bad.mkdir(parents=True)
        (bad / "mod.py").write_text("import time\nt = time.time()\n", encoding="utf-8")
        assert rules(check_paths([tmp_path], CheckConfig())) == ["wallclock"]


# ----------------------------------------------------------------------
# the `repro check` command line over whole trees
# ----------------------------------------------------------------------
class TestWholeTree:
    @pytest.fixture
    def bad_tree(self, tmp_path):
        bad = tmp_path / "repro" / "engine"
        bad.mkdir(parents=True)
        (bad / "mod.py").write_text(
            "import time\nt = time.time()\n", encoding="utf-8"
        )
        return tmp_path

    def test_src_tree_is_clean(self, capsys):
        assert lint_main([str(SRC)]) == 0

    def test_cli_exit_zero_on_clean_tree(self, capsys):
        assert lint_main(["--no-baseline", str(SRC)]) == 0

    def test_cli_exit_one_on_violation(self, bad_tree, capsys):
        assert lint_main(["--no-baseline", str(bad_tree)]) == 1
        assert "wallclock" in capsys.readouterr().out

    def test_cli_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule in out

    def test_cli_rejects_unknown_rule(self, capsys):
        assert lint_main(["--select", "unseeded-rng", str(SRC)]) == 2

    def test_cli_missing_path(self, capsys):
        assert lint_main([str(SRC / "no-such-dir")]) == 2

    def test_cli_exit_two_on_parse_error(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("def broken(:\n", encoding="utf-8")
        assert lint_main(["--no-baseline", str(tmp_path)]) == 2
        assert "parse-error" in capsys.readouterr().out

    def test_cli_json_format(self, bad_tree, capsys):
        assert lint_main(["--no-baseline", "--format", "json", str(bad_tree)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"] == "repro-check"
        assert doc["summary"] == {"total": 1, "by_rule": {"wallclock": 1}}
        assert doc["findings"][0]["rule"] == "wallclock"

    def test_cli_json_format_clean_tree(self, capsys):
        assert lint_main(["--format", "json", str(SRC)]) == 0
        assert json.loads(capsys.readouterr().out)["findings"] == []

    def test_python_dash_m_entry_point(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "check", str(SRC)],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
