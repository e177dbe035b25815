"""Tests for the ``repro.analysis.check`` analyzer.

Each whole-program pass gets seeded-defect fixtures (the rule fires on the
hazard it documents, with a stable rule id) and clean counterparts, plus
configuration, baseline-ratchet, report-format and CLI coverage.  The
per-module passes are covered in ``test_lint.py``.  Fixtures go through
the in-memory ``check_sources`` entry point as ``(display_path,
scope_path, source)`` triples; the scope path names the module.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.check import (
    CheckConfig,
    Finding,
    RULES,
    apply_baseline,
    check_paths,
    check_sources,
    fingerprint_counts,
    load_baseline,
    write_baseline,
)
from repro.analysis.check.runner import main as check_main

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"


def run_check(source, name="mod.py", config=None):
    return check_sources([(name, Path(name), source)], config)


def run_check_many(named_sources, config=None):
    return check_sources(
        [(name, Path(name), src) for name, src in named_sources], config
    )


def rules(findings):
    return sorted({f.rule for f in findings})


def at(findings):
    return [(f.rule, f.line, f.col) for f in findings]


# ----------------------------------------------------------------------
# the four seeded-defect fixtures of the acceptance checklist: each is
# exactly one finding with a stable rule id.
# ----------------------------------------------------------------------
MISSED_BUMP = (
    "class Net:\n"
    "    def __init__(self):\n"
    "        self.epoch = 0\n"
    "        self._link_flows = {}\n"
    "\n"
    '    @cached_on("epoch", inputs=("Net._link_flows",),\n'
    '               reference="_rates_reference")\n'
    "    def rates(self):\n"
    "        return dict(self._link_flows)\n"
    "\n"
    "    def _rates_reference(self):\n"
    "        return dict(self._link_flows)\n"
    "\n"
    "    def good(self, k, v):\n"
    "        self._link_flows[k] = v\n"
    "        self.epoch += 1\n"
    "\n"
    "    def bad(self, k, v):\n"
    "        self._link_flows[k] = v\n"
)

AMBIENT_RNG = (
    "import numpy as np\n"
    "\n"
    "def make_generator():\n"
    "    return np.random.default_rng()\n"
)

DUPLICATE_STREAM = (
    "RNG_STREAMS = {\n"
    '    0: "placement",\n'
    '    1: "scheduler",\n'
    '    1: "faults",\n'
    "}\n"
)

UNUSED_REASON = (
    'GOOD = "good_reason"\n'
    'STALE = "stale_reason"\n'
    "DECLINE_REASONS = (GOOD, STALE)\n"
    "\n"
    "def decline(ctx):\n"
    '    ctx.note_decline("good_reason")\n'
)


class TestSeededDefects:
    def test_missed_epoch_bump_exactly_one_finding(self):
        fs = run_check(MISSED_BUMP)
        assert [f.rule for f in fs] == ["cache-missing-bump"]
        assert "Net._link_flows" in fs[0].message
        assert "Net.bad" in fs[0].message
        # the finding anchors on the unguarded write, not the declaration
        assert fs[0].line == MISSED_BUMP.splitlines().index(
            "        self._link_flows[k] = v"
        ) + 1 or fs[0].line > 15

    def test_ambient_default_rng_exactly_one_finding(self):
        fs = run_check(AMBIENT_RNG)
        assert [f.rule for f in fs] == ["rng-ambient"]
        assert "default_rng()" in fs[0].message

    def test_duplicate_stream_index_exactly_one_finding(self):
        fs = run_check(DUPLICATE_STREAM)
        assert [f.rule for f in fs] == ["rng-duplicate-stream"]
        assert "declared twice" in fs[0].message

    def test_unused_decline_reason_exactly_one_finding(self):
        fs = run_check(UNUSED_REASON)
        assert [f.rule for f in fs] == ["vocab-unused"]
        assert "STALE" in fs[0].message
        assert fs[0].line == 2  # the constant's definition line


# ----------------------------------------------------------------------
# cache-coherence
# ----------------------------------------------------------------------
UNWATCHED_INPUT = (
    '_WATCHED = frozenset({"alive"})\n'
    "\n"
    "class Node:\n"
    "    def __init__(self):\n"
    "        self.alive = True\n"
    "        self.load = 0\n"
    "\n"
    "    def __setattr__(self, name, value):\n"
    "        if name in _WATCHED:\n"
    "            pass\n"
    "        object.__setattr__(self, name, value)\n"
    "\n"
    "    def overload(self):\n"
    "        self.load = 1\n"
    "\n"
    "class View:\n"
    '    @cached_on("epoch", inputs=("Node.load",),\n'
    '               watcher="Node.__setattr__")\n'
    "    def free(self):\n"
    "        return 0\n"
)


class TestCoherence:
    def test_bump_on_every_path_passes(self):
        src = MISSED_BUMP.replace(
            "    def bad(self, k, v):\n        self._link_flows[k] = v\n",
            "",
        )
        assert run_check(src) == []

    def test_conditional_early_return_before_bump_flagged(self):
        src = MISSED_BUMP.replace(
            "    def bad(self, k, v):\n        self._link_flows[k] = v\n",
            "    def bad(self, k, v):\n"
            "        self._link_flows[k] = v\n"
            "        if not v:\n"
            "            return\n"
            "        self.epoch += 1\n",
        )
        fs = run_check(src)
        assert [f.rule for f in fs] == ["cache-missing-bump"]

    def test_bump_in_both_branches_passes(self):
        src = MISSED_BUMP.replace(
            "    def bad(self, k, v):\n        self._link_flows[k] = v\n",
            "    def bad(self, k, v):\n"
            "        self._link_flows[k] = v\n"
            "        if v:\n"
            "            self.epoch += 1\n"
            "        else:\n"
            "            self.epoch = self.epoch + 1\n",
        )
        assert run_check(src) == []

    def test_bump_in_one_branch_only_flagged(self):
        src = MISSED_BUMP.replace(
            "    def bad(self, k, v):\n        self._link_flows[k] = v\n",
            "    def bad(self, k, v):\n"
            "        self._link_flows[k] = v\n"
            "        if v:\n"
            "            self.epoch += 1\n",
        )
        assert rules(run_check(src)) == ["cache-missing-bump"]

    def test_bump_inside_loop_is_not_a_guarantee(self):
        src = MISSED_BUMP.replace(
            "    def bad(self, k, v):\n        self._link_flows[k] = v\n",
            "    def bad(self, k, v):\n"
            "        self._link_flows[k] = v\n"
            "        for _ in v:\n"
            "            self.epoch += 1\n",
        )
        assert rules(run_check(src)) == ["cache-missing-bump"]

    def test_invalidator_call_counts_as_guarantee(self):
        src = (
            "class Box:\n"
            "    def __init__(self):\n"
            "        self._items = []\n"
            "\n"
            '    @cached_on(invalidator="_invalidate",\n'
            '               inputs=("Box._items",))\n'
            "    def view(self):\n"
            "        return tuple(self._items)\n"
            "\n"
            "    def _invalidate(self):\n"
            "        pass\n"
            "\n"
            "    def add(self, item):\n"
            "        self._items.append(item)\n"
            "        self._invalidate()\n"
        )
        assert run_check(src) == []

    def test_transitive_helper_bump_counts(self):
        src = MISSED_BUMP.replace(
            "    def bad(self, k, v):\n        self._link_flows[k] = v\n",
            "    def bad(self, k, v):\n"
            "        self._link_flows[k] = v\n"
            "        self._finish()\n"
            "\n"
            "    def _finish(self):\n"
            "        self.epoch += 1\n",
        )
        assert run_check(src) == []

    def test_mutator_method_call_is_a_write(self):
        src = MISSED_BUMP.replace(
            "    def bad(self, k, v):\n        self._link_flows[k] = v\n",
            "    def wipe(self):\n        self._link_flows.clear()\n",
        )
        fs = run_check(src)
        assert [f.rule for f in fs] == ["cache-missing-bump"]
        assert "Net.wipe" in fs[0].message

    def test_cache_deps_maintainers_enforced(self):
        src = (
            "CACHE_DEPS = {\n"
            '    "Mat._rows": {\n'
            '        "inputs": ("Mat._rows",),\n'
            '        "maintainers": ("grow",),\n'
            "    },\n"
            "}\n"
            "\n"
            "class Mat:\n"
            "    def __init__(self):\n"
            "        self._rows = []\n"
            "\n"
            "    def grow(self):\n"
            "        self._rows.append(0)\n"
            "\n"
            "    def rogue(self):\n"
            "        self._rows.append(1)\n"
        )
        fs = run_check(src)
        assert [f.rule for f in fs] == ["cache-missing-bump"]
        assert "Mat.rogue" in fs[0].message
        assert "maintained by grow" in fs[0].message

    def test_watched_input_needs_no_bump(self):
        src = (
            '_WATCHED = frozenset({"alive"})\n'
            "\n"
            "class Node:\n"
            "    def __init__(self):\n"
            "        self.alive = True\n"
            "\n"
            "    def __setattr__(self, name, value):\n"
            "        if name in _WATCHED:\n"
            "            pass\n"
            "        object.__setattr__(self, name, value)\n"
            "\n"
            "class View:\n"
            '    @cached_on("epoch", inputs=("Node.alive",),\n'
            '               watcher="Node.__setattr__")\n'
            "    def free(self):\n"
            "        return 0\n"
            "\n"
            "def kill(node):\n"
            "    node.alive = False\n"
        )
        assert run_check(src) == []

    def test_unwatched_mutated_input_flagged(self):
        fs = run_check(UNWATCHED_INPUT)
        assert rules(fs) == ["cache-unwatched-input"]
        assert "Node.load" in fs[0].message

    def test_unresolved_reference_flagged(self):
        src = (
            "class C:\n"
            '    @cached_on("v", reference="_nope")\n'
            "    def m(self):\n"
            "        return 0\n"
        )
        fs = run_check(src)
        assert rules(fs) == ["cache-decl-unresolved"]
        assert "_nope" in fs[0].message

    def test_unresolved_input_class_flagged(self):
        src = (
            "class C:\n"
            '    @cached_on("v", inputs=("Ghost.attr",))\n'
            "    def m(self):\n"
            "        return 0\n"
        )
        fs = run_check(src)
        assert rules(fs) == ["cache-decl-unresolved"]
        assert "Ghost" in fs[0].message

    def test_init_writes_are_exempt(self):
        src = MISSED_BUMP.replace(
            "    def bad(self, k, v):\n        self._link_flows[k] = v\n", ""
        ).replace(
            "        self._link_flows = {}\n",
            "        self._link_flows = {}\n        self._link_flows[0] = 1\n",
        )
        assert run_check(src) == []

    def test_live_declarations_resolve(self):
        """Every @cached_on / CACHE_DEPS declaration in src resolves."""
        from repro.analysis.check.coherence import collect_declarations
        from repro.analysis.check.project import Project

        project = Project.from_paths([SRC])
        decls = collect_declarations(project)
        assert len(decls) >= 10  # network, cluster, job, cost + CACHE_DEPS
        qualnames = {d.qualname for d in decls}
        assert "Cluster.inverse_rate_matrix" in qualnames
        assert "FlowNetwork._refill" in qualnames
        assert "Job.pending_maps" in qualnames


# ----------------------------------------------------------------------
# RNG provenance
# ----------------------------------------------------------------------
class TestProvenance:
    def test_injected_seed_passes(self):
        src = (
            "import numpy as np\n"
            "def build(seed):\n"
            "    return np.random.default_rng(seed)\n"
        )
        assert run_check(src) == []

    def test_spawned_substream_passes(self):
        src = (
            "import numpy as np\n"
            'RNG_STREAMS = {0: "a", 1: "b"}\n'
            "def build(seed):\n"
            "    ss = np.random.SeedSequence(seed)\n"
            "    a_ss, b_ss = ss.spawn(len(RNG_STREAMS))\n"
            "    return np.random.default_rng(a_ss)\n"
        )
        assert run_check(src) == []

    def test_constant_seed_flagged(self):
        fs = run_check(
            "import numpy as np\nrng = np.random.default_rng(42)\n"
        )
        assert rules(fs) == ["rng-constant-seed"]

    def test_unprovenanced_seed_flagged(self):
        src = (
            "import numpy as np\n"
            "def build(counter):\n"
            "    return np.random.default_rng(counter)\n"
        )
        fs = run_check(src)
        assert rules(fs) == ["rng-unprovenanced"]

    def test_global_singleton_draw_flagged(self):
        fs = run_check("import numpy as np\nx = np.random.rand(3)\n")
        assert rules(fs) == ["rng-ambient"]

    def test_ambient_seedsequence_flagged(self):
        fs = run_check(
            "from numpy.random import SeedSequence\nss = SeedSequence()\n"
        )
        assert rules(fs) == ["rng-ambient"]

    def test_spawn_count_mismatch_flagged(self):
        src = (
            "import numpy as np\n"
            "def fan_out(seed):\n"
            "    ss = np.random.SeedSequence(seed)\n"
            "    a, b, c = ss.spawn(2)\n"
            "    return a\n"
        )
        fs = run_check(src)
        assert rules(fs) == ["rng-stream-count"]
        assert "2" in fs[0].message and "3" in fs[0].message

    def test_spawn_len_registry_cross_checked(self):
        src = (
            "import numpy as np\n"
            'RNG_STREAMS = {0: "a", 1: "b"}\n'
            "def fan_out(seed):\n"
            "    ss = np.random.SeedSequence(seed)\n"
            "    a, b, c = ss.spawn(len(RNG_STREAMS))\n"
            "    return a\n"
        )
        assert rules(run_check(src)) == ["rng-stream-count"]

    def test_formerly_duplicated_rng_defects_reported_once(self):
        src = (
            "import numpy as np\n"
            "from numpy.random import SeedSequence\n"
            "a = np.random.default_rng()\n"
            "b = np.random.default_rng(42)\n"
            "c = SeedSequence(7)\n"
            "d = np.random.rand()\n"
        )
        fs = run_check(src, name="repro/engine/mod.py")
        assert at(fs) == [
            ("rng-ambient", 3, 5), ("rng-constant-seed", 4, 5),
            ("rng-constant-seed", 5, 5), ("rng-ambient", 6, 5),
        ]

    def test_duplicate_purpose_flagged(self):
        fs = run_check('RNG_STREAMS = {0: "faults", 1: "faults"}\n')
        assert rules(fs) == ["rng-duplicate-stream"]
        assert "two indices" in fs[0].message


# ----------------------------------------------------------------------
# closed vocabularies
# ----------------------------------------------------------------------
VOCAB_DEFS = (
    'BELOW = "below_pmin"\n'
    'DEAD = "node_dead"\n'
    "DECLINE_REASONS = (BELOW, DEAD)\n"
)


class TestVocab:
    def test_unknown_member_at_call_site_flagged(self):
        src = VOCAB_DEFS + (
            "def f(ctx):\n"
            '    ctx.note_decline("below_pmin")\n'
            '    ctx.note_decline("node_dead")\n'
            '    ctx.note_decline("below_pmim")\n'
        )
        fs = run_check(src)
        assert rules(fs) == ["vocab-unknown"]
        assert "below_pmim" in fs[0].message

    def test_all_members_used_is_clean(self):
        src = VOCAB_DEFS + (
            "def f(ctx):\n"
            '    ctx.note_decline("below_pmin")\n'
            '    ctx.note_decline("node_dead")\n'
        )
        assert run_check(src) == []

    def test_job_fail_is_a_failure_reason_site(self):
        events = (
            'DECLINE_REASONS = ("below_pmin",)\n'
            'FAILURE_REASONS = ("attempts_exhausted",)\n'
        )
        src = (
            "def f(job, ctx):\n"
            '    job.fail("bogus_reason")\n'
            '    ctx.note_decline("bogus_decline")\n'
        )
        fs = run_check_many(
            [("repro/trace/events.py", events), ("mod.py", src)],
            CheckConfig(select=("vocab-unknown",)),
        )
        assert [(f.path, f.line) for f in fs] == [("mod.py", 2), ("mod.py", 3)]
        assert "FAILURE_REASONS" in fs[0].message

    def test_constant_name_load_marks_used(self):
        src = VOCAB_DEFS + (
            "def f(ctx):\n"
            "    ctx.note_decline(BELOW)\n"
            "    ctx.note_decline(DEAD)\n"
        )
        assert run_check(src) == []

    def test_cross_module_import_marks_used(self):
        fs = run_check_many(
            [
                ("reasons.py", VOCAB_DEFS),
                (
                    "use.py",
                    "from reasons import BELOW, DEAD\n"
                    "def f(ctx):\n"
                    "    ctx.note_decline(BELOW)\n"
                    "    ctx.note_decline(DEAD)\n",
                ),
            ]
        )
        assert fs == []

    def test_event_type_vocabulary_both_directions(self):
        src = (
            "class TraceEvent:\n"
            '    type = "event"\n'
            "\n"
            "class MapDone(TraceEvent):\n"
            '    type = "map_done"\n'
            "\n"
            "class Stale(TraceEvent):\n"
            '    type = "stale_thing"\n'
            "\n"
            "def f(events):\n"
            "    done = [e for e in events if e.type == \"map_done\"]\n"
            "    ghosts = [e for e in events if e.type == \"ghost\"]\n"
            "    return done, ghosts\n"
        )
        fs = run_check(src)
        assert rules(fs) == ["vocab-unknown", "vocab-unused"]
        unknown = [f for f in fs if f.rule == "vocab-unknown"]
        unused = [f for f in fs if f.rule == "vocab-unused"]
        assert "ghost" in unknown[0].message
        assert "Stale" in unused[0].message

    def test_event_instantiation_marks_tag_used(self):
        src = (
            "class TraceEvent:\n"
            '    type = "event"\n'
            "\n"
            "class MapDone(TraceEvent):\n"
            '    type = "map_done"\n'
            "\n"
            "def f():\n"
            "    return MapDone()\n"
        )
        assert run_check(src) == []

    def test_journal_kind_comparison_marks_used_but_never_unknown(self):
        # .kind is also the map/reduce discriminator on task records, so an
        # unknown literal in a .kind comparison must not be reported
        src = (
            'MAP_DONE = "map_done"\n'
            "JOURNAL_KINDS = (MAP_DONE,)\n"
            "def replay(entries):\n"
            '    a = [e for e in entries if e.kind == "map_done"]\n'
            '    b = [e for e in entries if e.kind == "map"]\n'
            "    return a, b\n"
        )
        assert run_check(src) == []

    def test_live_vocabularies_discovered(self):
        from repro.analysis.check.project import Project
        from repro.analysis.check.vocab import _collect_vocabularies

        project = Project.from_paths([SRC])
        vocabs = _collect_vocabularies(project)
        assert "DECLINE_REASONS" in vocabs
        assert "JOURNAL_KINDS" in vocabs
        assert "EVENT_TYPES" in vocabs
        assert len(vocabs["EVENT_TYPES"].members) >= 15


# ----------------------------------------------------------------------
# import layers
# ----------------------------------------------------------------------
UPWARD_IMPORT = (
    '"""A cluster module reaching up into the engine."""\n'
    "from repro.engine.simulation import Simulation\n"
)


class TestImportLayers:
    def test_upward_import_flagged_with_path_and_line(self):
        fs = run_check(UPWARD_IMPORT, name="repro/cluster/bad.py")
        assert [f.rule for f in fs] == ["import-layer"]
        assert (fs[0].path, fs[0].line) == ("repro/cluster/bad.py", 2)
        assert "repro.engine.simulation (engine layer)" in fs[0].message

    def test_relative_upward_import_flagged(self):
        fs = run_check_many([
            ("repro/cluster/bad.py", "x = 1\nfrom ..engine import simulation\n"),
            ("repro/engine/simulation.py", "y = 2\n"),
        ])
        assert [(f.rule, f.path, f.line) for f in fs] == [
            ("import-layer", "repro/cluster/bad.py", 2)
        ]
        assert "imports repro.engine.simulation" in fs[0].message

    def test_package_init_reexport_flagged(self):
        # the shape of the inversion that once put scipy on every run's
        # import path: a package __init__ eagerly re-exporting a renderer
        fs = run_check_many([
            ("repro/trace/__init__.py", "from .render import trace_summary\n"),
            ("repro/trace/render.py", "def trace_summary(events):\n    pass\n"),
        ])
        assert [(f.rule, f.path) for f in fs] == [
            ("import-layer", "repro/trace/__init__.py")
        ]
        assert "imports repro.trace.render (export layer)" in fs[0].message

    def test_downward_and_same_layer_imports_pass(self):
        src = (
            "from repro.cluster.network import FlowNetwork\n"
            "from repro.trace.events import Assign\n"
            "from repro.units import MB\n"
            "import numpy as np\n"
        )
        assert run_check(src, name="repro/cluster/ok.py") == []

    def test_function_local_import_passes(self):
        src = (
            "def build():\n"
            "    from repro.engine.simulation import Simulation\n"
            "    return Simulation\n"
        )
        assert run_check(src, name="repro/cluster/ok.py") == []

    def test_type_checking_import_passes(self):
        src = (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.engine.simulation import Simulation\n"
        )
        assert run_check(src, name="repro/cluster/ok.py") == []

    def test_conditional_and_try_imports_are_module_level(self):
        src = (
            "try:\n"
            "    from repro.engine import Simulation\n"
            "except ImportError:\n"
            "    Simulation = None\n"
        )
        fs = run_check(src, name="repro/cluster/bad.py")
        assert [(f.rule, f.line) for f in fs] == [("import-layer", 2)]

    def test_waiver_accepted(self):
        src = UPWARD_IMPORT.replace(
            "import Simulation\n",
            "import Simulation  # repro: lint-ok[import-layer]\n",
        )
        assert run_check(src, name="repro/cluster/bad.py") == []

    def test_undeclared_module_flagged(self):
        fs = run_check("x = 1\n", name="repro/newpkg/mod.py")
        assert [f.rule for f in fs] == ["import-layer"]
        assert "no declared import layer" in fs[0].message

    def test_modules_outside_the_package_are_skipped(self):
        assert run_check(UPWARD_IMPORT, name="tools/script.py") == []

    def test_sub_path_invocations_agree(self, tmp_path):
        engine = tmp_path / "src" / "repro" / "engine"
        engine.mkdir(parents=True)
        for pkg in (engine.parent, engine):
            (pkg / "__init__.py").write_text("", encoding="utf-8")
        task = engine / "task.py"
        task.write_text("import repro.experiments\n", encoding="utf-8")
        for target in (tmp_path / "src", engine, task):
            fs = check_paths([target], CheckConfig())
            assert [(f.rule, f.path, f.line) for f in fs] == [
                ("import-layer", str(task), 1)
            ]
            assert "repro.engine.task (engine layer)" in fs[0].message

    def test_layer_lookup_longest_entry_wins(self):
        from repro.analysis.check.layers import IMPORT_LAYERS, layer_of

        def name(module):
            return IMPORT_LAYERS[layer_of(module)][0]

        assert name("repro.trace.events") == "trace"
        assert name("repro.trace.export") == "export"
        assert name("repro.obs.profile") == "base"
        assert name("repro.obs.dashboard") == "export"
        assert name("repro") == "api"
        assert layer_of("repro.newpkg") is None
        assert name("repro.core.scheduler") == name("repro.schedulers.base")


# ----------------------------------------------------------------------
# suppression, filtering, parse errors
# ----------------------------------------------------------------------
class TestFiltering:
    def test_marker_waives_check_rule(self):
        src = AMBIENT_RNG.replace(
            "np.random.default_rng()",
            "np.random.default_rng()  # repro: lint-ok[rng-ambient]",
        )
        assert run_check(src) == []

    def test_ignore_drops_rule(self):
        config = CheckConfig(ignore=("rng-ambient",))
        assert run_check(AMBIENT_RNG, config=config) == []

    def test_select_restricts_rules(self):
        config = CheckConfig(select=("vocab-unused",))
        both = MISSED_BUMP + "\n" + UNUSED_REASON
        assert rules(run_check(both, config=config)) == ["vocab-unused"]

    def test_unknown_waiver_flagged(self):
        src = "x = 1  # repro: lint-ok[rng-ambientt]\n"
        fs = run_check(src)
        assert rules(fs) == ["unknown-waiver"]
        assert "rng-ambientt" in fs[0].message

    def test_lint_rule_names_are_known_waivers(self):
        assert run_check("x = 1  # repro: lint-ok[magic-unit]\n") == []

    def test_marker_mentioned_in_docstring_not_validated(self):
        src = '"""Silence with # repro: lint-ok[not-a-rule]."""\n'
        assert run_check(src) == []

    def test_syntax_error_reported_as_parse_error(self):
        fs = run_check("def broken(:\n")
        assert [f.rule for f in fs] == ["parse-error"]

    def test_parse_error_survives_select(self):
        config = CheckConfig(select=("vocab-unused",))
        fs = run_check("def broken(:\n", config=config)
        assert [f.rule for f in fs] == ["parse-error"]


class TestConfig:
    def test_stale_lint_table_rejected(self, tmp_path, capsys):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            '[tool.repro.lint]\nexclude = ["repro/units.py"]\n',
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=r"\[tool\.repro\.lint\]") as err:
            CheckConfig.load(tmp_path)
        assert str(pyproject) in str(err.value)
        (tmp_path / "mod.py").write_text("x = 1\n", encoding="utf-8")
        assert check_main([str(tmp_path / "mod.py")]) == 2
        assert str(pyproject) in capsys.readouterr().err

    def test_unknown_check_key_rejected(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            '[tool.repro.check]\nbaseline = "B.json"\nselect = ["rng-ambient"]\n',
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="'select'") as err:
            CheckConfig.load(tmp_path)
        assert str(pyproject) in str(err.value)


# ----------------------------------------------------------------------
# every rule id has a defect fixture that reports it
# ----------------------------------------------------------------------
BARE_SCHEDULER = [
    ("repro/schedulers/__init__.py", "__all__ = []\n"),
    ("repro/schedulers/mine.py", "class Mine(TaskScheduler):\n    pass\n"),
]

RULE_FIXTURES = {
    "cache-missing-bump": [("mod.py", MISSED_BUMP)],
    "cache-unwatched-input": [("mod.py", UNWATCHED_INPUT)],
    "cache-decl-unresolved": [(
        "mod.py",
        'class C:\n    @cached_on("v", reference="_nope")\n'
        "    def m(self):\n        return 0\n",
    )],
    "rng-ambient": [("mod.py", AMBIENT_RNG)],
    "rng-constant-seed": [("mod.py", "import numpy as np\nr = np.random.default_rng(4)\n")],
    "rng-unprovenanced": [(
        "mod.py",
        "import numpy as np\ndef f(n):\n    return np.random.default_rng(n)\n",
    )],
    "rng-duplicate-stream": [("mod.py", DUPLICATE_STREAM)],
    "rng-stream-count": [("mod.py", "def f(ss):\n    a, b, c = ss.spawn(2)\n")],
    "vocab-unknown": [("mod.py", VOCAB_DEFS + 'ctx.note_decline("below_pmim")\n')],
    "vocab-unused": [("mod.py", UNUSED_REASON)],
    "import-layer": [("repro/cluster/bad.py", UPWARD_IMPORT)],
    "wallclock": [("repro/engine/mod.py", "import time\nt = time.time()\n")],
    "global-rng": [("repro/engine/mod.py", "import random\nx = random.random()\n")],
    "magic-unit": [("mod.py", "x = b / 1e9\n")],
    "no-print": [("mod.py", 'print("x")\n')],
    "scheduler-hooks": BARE_SCHEDULER,
    "scheduler-name": BARE_SCHEDULER,
    "scheduler-export": BARE_SCHEDULER,
    "ctx-mutation": [(
        "mod.py",
        "class S(TaskScheduler):\n    def select_map(self, node, job, ctx):\n"
        "        ctx.x = 1\n",
    )],
    "parse-error": [("mod.py", "def broken(:\n")],
    "unknown-waiver": [("mod.py", "x = 1  # repro: lint-ok[nope]\n")],
}


def test_every_rule_is_reported_by_a_fixture():
    assert sorted(RULE_FIXTURES) == sorted(RULES)
    silent = [
        rule for rule, fixture in RULE_FIXTURES.items()
        if rule not in rules(run_check_many(fixture))
    ]
    assert silent == []


# ----------------------------------------------------------------------
# baseline ratchet
# ----------------------------------------------------------------------
class TestBaseline:
    def _findings(self):
        return run_check(AMBIENT_RNG, name="fix.py")

    def test_fingerprint_is_line_independent(self):
        a = Finding(path="p.py", line=3, col=1, rule="r", message="m")
        b = Finding(path="p.py", line=99, col=5, rule="r", message="m")
        assert a.fingerprint() == b.fingerprint() == "r|p.py|m"

    def test_roundtrip_and_apply(self, tmp_path):
        findings = self._findings()
        path = tmp_path / "BASE.json"
        write_baseline(path, findings)
        recorded = load_baseline(path)
        assert recorded == fingerprint_counts(findings)
        new, stale = apply_baseline(findings, recorded)
        assert new == [] and stale == []

    def test_new_finding_not_absorbed(self, tmp_path):
        path = tmp_path / "BASE.json"
        write_baseline(path, [])
        new, stale = apply_baseline(self._findings(), load_baseline(path))
        assert len(new) == 1 and stale == []

    def test_stale_fingerprint_reported(self, tmp_path):
        path = tmp_path / "BASE.json"
        write_baseline(path, self._findings())
        new, stale = apply_baseline([], load_baseline(path))
        assert new == [] and len(stale) == 1

    def test_count_budget_per_fingerprint(self):
        f = self._findings()[0]
        twice = [f, Finding(f.path, f.line + 7, f.col, f.rule, f.message)]
        baseline = fingerprint_counts([f])
        new, stale = apply_baseline(twice, baseline)
        assert len(new) == 1  # one absorbed, the second is new

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == {}

    def test_malformed_baseline_raises(self, tmp_path):
        path = tmp_path / "BASE.json"
        path.write_text('{"findings": []}', encoding="utf-8")
        with pytest.raises(ValueError):
            load_baseline(path)


# ----------------------------------------------------------------------
# report formats
# ----------------------------------------------------------------------
class TestReports:
    def test_text_format(self):
        f = run_check(AMBIENT_RNG, name="fix.py")[0]
        assert f.format().startswith("fix.py:4:")
        assert "[rng-ambient]" in f.format()

    def test_json_document(self):
        from repro.analysis.check.report import format_json

        doc = json.loads(format_json(run_check(AMBIENT_RNG, name="fix.py")))
        assert doc["tool"] == "repro-check"
        assert doc["summary"]["total"] == 1
        assert doc["summary"]["by_rule"] == {"rng-ambient": 1}
        assert doc["findings"][0]["rule"] == "rng-ambient"

    def test_sarif_document(self):
        from repro.analysis.check.report import format_sarif

        doc = json.loads(format_sarif(run_check(AMBIENT_RNG, name="fix.py")))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-check"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert rule_ids == set(RULES)
        result = run["results"][0]
        assert result["ruleId"] == "rng-ambient"
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "fix.py"
        assert "partialFingerprints" in result


# ----------------------------------------------------------------------
# whole tree + CLI
# ----------------------------------------------------------------------
class TestWholeTree:
    def test_src_tree_is_clean(self):
        assert check_paths([SRC]) == []

    def test_committed_baseline_is_current(self):
        recorded = load_baseline(REPO / "CHECK_BASELINE.json")
        new, stale = apply_baseline(check_paths([SRC]), recorded)
        assert new == [] and stale == []

    def test_cli_exit_zero_on_clean_tree(self, capsys):
        assert check_main(["--no-baseline", str(SRC)]) == 0

    def test_cli_exit_one_on_finding(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(AMBIENT_RNG, encoding="utf-8")
        assert check_main(["--no-baseline", str(tmp_path)]) == 1
        assert "rng-ambient" in capsys.readouterr().out

    def test_cli_exit_two_on_parse_error(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("def broken(:\n", encoding="utf-8")
        assert check_main(["--no-baseline", str(tmp_path)]) == 2

    def test_cli_exit_two_on_missing_path(self, capsys):
        assert check_main([str(SRC / "no-such-dir")]) == 2

    def test_cli_rejects_unknown_rule(self, capsys):
        assert check_main(["--select", "bogus", str(SRC)]) == 2

    def test_cli_list_rules(self, capsys):
        assert check_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule in out

    def test_cli_baseline_ratchet_cycle(self, tmp_path, capsys):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro.check]\n", encoding="utf-8"
        )
        (tmp_path / "mod.py").write_text(AMBIENT_RNG, encoding="utf-8")
        target = str(tmp_path / "mod.py")
        # no baseline yet: the finding is new -> exit 1
        assert check_main([target]) == 1
        capsys.readouterr()
        # record it, then the same tree is green
        assert check_main(["--update-baseline", target]) == 0
        assert (tmp_path / "CHECK_BASELINE.json").is_file()
        assert check_main([target]) == 0
        capsys.readouterr()
        # fixing the finding makes the baseline stale -> exit 1 again
        (tmp_path / "mod.py").write_text(
            AMBIENT_RNG.replace("default_rng()", "default_rng(seed)")
            .replace("def make_generator():", "def make_generator(seed):"),
            encoding="utf-8",
        )
        assert check_main([target]) == 1
        err = capsys.readouterr().err
        assert "no longer occur" in err
        assert check_main(["--update-baseline", target]) == 0
        assert check_main([target]) == 0

    def test_cli_json_format_emits_all_findings(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(AMBIENT_RNG, encoding="utf-8")
        check_main(["--no-baseline", "--format", "json", str(tmp_path)])
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["total"] == 1

    def test_python_dash_m_entry_point(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis.check", str(SRC)],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
