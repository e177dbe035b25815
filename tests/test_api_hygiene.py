"""API hygiene: docstrings, __all__ integrity, import graph sanity."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.cluster",
    "repro.hdfs",
    "repro.engine",
    "repro.schedulers",
    "repro.core",
    "repro.workload",
    "repro.metrics",
    "repro.analysis",
    "repro.analysis.check",
    "repro.experiments",
    "repro.yarn",
    "repro.trace",
    "repro.obs",
    "repro.faults",
]


def all_modules():
    mods = []
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        mods.append(pkg)
        if hasattr(pkg, "__path__"):
            for info in pkgutil.iter_modules(pkg.__path__):
                mods.append(
                    importlib.import_module(f"{pkg_name}.{info.name}")
                )
    return {m.__name__: m for m in mods}.values()


class TestDocstrings:
    @pytest.mark.parametrize("module", all_modules(), ids=lambda m: m.__name__)
    def test_every_module_has_a_docstring(self, module):
        assert module.__doc__ and module.__doc__.strip(), module.__name__

    @pytest.mark.parametrize("pkg_name", PACKAGES)
    def test_all_exports_resolve_and_are_documented(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        exported = getattr(pkg, "__all__", [])
        assert exported, f"{pkg_name} should declare __all__"
        for name in exported:
            obj = getattr(pkg, name)  # raises if missing
            if callable(obj) and not isinstance(obj, type(repro)):
                assert obj.__doc__, f"{pkg_name}.{name} lacks a docstring"

    def test_all_exports_listed_by_dir(self):
        """Lazy (PEP 562) exports show up in ``dir(pkg)`` before first use.

        A fresh interpreter, because any earlier attribute access caches
        the name in the package namespace and would hide a gap.
        """
        import json
        import subprocess
        import sys

        code = (
            "import importlib, json\n"
            f"missing = {{}}\n"
            f"for name in {PACKAGES!r}:\n"
            "    pkg = importlib.import_module(name)\n"
            "    gap = sorted(set(pkg.__all__) - set(dir(pkg)))\n"
            "    if gap:\n"
            "        missing[name] = gap\n"
            "print(json.dumps(missing))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == {}


class TestPublicSurfaces:
    def test_top_level_exports(self):
        for name in ("Simulation", "ClusterSpec", "JobSpec", "TABLE2",
                     "table2_batch", "MetricsCollector"):
            assert hasattr(repro, name)

    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_scheduler_names_unique(self):
        from repro.core import ProbabilisticNetworkAwareScheduler
        from repro.schedulers import (
            CouplingScheduler,
            FairScheduler,
            GreedyCostScheduler,
            RandomScheduler,
        )

        names = [
            ProbabilisticNetworkAwareScheduler().name,
            CouplingScheduler().name,
            FairScheduler().name,
            GreedyCostScheduler.name,
            RandomScheduler.name,
        ]
        assert len(set(names)) == len(names)

    def test_no_circular_import_from_cold_start(self):
        """Importing the deepest modules first must not blow up."""
        import subprocess
        import sys

        code = (
            "import repro.core.scheduler, repro.schedulers.coupling, "
            "repro.engine.simulation, repro.experiments.runner, repro.yarn; "
            "print('ok')"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "ok"
