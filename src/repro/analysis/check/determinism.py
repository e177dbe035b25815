"""Determinism pass: no host clock and no stdlib ``random`` in simulation code.

Every CDF in the evaluation is only meaningful if a run is a pure function
of its seed, so inside the simulation-critical packages
(:data:`DETERMINISTIC_PACKAGES`) all time must come from the simulated
clock and all randomness from an injected ``numpy.random.Generator``:

``wallclock``
    ``time.time()`` / ``monotonic()`` / ``perf_counter()`` or
    ``datetime.now()`` / ``utcnow()`` / ``today()`` — wall-clock reads that
    leak host timing into simulated behaviour.
``global-rng``
    a call through stdlib ``random``, whose state is process-global.
    numpy's global RNG is ``rng-ambient`` (:mod:`.provenance`), which
    applies everywhere.

Call targets are resolved through the module's imports, so aliases
(``from time import perf_counter as pc``) are caught.  A module is in
scope when a package of its dotted name is listed: an experiment driver
may read the wall clock, the engine may not.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.check.findings import Finding
from repro.analysis.check.project import Project

__all__ = ["DETERMINISTIC_PACKAGES", "check_determinism"]

#: packages whose behaviour must be a pure function of the injected seed.
DETERMINISTIC_PACKAGES = frozenset(
    {"cluster", "core", "engine", "faults", "hdfs", "schedulers", "sim", "workload"}
)

_WALLCLOCK = frozenset(
    {
        f"time.{fn}"
        for fn in (
            "time", "time_ns", "monotonic", "monotonic_ns",
            "perf_counter", "perf_counter_ns",
        )
    }
    | {
        f"datetime.{cls}.{fn}"
        for cls in ("datetime", "date")
        for fn in ("now", "utcnow", "today")
    }
)


def check_determinism(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for module in project.modules.values():
        if DETERMINISTIC_PACKAGES.isdisjoint(module.name.split(".")[:-1]):
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = module.qualified(node.func)
            if target in _WALLCLOCK:
                rule = "wallclock"
                message = (
                    f"{target}() reads the wall clock; use the simulated "
                    "clock (sim.now)"
                )
            elif target is not None and target.startswith("random."):
                rule = "global-rng"
                message = (
                    f"{target}() draws from stdlib random's global state; "
                    "use the injected numpy.random.Generator"
                )
            else:
                continue
            findings.append(Finding(
                path=module.path, line=node.lineno, col=node.col_offset + 1,
                rule=rule, message=message,
            ))
    return findings
