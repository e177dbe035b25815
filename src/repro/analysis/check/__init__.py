"""``repro check`` — the simulator's one static analyzer.

Seven passes over one project-wide symbol table and attribute-flow index
(:mod:`~repro.analysis.check.project`), each parsed once:

* **cache-coherence** (:mod:`~repro.analysis.check.coherence`): every write
  reaching a declared cache input (``@cached_on`` decorations and
  ``CACHE_DEPS`` maps) must bump the declared version or call the declared
  invalidator on every path;
* **RNG provenance** (:mod:`~repro.analysis.check.provenance`): every
  generator traces back to an injected, uniquely-indexed registered
  substream — no ambient entropy, numpy global state, constant self-seeds
  or duplicate streams;
* **closed vocabularies** (:mod:`~repro.analysis.check.vocab`): decline and
  failure reasons, journal kinds and trace-event tags are checked both
  ways — unknown members at use-sites and unused members at definition
  sites;
* **import layers** (:mod:`~repro.analysis.check.layers`): no module-level
  import of a higher layer of the declared layer order;
* **determinism** (:mod:`~repro.analysis.check.determinism`): no wall clock
  and no stdlib ``random`` inside the simulation-critical packages;
* **hygiene** (:mod:`~repro.analysis.check.hygiene`): no raw size/rate
  literals and no ``print()`` outside the entry points;
* **scheduler contracts** (:mod:`~repro.analysis.check.contracts`): every
  ``TaskScheduler`` subclass implements both hooks, names itself, is
  exported, and never mutates its ``SchedulerContext``.

Waive one occurrence with ``# repro: lint-ok[<rule>]`` on its line
(:mod:`~repro.analysis.check.suppress`).  Findings ship as text, JSON or
SARIF and ratchet against a committed baseline
(:mod:`~repro.analysis.check.baseline`).  The cache declarations double as
runtime contracts: ``REPRO_SANITIZE=cache`` (see :mod:`repro.coherence`)
shadow-executes the declared reference recompute on sampled cache hits and
asserts byte-equality; :mod:`repro.engine.invariants` is the runtime
counterpart of the rest.
"""

from repro.analysis.check.baseline import (
    apply_baseline,
    fingerprint_counts,
    load_baseline,
    write_baseline,
)
from repro.analysis.check.findings import Finding, RULES
from repro.analysis.check.project import Project
from repro.analysis.check.runner import (
    CheckConfig,
    check_paths,
    check_sources,
    main,
)

__all__ = [
    "CheckConfig",
    "Finding",
    "Project",
    "RULES",
    "apply_baseline",
    "check_paths",
    "check_sources",
    "fingerprint_counts",
    "load_baseline",
    "main",
    "write_baseline",
]
