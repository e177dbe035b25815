"""``repro check`` — whole-program static analysis for the simulator.

Four passes over a project-wide symbol table and attribute-flow index
(:mod:`~repro.analysis.check.project`):

* **cache-coherence** (:mod:`~repro.analysis.check.coherence`): every write
  reaching a declared cache input (``@cached_on`` decorations and
  ``CACHE_DEPS`` maps) must bump the declared version or call the declared
  invalidator on every path;
* **RNG provenance** (:mod:`~repro.analysis.check.provenance`): every
  generator traces back to an injected, uniquely-indexed registered
  substream — no ambient entropy, constant self-seeds or duplicate streams;
* **closed vocabularies** (:mod:`~repro.analysis.check.vocab`): decline
  reasons, journal kinds and trace-event tags are checked both ways —
  unknown members at use-sites and unused members at definition sites;
* **import layers** (:mod:`~repro.analysis.check.layers`): no module-level
  import of a higher layer of the declared layer order.

Findings ship as text, JSON or SARIF and ratchet against a committed
baseline (:mod:`~repro.analysis.check.baseline`).  The static declarations
double as runtime contracts: ``REPRO_SANITIZE=cache`` (see
:mod:`repro.coherence`) shadow-executes the declared reference recompute on
sampled cache hits and asserts byte-equality.
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
