"""Findings baseline with a one-way ratchet.

``repro check`` compares the current findings against a committed JSON
baseline keyed on line-independent fingerprints (rule + path + message):

* a finding whose fingerprint is **not** in the baseline (or exceeds its
  baselined count) is *new* and fails the run — defects cannot accumulate;
* a baselined fingerprint that no longer occurs is *stale* and also fails,
  with instructions to re-record — the baseline only ever shrinks;
* ``--update-baseline`` rewrites the file from the current findings.

The file is deliberately human-reviewable: sorted fingerprints mapping to
occurrence counts, one per line, so a baseline diff in review shows exactly
which defects were grandfathered or burned down.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.analysis.check.findings import Finding

__all__ = [
    "load_baseline",
    "write_baseline",
    "apply_baseline",
    "fingerprint_counts",
]

_VERSION = 1


def fingerprint_counts(findings: Sequence[Finding]) -> Dict[str, int]:
    """How many times each finding fingerprint occurs."""
    return dict(Counter(f.fingerprint() for f in findings))


def load_baseline(path: Path) -> Dict[str, int]:
    """Read a baseline file; a missing file is an empty baseline."""
    if not path.is_file():
        return {}
    data = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(data, dict) or data.get("version") != _VERSION:
        raise ValueError(f"unrecognised baseline format in {path}")
    counts = data.get("findings", {})
    if not isinstance(counts, dict):
        raise ValueError(f"malformed 'findings' table in {path}")
    return {str(k): int(v) for k, v in counts.items()}


def write_baseline(path: Path, findings: Sequence[Finding]) -> None:
    """Record ``findings`` as the baseline at ``path`` (sorted JSON)."""
    counts = fingerprint_counts(findings)
    payload = {
        "version": _VERSION,
        "findings": {k: counts[k] for k in sorted(counts)},
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def apply_baseline(
    findings: Sequence[Finding], baseline: Dict[str, int]
) -> Tuple[List[Finding], List[str]]:
    """Split findings into (new, stale-fingerprints) against a baseline.

    Multiple occurrences of one fingerprint are matched up to the
    baselined count, oldest-location first; the overflow is new.
    """
    budget = dict(baseline)
    new: List[Finding] = []
    for finding in sorted(findings):
        fp = finding.fingerprint()
        if budget.get(fp, 0) > 0:
            budget[fp] -= 1
        else:
            new.append(finding)
    stale = sorted(fp for fp, left in budget.items() if left > 0)
    return new, stale
