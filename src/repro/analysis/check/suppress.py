"""In-source waiver markers.

A finding may be silenced on its own line with::

    cache_ttl = 1e9  # repro: lint-ok[magic-unit]

Several rules may be listed (comma-separated) and ``*`` silences every rule
on the line.  Markers are per-line only — there is deliberately no
file-level or block-level escape hatch, so each waived occurrence stays
visible at the point of use.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.analysis.check.findings import Finding

__all__ = [
    "suppressions",
    "is_suppressed",
    "string_literal_lines",
    "unknown_waiver_rules",
]

_MARKER = re.compile(r"#\s*repro:\s*lint-ok\[([^\]]*)\]")


def suppressions(source: str) -> Dict[int, FrozenSet[str]]:
    """Map 1-based line numbers to the set of rule names waived there."""
    out: Dict[int, FrozenSet[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _MARKER.search(line)
        if m:
            rules = frozenset(
                r.strip() for r in m.group(1).split(",") if r.strip()
            )
            if rules:
                out[lineno] = rules
    return out


def is_suppressed(finding: Finding, waived: Dict[int, FrozenSet[str]]) -> bool:
    rules = waived.get(finding.line)
    if not rules:
        return False
    return "*" in rules or finding.rule in rules


def string_literal_lines(tree: ast.AST) -> Set[int]:
    """Every line covered by a string literal (docstrings, messages).

    A ``lint-ok`` marker *mentioned* inside a string is documentation, not
    a live waiver — unknown-rule validation must skip those lines.  (The
    per-line waiver lookup itself stays source-based: a marker sharing a
    line with a string but sitting in a real comment still works.)
    """
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            end = node.end_lineno or node.lineno
            lines.update(range(node.lineno, end + 1))
    return lines


def unknown_waiver_rules(
    waivers: Dict[int, FrozenSet[str]],
    known_rules: Iterable[str],
    *,
    skip_lines: Optional[Set[int]] = None,
) -> List[Tuple[int, str]]:
    """``(line, rule)`` pairs naming rules outside ``known_rules``.

    ``skip_lines`` (typically :func:`string_literal_lines`) drops markers
    that only *appear* inside string literals.
    """
    known = set(known_rules)
    out: List[Tuple[int, str]] = []
    for line, rules in sorted(waivers.items()):
        if skip_lines is not None and line in skip_lines:
            continue
        out.extend(
            (line, rule)
            for rule in sorted(rules)
            if rule != "*" and rule not in known
        )
    return out
