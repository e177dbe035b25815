"""Report rendering for ``repro check``: text, JSON and SARIF 2.1.0.

Text is the human/terminal default (editor-clickable, one finding per
line).  JSON is for scripting.  SARIF is the interchange format GitHub
code scanning and most editors ingest — the CI ``check`` job uploads it as
an artifact so findings are browsable per-run without re-running the
analyzer.
"""

from __future__ import annotations

import json
from typing import Dict, Sequence

from repro.analysis.check.findings import Finding, RULES

__all__ = ["format_json", "format_sarif", "FORMATS"]

FORMATS = ("text", "json", "sarif")

_TOOL_NAME = "repro-check"
_SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def format_json(findings: Sequence[Finding]) -> str:
    payload = {
        "tool": _TOOL_NAME,
        "findings": [
            {
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "rule": f.rule,
                "message": f.message,
                "fingerprint": f.fingerprint(),
            }
            for f in findings
        ],
        "summary": {
            "total": len(findings),
            "by_rule": _rule_counts(findings),
        },
    }
    return json.dumps(payload, indent=2)


def format_sarif(findings: Sequence[Finding]) -> str:
    rules = [
        {
            "id": rule,
            "shortDescription": {"text": RULES.get(rule, rule)},
        }
        for rule in sorted({f.rule for f in findings} | set(RULES))
    ]
    results = [
        {
            "ruleId": f.rule,
            "level": "error",
            "message": {"text": f.message},
            "partialFingerprints": {"reproCheck/v1": f.fingerprint()},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": f.path.replace("\\", "/")},
                        "region": {
                            "startLine": f.line,
                            "startColumn": f.col,
                        },
                    }
                }
            ],
        }
        for f in findings
    ]
    sarif = {
        "$schema": _SARIF_SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": _TOOL_NAME,
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(sarif, indent=2)


def _rule_counts(findings: Sequence[Finding]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for f in findings:
        counts[f.rule] = counts.get(f.rule, 0) + 1
    return dict(sorted(counts.items()))
