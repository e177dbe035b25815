"""Check driver: discovery, pass dispatch, baseline ratchet, CLI.

Usage::

    python -m repro.analysis.check src        # analyze a tree
    repro check src                           # via the installed entry point
    repro check --format sarif src            # machine-readable output
    repro check --update-baseline src         # re-record the baseline

Exit status: 0 when no non-baselined finding remains, 1 when new findings
appear (or baselined ones disappeared without re-recording), 2 on usage,
configuration or parse errors.

The only configuration is ``baseline`` in ``[tool.repro.check]`` of the
nearest ``pyproject.toml``; any other key there, or a leftover
``[tool.repro.lint]`` table, is an error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.check import baseline as baseline_mod
from repro.analysis.check.coherence import check_coherence
from repro.analysis.check.contracts import check_contracts
from repro.analysis.check.determinism import check_determinism
from repro.analysis.check.findings import Finding, RULES
from repro.analysis.check.hygiene import check_hygiene
from repro.analysis.check.layers import check_import_layers
from repro.analysis.check.project import Project, read_sources
from repro.analysis.check.provenance import check_provenance
from repro.analysis.check.report import FORMATS, format_json, format_sarif
from repro.analysis.check.suppress import (
    is_suppressed,
    string_literal_lines,
    suppressions,
    unknown_waiver_rules,
)
from repro.analysis.check.vocab import check_vocab

__all__ = ["CheckConfig", "check_sources", "check_paths", "main"]

DEFAULT_BASELINE = "CHECK_BASELINE.json"

#: every pass, each ``Project -> List[Finding]``.
PASSES = (
    check_coherence,
    check_provenance,
    check_vocab,
    check_import_layers,
    check_determinism,
    check_hygiene,
    check_contracts,
)


@dataclass(frozen=True)
class CheckConfig:
    """Effective configuration for one check run."""

    select: Tuple[str, ...] = ()   # empty = every rule
    ignore: Tuple[str, ...] = ()
    baseline: str = DEFAULT_BASELINE
    #: project root the baseline path is resolved against (pyproject parent)
    root: Optional[Path] = field(default=None, compare=False)
    source: str = field(default="defaults", compare=False)

    def rule_enabled(self, rule: str) -> bool:
        if rule in ("parse-error", "unknown-waiver"):
            return True
        if self.select and rule not in self.select:
            return False
        return rule not in self.ignore

    def baseline_path(self) -> Path:
        raw = Path(self.baseline)
        if raw.is_absolute() or self.root is None:
            return raw
        return self.root / raw

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, start: Optional[Path] = None) -> "CheckConfig":
        """Find ``pyproject.toml`` at/above ``start``, read ``[tool.repro.check]``."""
        root = (start or Path.cwd()).resolve()
        if root.is_file():
            root = root.parent
        for candidate in (root, *root.parents):
            pyproject = candidate / "pyproject.toml"
            if pyproject.is_file():
                return cls.from_pyproject(pyproject)
        return cls()

    @classmethod
    def from_pyproject(cls, pyproject: Path) -> "CheckConfig":
        """Read ``baseline``; raise ``ValueError`` on any stale setting."""
        try:
            import tomllib
        except ImportError:  # pragma: no cover - python < 3.11
            return cls(root=pyproject.parent)
        try:
            data = tomllib.loads(pyproject.read_text(encoding="utf-8"))
        except (OSError, tomllib.TOMLDecodeError):
            return cls(root=pyproject.parent)
        tables = data.get("tool", {}).get("repro", {})
        if "lint" in tables:
            raise ValueError(
                f"{pyproject}: [tool.repro.lint] is no longer read; its "
                "settings are built into `repro check` — delete the table"
            )
        table = tables.get("check", {})
        for key in table:
            if key != "baseline":
                raise ValueError(
                    f"{pyproject}: unknown key {key!r} in [tool.repro.check] "
                    "(the only key is 'baseline')"
                )
        baseline = table.get("baseline", DEFAULT_BASELINE)
        if not isinstance(baseline, str):
            raise ValueError(
                f"{pyproject}: [tool.repro.check] baseline must be a string"
            )
        return cls(baseline=baseline, root=pyproject.parent, source=str(pyproject))


def check_sources(
    sources: Sequence[Tuple[str, Path, str]],
    config: Optional[CheckConfig] = None,
) -> List[Finding]:
    """Analyze in-memory sources: ``(display_path, scope_path, source)`` each.

    Runs every pass over one shared :class:`Project`, applies
    ``# repro: lint-ok[rule]`` waivers and the select/ignore filters, and
    returns sorted findings (baseline is the caller's concern).
    """
    config = config or CheckConfig()
    project = Project.from_sources(sources)
    findings: List[Finding] = [
        Finding(
            path=path, line=line, col=col, rule="parse-error",
            message=f"file does not parse: {msg}",
        )
        for path, line, col, msg in project.parse_errors
    ]
    for run_pass in PASSES:
        findings.extend(run_pass(project))

    trees = {m.path: m.tree for m in project.modules.values()}
    waivers: Dict[str, Dict[int, FrozenSet[str]]] = {}
    for display, _scope, source in sources:
        waivers[display] = suppressions(source)
        tree = trees.get(display)
        findings.extend(
            Finding(
                path=display, line=line, col=1, rule="unknown-waiver",
                message=(
                    f"lint-ok marker waives unknown rule {rule!r} — it "
                    "suppresses nothing; fix the name or drop it"
                ),
            )
            for line, rule in unknown_waiver_rules(
                waivers[display],
                RULES,
                skip_lines=string_literal_lines(tree) if tree else set(),
            )
        )

    kept = [
        f
        for f in findings
        if config.rule_enabled(f.rule)
        and not is_suppressed(f, waivers.get(f.path, {}))
    ]
    return sorted(kept)


def check_paths(
    paths: Sequence[Path], config: Optional[CheckConfig] = None
) -> List[Finding]:
    """Analyze every ``*.py`` file under ``paths``."""
    if config is None:
        config = CheckConfig.load(paths[0] if paths else None)
    return check_sources(read_sources(paths), config)


def main(argv: Optional[List[str]] = None) -> int:
    """``repro check`` command line; returns the exit status (0/1/2)."""
    parser = argparse.ArgumentParser(
        prog="repro check",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule name and description, then exit",
    )
    parser.add_argument(
        "--select", default=None,
        help="comma-separated rule names to run exclusively",
    )
    parser.add_argument(
        "--ignore", default=None,
        help="comma-separated rule names to skip",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="baseline file (default: [tool.repro.check] baseline, "
        f"{DEFAULT_BASELINE} next to pyproject.toml)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline: report and fail on every finding",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="re-record the baseline from the current findings and exit 0",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        width = max(len(name) for name in RULES)
        for name, desc in sorted(RULES.items()):
            print(f"{name:<{width}}  {desc}")
        return 0

    for name in (args.select or "").split(",") + (args.ignore or "").split(","):
        name = name.strip()
        if name and name not in RULES:
            print(f"unknown rule {name!r}; see --list-rules", file=sys.stderr)
            return 2

    paths = [Path(p) for p in args.paths]
    try:
        config = CheckConfig.load(paths[0])
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.select:
        config = dataclasses.replace(
            config,
            select=tuple(s.strip() for s in args.select.split(",") if s.strip()),
        )
    if args.ignore:
        config = dataclasses.replace(
            config,
            ignore=config.ignore
            + tuple(s.strip() for s in args.ignore.split(",") if s.strip()),
        )
    if args.baseline:
        config = dataclasses.replace(config, baseline=args.baseline)

    try:
        findings = check_paths(paths, config)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    parse_failures = [f for f in findings if f.rule == "parse-error"]

    baseline_path = config.baseline_path()
    if args.update_baseline:
        baseline_mod.write_baseline(baseline_path, findings)
        print(
            f"baseline updated: {len(findings)} finding(s) recorded in "
            f"{baseline_path}",
            file=sys.stderr,
        )
        return 0 if not parse_failures else 2

    if args.no_baseline:
        new, stale = list(findings), []
    else:
        try:
            recorded = baseline_mod.load_baseline(baseline_path)
        except (ValueError, OSError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        new, stale = baseline_mod.apply_baseline(findings, recorded)

    if args.format == "text":
        for f in new:
            print(f.format())
    elif args.format == "json":
        print(format_json(findings))
    else:
        print(format_sarif(findings))

    if new or stale:
        summary = (
            f"{len(findings)} finding(s): {len(new)} new, "
            f"{len(findings) - len(new)} baselined"
        )
        if stale:
            summary += (
                f"; {len(stale)} baselined fingerprint(s) no longer occur — "
                "run --update-baseline to shrink the baseline"
            )
        print(f"\n{summary}", file=sys.stderr)
    if parse_failures:
        return 2
    return 1 if (new or stale) else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
