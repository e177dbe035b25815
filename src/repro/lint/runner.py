"""Lint driver: file discovery, rule dispatch, reporting, CLI.

Usage::

    python -m repro.lint src          # lint a tree
    repro lint src                    # via the installed entry point
    repro lint --format json src      # machine-readable report
    python -m repro.lint --list-rules

Exit status is 0 when no violation survives suppression filtering, 1
otherwise, 2 on usage or parse errors — the same contract as ``repro
check``, so both slot directly into CI.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import json
import sys
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.lint import contracts, determinism, prints, reasons, units
from repro.lint.config import LintConfig
from repro.lint.suppress import (
    is_suppressed,
    string_literal_lines,
    suppressions,
    unknown_waiver_rules,
)
from repro.lint.violations import Violation

__all__ = ["ALL_RULES", "lint_paths", "lint_sources", "main"]

#: rule name -> one-line description, across every rule module.
ALL_RULES = {
    **determinism.RULES,
    **units.RULES,
    **prints.RULES,
    **contracts.RULES,
    **reasons.RULES,
    "unknown-waiver": (
        "a lint-ok marker names a rule no command recognises, so it "
        "suppresses nothing"
    ),
}

_SKIP_DIRS = {"__pycache__", ".git", ".hg", "build", "dist"}


def _iter_python_files(root: Path) -> Iterable[Path]:
    if root.is_file():
        if root.suffix == ".py":
            yield root
        return
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        if any(
            p in _SKIP_DIRS or p.endswith(".egg-info") or p.startswith(".")
            for p in parts[:-1]
        ):
            continue
        yield path


def lint_sources(
    sources: Sequence[Tuple[str, Path, str]],
    config: Optional[LintConfig] = None,
) -> List[Violation]:
    """Lint in-memory sources: ``(display_path, scope_path, source)`` each.

    ``scope_path`` is the path (relative to the lint root) used for
    directory-scoping decisions; ``display_path`` appears in reports.  The
    workhorse behind :func:`lint_paths`, exposed for the rule tests.
    """
    config = config or LintConfig()
    violations: List[Violation] = []
    parsed: List[Tuple[str, Path, ast.AST]] = []
    waivers = {}

    for display, scope, source in sources:
        try:
            tree = ast.parse(source, filename=display)
        except SyntaxError as exc:
            violations.append(
                Violation(
                    path=display,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    rule="parse-error",
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        parsed.append((display, scope, tree))
        waivers[display] = suppressions(source)
        violations.extend(determinism.check_determinism(tree, display, scope, config))
        violations.extend(units.check_units(tree, display, scope, config))
        violations.extend(prints.check_prints(tree, display, scope, config))
        violations.extend(reasons.check_reasons(tree, display, scope, config))
        # markers waiving rule names no command recognises suppress nothing —
        # flag them here rather than letting a typo silently disable a waiver
        # (rules prefixed cache-/rng-/vocab- belong to `repro check`).
        for line, rule in unknown_waiver_rules(
            waivers[display],
            set(ALL_RULES) | {"parse-error"},
            skip_lines=string_literal_lines(tree),
        ):
            violations.append(
                Violation(
                    path=display, line=line, col=1, rule="unknown-waiver",
                    message=(
                        f"lint-ok marker waives unknown rule {rule!r} — it "
                        "suppresses nothing; fix the name or drop it"
                    ),
                )
            )

    violations.extend(contracts.check_contracts(parsed, config))

    kept = [
        v
        for v in violations
        if not is_suppressed(v, waivers.get(v.path, {}))
    ]
    return sorted(kept)


def lint_paths(
    paths: Sequence[Path], config: Optional[LintConfig] = None
) -> List[Violation]:
    """Lint every ``*.py`` file under ``paths`` and return the violations."""
    if config is None:
        config = LintConfig.load(paths[0] if paths else None)
    sources: List[Tuple[str, Path, str]] = []
    for root in paths:
        root = Path(root)
        if not root.exists():
            raise FileNotFoundError(f"no such path: {root}")
        base = root if root.is_dir() else root.parent
        for path in _iter_python_files(root):
            if config.is_excluded(path.resolve()):
                continue
            rel = config.scope_path(path, path.relative_to(base))
            sources.append((str(path), rel, path.read_text(encoding="utf-8")))
    return lint_sources(sources, config)


def main(argv: Optional[List[str]] = None) -> int:
    """``repro lint`` command line; returns the exit status (0/1/2)."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule name and description, then exit",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule names to run exclusively",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        help="comma-separated rule names to skip",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        width = max(len(name) for name in ALL_RULES)
        for name, desc in sorted(ALL_RULES.items()):
            print(f"{name:<{width}}  {desc}")
        return 0

    for name in (args.select or "").split(",") + (args.ignore or "").split(","):
        name = name.strip()
        if name and name not in ALL_RULES:
            print(f"unknown rule {name!r}; see --list-rules", file=sys.stderr)
            return 2

    paths = [Path(p) for p in args.paths]
    config = LintConfig.load(paths[0])
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

    try:
        violations = lint_paths(paths, config)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.format == "json":
        print(_format_json(violations))
    else:
        for v in violations:
            print(v.format())
    if violations:
        print(f"\n{len(violations)} violation(s) found", file=sys.stderr)
        return 2 if any(v.rule == "parse-error" for v in violations) else 1
    return 0


def _format_json(violations: Sequence[Violation]) -> str:
    """The ``--format json`` document — same shape as ``repro check``'s."""
    by_rule: dict = {}
    for v in violations:
        by_rule[v.rule] = by_rule.get(v.rule, 0) + 1
    return json.dumps(
        {
            "tool": "repro-lint",
            "violations": [
                {
                    "path": v.path,
                    "line": v.line,
                    "col": v.col,
                    "rule": v.rule,
                    "message": v.message,
                }
                for v in violations
            ],
            "summary": {"total": len(violations), "by_rule": by_rule},
        },
        indent=2,
        sort_keys=True,
    )


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
