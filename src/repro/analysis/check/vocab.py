"""Closed-vocabulary pass: definition-site / use-site exhaustiveness.

The repo keeps several string vocabularies closed so traces aggregate and
counters never silently fork: decline/failure/node-down reasons
(``*_REASONS`` tuples in ``repro.trace.events``), write-ahead journal kinds
(``JOURNAL_KINDS`` in ``repro.engine.journal``) and the class-level ``type``
tags of the trace-event hierarchy.  The pass is whole-program and runs
both directions:

* ``vocab-unknown`` — a string literal consumed at a known vocabulary
  use-site (``note_decline``, ``job.fail``, ``journal_write``,
  ``JournalEntry(kind=...)``, ``.type ==``/``.kind ==`` comparisons, ...)
  that is not a declared member;
* ``vocab-unused`` — a declared member that nothing in the project ever
  uses: its constant name is never loaded outside its definition, its
  string value never appears at any use-site or literal, and (for event
  tags) the event class is never instantiated.  Dead vocabulary entries
  are how stale reasons accumulate and skew per-reason statistics.

Vocabularies are discovered from the analyzed source, never imported — the
pass works identically on the live tree and on the defect fixtures.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.check.findings import Finding
from repro.analysis.check.project import ModuleInfo, Project, callee_name

__all__ = ["check_vocab"]

#: module-level tuple names treated as closed vocabularies.
_VOCAB_SUFFIXES = ("_REASONS", "_KINDS")

#: synthetic vocabulary of trace-event ``type`` tags.
_EVENT_VOCAB = "EVENT_TYPES"

#: call-site name -> (positional index, keyword name, vocabulary name).  A
#: site without a keyword is checked only when called with exactly one
#: positional argument: ``job.fail("reason")`` is the only string-taking
#: ``fail`` overload.
_CALL_SITES = {
    "note_decline": (0, "reason", "DECLINE_REASONS"),
    "fail": (0, None, "FAILURE_REASONS"),
    "Decline": (None, "reason", "DECLINE_REASONS"),
    "AttemptFailed": (None, "reason", "FAILURE_REASONS"),
    "JobFail": (None, "reason", "FAILURE_REASONS"),
    "NodeDown": (None, "reason", "NODE_DOWN_REASONS"),
    "journal_write": (0, "kind", "JOURNAL_KINDS"),
    "JournalEntry": (1, "kind", "JOURNAL_KINDS"),
}

#: attribute/subscript names whose ``== "literal"`` comparison is a
#: use-site.  The bool says whether a non-member literal is *reported*:
#: ``.kind`` is also the map/reduce discriminator on task records, so it
#: only marks members as used, while a ``.type``/``["type"]`` comparison
#: against an unknown tag would silently never match any event.
_COMPARE_SITES = {
    "kind": ("JOURNAL_KINDS", False),
    "type": (_EVENT_VOCAB, True),
}


@dataclass
class _Member:
    value: str
    module: ModuleInfo
    line: int
    col: int
    const_name: Optional[str] = None   # BELOW_PMIN-style alias, if any
    event_class: Optional[str] = None  # defining class, for EVENT_TYPES
    used: bool = False


@dataclass
class _Vocabulary:
    name: str
    members: Dict[str, _Member] = field(default_factory=dict)
    #: lines occupied by definitions, per module path (self-uses don't count)
    def_lines: Dict[str, Set[int]] = field(default_factory=dict)


def _module_constants(module: ModuleInfo) -> Dict[str, Tuple[str, int, int]]:
    """Module-level ``NAME = "literal"`` string constants."""
    out: Dict[str, Tuple[str, int, int]] = {}
    for stmt in module.tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str)
        ):
            out[stmt.targets[0].id] = (
                stmt.value.value, stmt.lineno, stmt.col_offset + 1
            )
    return out


def _collect_vocabularies(project: Project) -> Dict[str, _Vocabulary]:
    vocabs: Dict[str, _Vocabulary] = {}
    for module in project.modules.values():
        constants = _module_constants(module)
        for stmt in module.tree.body:
            if not (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id.endswith(_VOCAB_SUFFIXES)
                and isinstance(stmt.value, (ast.Tuple, ast.List, ast.Set))
            ):
                continue
            name = stmt.targets[0].id
            vocab = vocabs.setdefault(name, _Vocabulary(name))
            lines = vocab.def_lines.setdefault(module.path, set())
            lines.update(range(stmt.lineno, (stmt.end_lineno or stmt.lineno) + 1))
            for elt in stmt.value.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    vocab.members.setdefault(
                        elt.value,
                        _Member(
                            value=elt.value, module=module,
                            line=elt.lineno, col=elt.col_offset + 1,
                        ),
                    )
                elif isinstance(elt, ast.Name) and elt.id in constants:
                    value, line, col = constants[elt.id]
                    vocab.members.setdefault(
                        value,
                        _Member(
                            value=value, module=module, line=line, col=col,
                            const_name=elt.id,
                        ),
                    )
                    lines.add(line)
    # the trace-event type-tag hierarchy: subclasses of a TraceEvent root
    # (whose own "event" tag is a placeholder)
    event_vocab = _Vocabulary(_EVENT_VOCAB)
    events = project.descendants("TraceEvent") - {"TraceEvent"}
    for name, infos in project.classes.items():
        if name not in events:
            continue
        for info in infos:
            tag = info.class_literals.get("type")
            if tag is None or not isinstance(tag[0], str):
                continue
            event_vocab.members.setdefault(
                tag[0],
                _Member(
                    value=tag[0], module=info.module, line=tag[1], col=1,
                    event_class=name,
                ),
            )
            event_vocab.def_lines.setdefault(info.module.path, set()).add(tag[1])
    if event_vocab.members:
        vocabs[_EVENT_VOCAB] = event_vocab
    return vocabs


def _literal(node: Optional[ast.expr]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def check_vocab(project: Project) -> List[Finding]:
    vocabs = _collect_vocabularies(project)
    findings: List[Finding] = []

    def emit(module: ModuleInfo, node: ast.AST, rule: str, msg: str) -> None:
        findings.append(
            Finding(
                path=module.path, line=node.lineno, col=node.col_offset + 1,
                rule=rule, message=msg,
            )
        )

    def mark_used(vocab: _Vocabulary, value: str) -> None:
        member = vocab.members.get(value)
        if member is not None:
            member.used = True

    # ------------------------------------------------------------------
    # use-site walk: unknown members + use marking
    # ------------------------------------------------------------------
    for module in project.modules.values():
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = callee_name(node)
                site = _CALL_SITES.get(name) if name else None
                if site is not None:
                    pos, kw, vocab_name = site
                    arg: Optional[ast.expr] = None
                    for keyword in node.keywords:
                        if kw is not None and keyword.arg == kw:
                            arg = keyword.value
                            break
                    if arg is None and pos is not None and len(node.args) > pos:
                        if kw is not None or len(node.args) == 1:
                            arg = node.args[pos]
                    value = _literal(arg)
                    vocab = vocabs.get(vocab_name)
                    if value is not None and vocab is not None:
                        if value in vocab.members:
                            mark_used(vocab, value)
                        else:
                            emit(
                                module, arg, "vocab-unknown",
                                f"{name}(...) {kw} {value!r} is not a member "
                                f"of {vocab_name} — add it to the vocabulary "
                                "or fix the spelling",
                            )
                # event-class instantiation marks its tag used
                event_vocab = vocabs.get(_EVENT_VOCAB)
                if name and event_vocab is not None:
                    for member in event_vocab.members.values():
                        if member.event_class == name:
                            member.used = True
            elif isinstance(node, ast.Compare) and len(node.comparators) == 1:
                left, comparator = node.left, node.comparators[0]
                site_name: Optional[str] = None
                if isinstance(left, ast.Attribute):
                    site_name = left.attr
                elif isinstance(left, ast.Subscript):
                    key = _literal(left.slice)
                    site_name = key
                value = _literal(comparator)
                if value is None and site_name is None:
                    # also accept "lit" == x.kind (reversed operands)
                    value = _literal(node.left)
                    if isinstance(comparator, ast.Attribute):
                        site_name = comparator.attr
                site = _COMPARE_SITES.get(site_name) if site_name else None
                if site and value is not None:
                    vocab_name, report_unknown = site
                    vocab = vocabs.get(vocab_name)
                    if vocab is not None:
                        if value in vocab.members:
                            mark_used(vocab, value)
                        elif report_unknown:
                            emit(
                                module, comparator, "vocab-unknown",
                                f"comparison against {value!r} — not a "
                                f"member of {vocab_name}",
                            )

    # ------------------------------------------------------------------
    # unused members: constant loads, literal occurrences, instantiations
    # ------------------------------------------------------------------
    for vocab in vocabs.values():
        pending = {
            value: m for value, m in vocab.members.items() if not m.used
        }
        if not pending:
            continue
        const_names = {
            m.const_name: m for m in pending.values() if m.const_name
        }
        class_names = {
            m.event_class: m for m in pending.values() if m.event_class
        }
        values = {m.value: m for m in pending.values()}
        for module in project.modules.values():
            def_lines = vocab.def_lines.get(module.path, set())
            for node in ast.walk(module.tree):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.lineno not in def_lines
                ):
                    member = const_names.get(node.id) or class_names.get(
                        node.id
                    )
                    if member is not None:
                        member.used = True
                elif isinstance(node, (ast.ImportFrom,)):
                    for alias in node.names:
                        member = const_names.get(alias.name) or class_names.get(
                            alias.name
                        )
                        if member is not None and module.path != member.module.path:
                            member.used = True
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node.lineno not in def_lines
                ):
                    member = values.get(node.value)
                    if member is not None and not _is_docstring_line(
                        module, node
                    ):
                        member.used = True
        for value in sorted(pending):
            member = vocab.members[value]
            if member.used:
                continue
            label = (
                f"constant {member.const_name}" if member.const_name
                else f"event class {member.event_class}" if member.event_class
                else f"member {value!r}"
            )
            findings.append(
                Finding(
                    path=member.module.path, line=member.line, col=member.col,
                    rule="vocab-unused",
                    message=(
                        f"{vocab.name} {label} ({value!r}) is never used "
                        "anywhere in the project — emit it or retire it "
                        "from the vocabulary"
                    ),
                )
            )
    return findings


def _is_docstring_line(module: ModuleInfo, node: ast.Constant) -> bool:
    """Best-effort: treat a bare string expression as documentation."""
    for stmt in ast.walk(module.tree):
        if (
            isinstance(stmt, ast.Expr)
            and stmt.value is node
        ):
            return True
    return False
