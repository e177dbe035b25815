"""Scheduler-contract pass over the project's class hierarchy.

The engine's :class:`~repro.schedulers.base.TaskScheduler` strategy
interface carries a contract that Algorithms 1–2 are only reachable
through.  Four rules check it on every ``TaskScheduler`` descendant in
:attr:`Project.classes`:

``scheduler-hooks``
    Every subclass must implement (or inherit from another subclass) both
    ``select_map`` and ``select_reduce`` — the base raises
    ``NotImplementedError`` on the first heartbeat.
``scheduler-name``
    Every subclass chain must override the class-level ``name``; two
    schedulers reporting as ``"base"`` make experiment tables
    indistinguishable.
``scheduler-export``
    Every public subclass must be listed in the ``__all__`` of
    ``schedulers/__init__.py`` so registries, docs and the determinism
    regression tests can enumerate it.
``ctx-mutation``
    Scheduler hooks receive a shared :class:`SchedulerContext`; a store or
    delete on an attribute of a parameter named ``ctx`` (or annotated
    ``SchedulerContext``) inside ``TaskScheduler`` or a subclass corrupts
    every other scheduler decision in the run.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.analysis.check.findings import Finding
from repro.analysis.check.project import ClassInfo, Project, _iter_assign_targets

__all__ = ["check_contracts"]

_ROOT = "TaskScheduler"
_HOOKS = ("select_map", "select_reduce")


def _assigns(node: ast.ClassDef, attr: str) -> bool:
    """Whether the class body binds ``attr`` at class level."""
    for stmt in node.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and any(
            isinstance(t, ast.Name) and t.id == attr
            for t in _iter_assign_targets(stmt)
        ):
            return True
    return False


def _scheduler_exports(project: Project) -> Optional[Set[str]]:
    """Names in a ``schedulers/__init__.py`` ``__all__``, if one is analyzed."""
    for module in project.modules.values():
        if module.scope.parts[-2:] != ("schedulers", "__init__.py"):
            continue
        return {
            elt.value
            for stmt in module.tree.body
            if isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
            and isinstance(stmt.value, (ast.List, ast.Tuple))
            for elt in stmt.value.elts
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
        }
    return None


def _is_ctx(arg: ast.arg) -> bool:
    ann = arg.annotation
    hint = getattr(ann, "attr", None) or getattr(ann, "id", None)
    return arg.arg == "ctx" or hint == "SchedulerContext"


def _ctx_mutations(info: ClassInfo) -> List[Finding]:
    findings: Dict[int, Finding] = {}  # by statement: nested defs walk twice
    for func in ast.walk(info.node):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = func.args
        ctx = {
            a.arg
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
            if _is_ctx(a)
        }
        if not ctx:
            continue
        for stmt in ast.walk(func):
            if not isinstance(stmt, ast.stmt):
                continue
            for target in _iter_assign_targets(stmt):
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in ctx
                ):
                    findings[id(stmt)] = Finding(
                        path=info.module.path, line=stmt.lineno,
                        col=stmt.col_offset + 1, rule="ctx-mutation",
                        message=(
                            "scheduler mutates shared context field "
                            f"`{target.value.id}.{target.attr}`; "
                            "SchedulerContext is read-only for schedulers"
                        ),
                    )
    return list(findings.values())


def check_contracts(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    exports = _scheduler_exports(project)
    for name in sorted(project.descendants(_ROOT)):
        for info in project.classes.get(name, []):
            findings.extend(_ctx_mutations(info))
        info = project.class_named(name)
        if name == _ROOT or info is None:
            continue
        lineage = [c for c in project.lineage(name) if c.name != _ROOT]
        broken = [
            ("scheduler-hooks",
             f"{name} subclasses TaskScheduler but never implements "
             f"{hook}(); the base raises NotImplementedError on the first "
             "heartbeat")
            for hook in _HOOKS
            if not any(hook in c.methods for c in lineage)
        ]
        if not any(_assigns(c.node, "name") for c in lineage):
            broken.append(("scheduler-name", (
                f"{name} never overrides the class-level `name` attribute; "
                "it would report as 'base' in every experiment table"
            )))
        if exports is not None and not name.startswith("_") and name not in exports:
            broken.append(("scheduler-export", (
                f"{name} is not exported from schedulers/__init__.py "
                "__all__; registries and regression tests cannot enumerate it"
            )))
        findings.extend(
            Finding(
                path=info.module.path, line=info.node.lineno,
                col=info.node.col_offset + 1, rule=rule, message=message,
            )
            for rule, message in broken
        )
    return findings
