"""Hygiene pass: no raw unit literals, no ``print()`` in library code.

``magic-unit``
    All sizes in the library are bytes and all rates bytes/second, with
    :mod:`repro.units` providing the named constants (``KB``/``MB``/``GB``,
    ``Mbps``/``Gbps``).  A raw ``1e9`` is ambiguous three ways — decimal
    gigabyte, binary gibibyte, or gigabit — which is how bytes-vs-Gbps
    mix-ups corrupt every downstream figure.  Flagged anywhere except in
    ``repro.units`` itself: decimal power-of-ten factors (``1e3`` ...
    ``1e15``) in a multiplication or division, and binary size arithmetic
    (``x * 1024``, ``1024 ** n``, ``2 ** 20/30/40``, ``1 << 20/30/40``).
``no-print``
    Every library component *returns* its output — strings from renderers,
    records from the collector, events through the trace recorder — and
    only the entry points in :data:`PRINT_ALLOWED` write to stdout.  A
    stray ``print()`` cannot be captured by callers and pollutes benchmark
    output.  A local parameter named ``print`` shadows the builtin.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.check.findings import Finding
from repro.analysis.check.project import ModuleInfo, Project

__all__ = ["PRINT_ALLOWED", "check_hygiene"]

#: entry-point modules allowed to call ``print()``.
PRINT_ALLOWED = frozenset(
    {
        "repro.cli",
        "repro.__main__",
        "repro.analysis.check.runner",
        "repro.analysis.check.__main__",
    }
)

#: the module that *defines* the unit constants.
_UNITS_MODULE = "repro.units"

_KIB = 1024
#: 10**k factors that read as KB/MB/GB/TB or Kbps/Mbps/Gbps in context.
_DECIMAL_FACTORS = frozenset(float(10**k) for k in (3, 6, 9, 12, 15))
#: exponents whose power-of-two / shift spells a binary size unit.
_BINARY_EXPONENTS = frozenset({10, 20, 30, 40})


def _number(node: ast.AST):
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    ):
        return node.value
    return None


def _unit_message(node: ast.BinOp) -> Optional[str]:
    left, right = _number(node.left), _number(node.right)
    if isinstance(node.op, (ast.Mult, ast.Div)):
        for value in (left, right):
            if value is not None and float(value) in _DECIMAL_FACTORS:
                return (
                    f"magic factor {value:g}: use the named constants or "
                    "helpers from repro.units (KB/MB/GB, mbps/gbps)"
                )
        if isinstance(node.op, ast.Mult) and _KIB in (left, right):
            return "binary size arithmetic with raw 1024: use repro.units.KB/MB/GB"
    elif isinstance(node.op, ast.Pow):
        if (left == _KIB and isinstance(right, int) and right >= 1) or (
            left == 2 and right in _BINARY_EXPONENTS
        ):
            return (
                f"power-of-two size literal {left}**{right}: use "
                "repro.units.KB/MB/GB/TB"
            )
    elif isinstance(node.op, ast.LShift):
        if left == 1 and right in _BINARY_EXPONENTS:
            return f"shifted size literal 1 << {right}: use repro.units.KB/MB/GB/TB"
    return None


def _prints(node: ast.AST, shadowed: bool = False) -> Iterator[ast.Call]:
    """``print(...)`` calls under ``node`` that reach the builtin."""
    for child in ast.iter_child_nodes(node):
        inner = shadowed
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = child.args
            inner = shadowed or any(
                a.arg == "print"
                for a in (
                    *args.posonlyargs, *args.args, *args.kwonlyargs,
                    args.vararg, args.kwarg,
                )
                if a is not None
            )
        elif (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Name)
            and child.func.id == "print"
            and not shadowed
        ):
            yield child
        yield from _prints(child, inner)


def _module_findings(module: ModuleInfo) -> Iterator[Tuple[ast.AST, str, str]]:
    if module.name != _UNITS_MODULE:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.BinOp):
                message = _unit_message(node)
                if message is not None:
                    yield node, "magic-unit", message
    if module.name not in PRINT_ALLOWED:
        for call in _prints(module.tree):
            yield call, "no-print", (
                "print() call in library code: return the string or emit "
                "a trace event instead"
            )


def check_hygiene(project: Project) -> List[Finding]:
    findings: Dict[Tuple[str, int, int, str], Finding] = {}
    for module in project.modules.values():
        for node, rule, message in _module_findings(module):
            # nested products (128 * 1024 * 1024) share one anchor
            key = (module.path, node.lineno, node.col_offset, rule)
            findings.setdefault(key, Finding(
                path=module.path, line=node.lineno, col=node.col_offset + 1,
                rule=rule, message=message,
            ))
    return list(findings.values())
