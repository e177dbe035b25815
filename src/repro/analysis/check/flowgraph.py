"""Path analysis: is a cache invalidated on *every* path after a write?

Given a function containing a write to a declared cache input, the
cache-coherence pass must decide whether a *guarantee* — a bump of the
declared version attribute, or a call to the declared invalidator — executes
on every control-flow path from the write to the function's exit.  The
canonical shapes this must accept (all present in the live tree)::

    self._count[flow.route_ids] -= 1   # subscript write
    self.epoch += 1                    # bump after it: guaranteed

    self._eff[lid] = cap               # write in FlowNetwork._set_capacity
    self.epoch += 1                    # unconditional bump: guaranteed
    if self._seen[lid]:
        self._mark_dirty()

    self.state = TaskState.DONE
    self.job._invalidate_map_views()   # invalidator call: guaranteed

and the shapes it must reject::

    self._eff[lid] = cap
    if self._seen[lid]:
        self.epoch += 1                # bump on one branch only

    self._count[ids] += 1
    if rare:
        return None                    # escapes without a bump
    self.epoch += 1

The analysis is syntactic and deliberately conservative: loops are never
assumed to execute, an ``if`` only guarantees when *both* branches do, and
any statement that can exit the function (``return``/``raise`` anywhere
inside it) blocks the scan unless the statement itself guarantees.  Calls
guarantee transitively — a suffix call to a helper whose own body bumps on
every path counts — with a small depth cap to keep the walk linear.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.check.project import callee_name

__all__ = ["Guard", "write_is_guaranteed", "function_guarantees"]

_MAX_CALL_DEPTH = 3

#: resolver(simple_name) -> the function's AST, for transitive calls.
Resolver = Callable[[str], Optional[ast.AST]]


@dataclass
class Guard:
    """What counts as an invalidation for one cache declaration."""

    #: final attribute name of the version counter (``epoch`` for a
    #: declared version of ``network.epoch``), or None.
    version_attr: Optional[str] = None
    #: invalidator method names; a call to any of them guarantees.
    invalidators: frozenset = frozenset()
    #: resolves helper names for transitive guarantees.
    resolver: Optional[Resolver] = None
    _memo: Dict[int, bool] = field(default_factory=dict)


def _is_version_bump(stmt: ast.stmt, guard: Guard) -> bool:
    if guard.version_attr is None:
        return False
    targets: List[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        for t in stmt.targets:
            targets.extend(t.elts if isinstance(t, (ast.Tuple, ast.List)) else [t])
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)) and stmt.target is not None:
        targets.append(stmt.target)
    return any(
        isinstance(t, ast.Attribute) and t.attr == guard.version_attr
        for t in targets
    )


def _contains_exit(node: ast.AST) -> bool:
    """True when the statement can leave the enclosing function."""
    for child in ast.walk(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # a nested def's returns are not our exits (walk still
            # descends, but nested returns are rare enough to tolerate)
        if isinstance(child, (ast.Return, ast.Raise)):
            return True
    return False


def _stmt_guarantees(stmt: ast.stmt, guard: Guard, depth: int) -> bool:
    if _is_version_bump(stmt, guard):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        name = callee_name(stmt.value)
        if name is not None:
            if name in guard.invalidators:
                return True
            if depth > 0 and guard.resolver is not None:
                helper = guard.resolver(name)
                if helper is not None and function_guarantees(
                    helper, guard, depth - 1
                ):
                    return True
        return False
    if isinstance(stmt, ast.If):
        return (
            bool(stmt.orelse)
            and _body_guarantees(stmt.body, guard, depth)
            and _body_guarantees(stmt.orelse, guard, depth)
        )
    if isinstance(stmt, ast.With):
        return _body_guarantees(stmt.body, guard, depth)
    if isinstance(stmt, ast.Try):
        return _body_guarantees(stmt.body, guard, depth) or _body_guarantees(
            stmt.finalbody, guard, depth
        )
    # For/While bodies may run zero times: never a guarantee.
    return False


def _body_guarantees(body: List[ast.stmt], guard: Guard, depth: int) -> bool:
    """Scan a statement list in order; True once a guarantee must run."""
    for stmt in body:
        if _stmt_guarantees(stmt, guard, depth):
            return True
        if _contains_exit(stmt):
            return False  # may leave the function before any guarantee
    return False


def function_guarantees(func: ast.AST, guard: Guard, depth: int) -> bool:
    """Does calling ``func`` bump/invalidate on every path?"""
    key = id(func)
    memo = guard._memo
    if key in memo:
        return memo[key]
    memo[key] = False  # cycle breaker: recursive helpers don't guarantee
    result = _body_guarantees(getattr(func, "body", []), guard, depth)
    memo[key] = result
    return result


def _statement_lists(stmt: ast.stmt) -> List[List[ast.stmt]]:
    out: List[List[ast.stmt]] = []
    for name in ("body", "orelse", "finalbody"):
        block = getattr(stmt, name, None)
        if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
            out.append(block)
    for handler in getattr(stmt, "handlers", []) or []:
        if handler.body:
            out.append(handler.body)
    return out


def _find_spine(
    body: List[ast.stmt], target: ast.stmt
) -> Optional[List[Tuple[List[ast.stmt], int]]]:
    """Chain of ``(statement_list, index)`` from ``body`` down to ``target``."""
    for i, stmt in enumerate(body):
        if stmt is target:
            return [(body, i)]
        for block in _statement_lists(stmt):
            rest = _find_spine(block, target)
            if rest is not None:
                return [(body, i)] + rest
    return None


def write_is_guaranteed(
    func: ast.AST, write_stmt: ast.stmt, guard: Guard
) -> bool:
    """True when every path from ``write_stmt`` to exit runs a guarantee.

    Walks the suffix of the write's own block, then the suffixes of each
    enclosing block (after the enclosing ``if``/``for``/``with``), out to
    the function body.  Conservative: a non-guaranteeing statement that may
    exit the function fails the scan at that level.
    """
    if _stmt_guarantees(write_stmt, guard, _MAX_CALL_DEPTH):
        return True  # the write is itself the bump (version is the input)
    spine = _find_spine(getattr(func, "body", []), write_stmt)
    if spine is None:
        return False
    for body, index in reversed(spine):
        for stmt in body[index + 1 :]:
            if _stmt_guarantees(stmt, guard, _MAX_CALL_DEPTH):
                return True
            if _contains_exit(stmt):
                return False
    return False
