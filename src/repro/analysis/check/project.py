"""Project loader: parse every module once, index symbols and writes.

:class:`Project` is the shared substrate of the four ``repro check``
passes.  It parses each source file into an :class:`ast.Module`, builds a
symbol table (modules, classes by name, functions by qualified name), links
the class inheritance graph, and indexes every *attribute write* in the
project — plain assignment, augmented assignment, subscript stores
(``self._m[k] = v`` mutates ``_m``), deletes, and calls of known mutating
methods (``self._m.append(x)`` mutates ``_m``).

Everything is plain ``ast`` — the analyzed project is never imported, so
the passes work identically on the live tree and on the defect fixtures in
the test suite.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = ["Project", "ModuleInfo", "ClassInfo", "FunctionInfo", "Write"]

#: method names whose call mutates the receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "popitem", "clear",
        "update", "setdefault", "add", "discard", "sort", "reverse", "fill",
    }
)

_SKIP_DIRS = {"__pycache__", ".git", ".hg", "build", "dist"}


@dataclass
class ModuleInfo:
    """One parsed source file."""

    name: str                     # dotted module name derived from the scope path
    path: str                     # display path (as given), used in reports
    scope: PurePosixPath          # path relative to the analysis root
    source: str
    tree: ast.Module


@dataclass
class FunctionInfo:
    """One function or method definition."""

    name: str                     # simple name
    qualname: str                 # "Class.method" or "function"
    module: ModuleInfo
    node: ast.AST                 # FunctionDef | AsyncFunctionDef
    owner: Optional[str] = None   # owning class simple name, if a method
    writes: List["Write"] = field(default_factory=list)


@dataclass
class ClassInfo:
    """One class definition with its direct methods and literal class attrs."""

    name: str
    module: ModuleInfo
    node: ast.ClassDef
    bases: Tuple[str, ...]
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: class-level ``name = <literal>`` assignments (e.g. trace ``type`` tags)
    class_literals: Dict[str, Tuple[object, int]] = field(default_factory=dict)


@dataclass
class Write:
    """One attribute-write site."""

    attr: str                     # attribute written
    is_self: bool                 # base expression is the bare name ``self``
    kind: str                     # "assign" | "aug" | "subscript" | "mutator" | "del"
    node: ast.AST                 # node carrying lineno/col_offset
    stmt: ast.stmt                # enclosing statement (guarantee-analysis anchor)
    func: Optional[FunctionInfo]  # None for module-level writes
    module: ModuleInfo = None     # type: ignore[assignment]


def _base_attribute(expr: ast.expr) -> Optional[ast.Attribute]:
    """Unwrap subscript chains to the underlying Attribute, if any.

    ``self._mpos[lid][slot]`` -> the ``self._mpos`` Attribute node.
    """
    while isinstance(expr, ast.Subscript):
        expr = expr.value
    return expr if isinstance(expr, ast.Attribute) else None


def _iter_assign_targets(stmt: ast.stmt) -> Iterator[ast.expr]:
    if isinstance(stmt, ast.Assign):
        for t in stmt.targets:
            if isinstance(t, (ast.Tuple, ast.List)):
                for elt in t.elts:
                    yield elt
            else:
                yield t
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        if stmt.target is not None:
            yield stmt.target
    elif isinstance(stmt, ast.Delete):
        for t in stmt.targets:
            yield t


class Project:
    """The parsed project: symbol table plus write index."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.classes: Dict[str, List[ClassInfo]] = {}
        self.functions: Dict[str, List[FunctionInfo]] = {}
        #: attr name -> every write to it anywhere in the project
        self.writes_by_attr: Dict[str, List[Write]] = {}
        #: modules that failed to parse: display path -> (lineno, col, msg)
        self.parse_errors: List[Tuple[str, int, int, str]] = []
        self._subclasses: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_sources(
        cls, sources: Sequence[Tuple[str, Path, str]]
    ) -> "Project":
        """Build from in-memory ``(display_path, scope_path, source)`` triples
        — the same shape :func:`repro.lint.lint_sources` takes."""
        project = cls()
        for display, scope, source in sources:
            try:
                tree = ast.parse(source, filename=display)
            except SyntaxError as exc:
                project.parse_errors.append(
                    (display, exc.lineno or 1, (exc.offset or 0) + 1, exc.msg)
                )
                continue
            scope = PurePosixPath(Path(scope).as_posix())
            name = ".".join(scope.with_suffix("").parts)
            info = ModuleInfo(
                name=name, path=display, scope=scope, source=source, tree=tree
            )
            project.modules[name] = info
            project._index_module(info)
        project._link_hierarchy()
        return project

    @classmethod
    def from_paths(cls, paths: Sequence[Path]) -> "Project":
        """Parse every ``*.py`` under ``paths`` (same discovery as lint)."""
        sources: List[Tuple[str, Path, str]] = []
        for root in paths:
            root = Path(root)
            if not root.exists():
                raise FileNotFoundError(f"no such path: {root}")
            base = root if root.is_dir() else root.parent
            for path in _iter_python_files(root):
                rel = path.relative_to(base)
                sources.append((str(path), rel, path.read_text(encoding="utf-8")))
        return cls.from_sources(sources)

    # ------------------------------------------------------------------
    # indexing
    # ------------------------------------------------------------------
    def _index_module(self, module: ModuleInfo) -> None:
        for stmt in module.tree.body:
            if isinstance(stmt, ast.ClassDef):
                self._index_class(module, stmt)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(module, stmt, owner=None)
            else:
                self._collect_writes(module, None, stmt)

    def _index_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        bases = tuple(
            b.id if isinstance(b, ast.Name) else b.attr
            for b in node.bases
            if isinstance(b, (ast.Name, ast.Attribute))
        )
        info = ClassInfo(name=node.name, module=module, node=node, bases=bases)
        self.classes.setdefault(node.name, []).append(info)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods[stmt.name] = self._index_function(
                    module, stmt, owner=node.name
                )
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name) and isinstance(
                    stmt.value, ast.Constant
                ):
                    info.class_literals[target.id] = (
                        stmt.value.value,
                        stmt.lineno,
                    )

    def _index_function(
        self, module: ModuleInfo, node: ast.AST, owner: Optional[str]
    ) -> FunctionInfo:
        qualname = f"{owner}.{node.name}" if owner else node.name
        info = FunctionInfo(
            name=node.name, qualname=qualname, module=module, node=node,
            owner=owner,
        )
        self.functions.setdefault(qualname, []).append(info)
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.stmt):
                self._collect_writes(module, info, stmt)
        return info

    def _collect_writes(
        self, module: ModuleInfo, func: Optional[FunctionInfo], stmt: ast.stmt
    ) -> None:
        def record(attr_node: ast.Attribute, kind: str) -> None:
            base = attr_node.value
            is_self = isinstance(base, ast.Name) and base.id == "self"
            write = Write(
                attr=attr_node.attr, is_self=is_self, kind=kind,
                node=attr_node, stmt=stmt, func=func, module=module,
            )
            self.writes_by_attr.setdefault(attr_node.attr, []).append(write)
            if func is not None:
                func.writes.append(write)

        for target in _iter_assign_targets(stmt):
            if isinstance(target, ast.Attribute):
                kind = {
                    ast.AugAssign: "aug",
                    ast.Delete: "del",
                }.get(type(stmt), "assign")
                record(target, kind)
            elif isinstance(target, ast.Subscript):
                base = _base_attribute(target)
                if base is not None:
                    record(base, "subscript")
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            callee = stmt.value.func
            if (
                isinstance(callee, ast.Attribute)
                and callee.attr in MUTATOR_METHODS
            ):
                base = _base_attribute(callee.value)
                if base is not None:
                    record(base, "mutator")

    def _link_hierarchy(self) -> None:
        for name, infos in self.classes.items():
            for info in infos:
                for base in info.bases:
                    self._subclasses.setdefault(base, set()).add(name)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def class_named(self, name: str) -> Optional[ClassInfo]:
        infos = self.classes.get(name)
        return infos[0] if infos else None

    def related_classes(self, name: str) -> Set[str]:
        """``name`` plus its transitive ancestors and descendants.

        A write in a base-class method mutates subclass instances (and vice
        versa), so cache-input matching spans the whole chain.
        """
        related: Set[str] = set()
        stack = [name]
        while stack:  # descendants
            current = stack.pop()
            if current in related:
                continue
            related.add(current)
            stack.extend(self._subclasses.get(current, ()))
        stack = [name]
        seen: Set[str] = set()
        while stack:  # ancestors
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            related.add(current)
            for info in self.classes.get(current, []):
                stack.extend(info.bases)
        return related

    def writes_to(self, class_name: str, attr: str) -> List[Write]:
        """Every project write plausibly mutating ``class_name.attr``.

        Self-writes are matched through the inheritance chain of
        ``class_name``.  For underscore-private attributes, non-``self``
        writes anywhere (``obj._attr = ...``) are matched too — a private
        name is assumed to belong to one class, while a public name like
        ``state`` would alias across unrelated classes.
        """
        related = self.related_classes(class_name)
        out: List[Write] = []
        for write in self.writes_by_attr.get(attr, []):
            if write.is_self:
                if write.func is not None and write.func.owner in related:
                    out.append(write)
            elif attr.startswith("_"):
                out.append(write)
        return out

    def iter_functions(self) -> Iterator[FunctionInfo]:
        for infos in self.functions.values():
            yield from infos

    def resolve_method(
        self, class_name: str, method: str
    ) -> Optional[FunctionInfo]:
        """Look up ``method`` on ``class_name`` or any of its ancestors."""
        seen: Set[str] = set()
        stack = [class_name]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            for info in self.classes.get(current, []):
                if method in info.methods:
                    return info.methods[method]
                stack.extend(info.bases)
        return None


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
