"""Project loader: parse every module once, index symbols and writes.

:class:`Project` is the shared substrate of every ``repro check`` pass.
It parses each source file into an :class:`ast.Module`, resolves each
module's import aliases, builds a symbol table (modules, classes by name,
functions by qualified name), links the class inheritance graph, and
indexes every *attribute write* in the project — plain assignment,
augmented assignment, subscript stores (``self._m[k] = v`` mutates
``_m``), deletes, calls of known mutating methods
(``self._m.append(x)`` mutates ``_m``), and calls of declared C-kernel
entries, which write arrays through raw pointers the source never names
at the call: a module-level ``KERNEL_WRITES`` dict literal maps an entry
name to the ``"Class.attr"`` arrays it writes, and a call statement
``x.entry(...)`` in a method of that class writes each of them.

Everything is plain ``ast`` — the analyzed project is never imported, so
the passes work identically on the live tree and on the defect fixtures in
the test suite.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Project", "ModuleInfo", "ClassInfo", "FunctionInfo", "Write",
    "callee_name", "read_sources",
]

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
    scope: PurePosixPath          # path relative to the package root
    source: str
    tree: ast.Module
    #: local name -> absolute dotted name it is bound to by an import
    imports: Dict[str, str] = field(default_factory=dict)

    def qualified(self, expr: ast.expr) -> Optional[str]:
        """``a.b.c`` with its head resolved through the module's imports.

        ``np.random.rand`` -> ``numpy.random.rand`` under ``import numpy as
        np``; None when the head is not an imported name.
        """
        parts: List[str] = []
        while isinstance(expr, ast.Attribute):
            parts.append(expr.attr)
            expr = expr.value
        if not isinstance(expr, ast.Name) or expr.id not in self.imports:
            return None
        return ".".join([self.imports[expr.id], *reversed(parts)])


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
    kind: str                     # "assign" | "aug" | "subscript" | "mutator" | "del" | "kernel"
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


def callee_name(call: ast.Call) -> Optional[str]:
    """The called name: ``f`` for ``f(...)``, ``m`` for ``x.y.m(...)``."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Every absolute import in the module, as local name -> dotted name."""
    out: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    out[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    out[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                out[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return out


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
        #: C-kernel entry name -> the attributes a call of it writes
        self.kernel_writes: Dict[str, Tuple[str, ...]] = {}
        self._subclasses: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_sources(
        cls, sources: Sequence[Tuple[str, Path, str]]
    ) -> "Project":
        """Build from in-memory ``(display_path, scope_path, source)`` triples.

        The scope path is the file's path below its package root; its
        parts name the module (``repro/engine/task.py`` is
        ``repro.engine.task``)."""
        project = cls()
        parsed: List[ModuleInfo] = []
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
                name=name, path=display, scope=scope, source=source, tree=tree,
                imports=_import_aliases(tree),
            )
            project.modules[name] = info
            parsed.append(info)
        for info in parsed:
            project._declare_kernel_writes(info.tree)
        for info in parsed:
            project._index_module(info)
        project._link_hierarchy()
        return project

    @classmethod
    def from_paths(cls, paths: Sequence[Path]) -> "Project":
        """Parse every ``*.py`` under ``paths`` (see :func:`read_sources`)."""
        return cls.from_sources(read_sources(paths))

    # ------------------------------------------------------------------
    # indexing
    # ------------------------------------------------------------------
    def _declare_kernel_writes(self, tree: ast.Module) -> None:
        for stmt in tree.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == "KERNEL_WRITES"
                and isinstance(stmt.value, ast.Dict)
            ):
                for key, value in zip(stmt.value.keys, stmt.value.values):
                    if isinstance(key, ast.Constant) and isinstance(
                        value, (ast.Tuple, ast.List)
                    ):
                        self.kernel_writes[key.value] = tuple(
                            elt.value.rsplit(".", 1)[-1]
                            for elt in value.elts
                            if isinstance(elt, ast.Constant)
                            and isinstance(elt.value, str)
                        )

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
        def record(
            attr_node: ast.Attribute, kind: str, attr: Optional[str] = None
        ) -> None:
            base = attr_node.value
            # a kernel call writes its declared arrays on ``self``
            is_self = kind == "kernel" or (
                isinstance(base, ast.Name) and base.id == "self"
            )
            attr = attr or attr_node.attr
            write = Write(
                attr=attr, is_self=is_self, kind=kind,
                node=attr_node, stmt=stmt, func=func, module=module,
            )
            self.writes_by_attr.setdefault(attr, []).append(write)
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
        if (
            isinstance(stmt, (ast.Expr, ast.Assign))
            and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Attribute)
        ):
            for attr in self.kernel_writes.get(stmt.value.func.attr, ()):
                record(stmt.value.func, "kernel", attr)

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

    def descendants(self, name: str) -> Set[str]:
        """``name`` plus every class transitively subclassing it."""
        out: Set[str] = set()
        stack = [name]
        while stack:
            current = stack.pop()
            if current not in out:
                out.add(current)
                stack.extend(self._subclasses.get(current, ()))
        return out

    def lineage(self, name: str) -> List[ClassInfo]:
        """Every definition of ``name`` and of its known ancestors, in
        method-lookup order."""
        out: List[ClassInfo] = []
        seen: Set[str] = set()
        stack = [name]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            for info in self.classes.get(current, []):
                out.append(info)
                stack.extend(info.bases)
        return out

    def related_classes(self, name: str) -> Set[str]:
        """``name`` plus its transitive ancestors and descendants.

        A write in a base-class method mutates subclass instances (and vice
        versa), so cache-input matching spans the whole chain.
        """
        return self.descendants(name) | {c.name for c in self.lineage(name)}

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
        for info in self.lineage(class_name):
            if method in info.methods:
                return info.methods[method]
        return None


def read_sources(paths: Sequence[Path]) -> List[Tuple[str, PurePosixPath, str]]:
    """``(display path, scope path, source)`` for every ``*.py`` under ``paths``.

    The scope path is relative to the nearest ancestor of the given path
    that is not a package (holds no ``__init__.py``), so ``src``,
    ``src/repro/engine`` and ``src/repro/engine/task.py`` all name that file
    ``repro/engine/task.py`` and every pass sees the same module.
    """
    sources: List[Tuple[str, PurePosixPath, str]] = []
    for root in map(Path, paths):
        if not root.exists():
            raise FileNotFoundError(f"no such path: {root}")
        base = root.resolve() if root.is_dir() else root.resolve().parent
        while (base / "__init__.py").is_file() and base.parent != base:
            base = base.parent
        if root.is_file():
            files = [root] if root.suffix == ".py" else []
        else:
            files = [
                path for path in sorted(root.rglob("*.py"))
                if not any(
                    p in _SKIP_DIRS or p.endswith(".egg-info") or p.startswith(".")
                    for p in path.relative_to(root).parts[:-1]
                )
            ]
        for path in files:
            scope = PurePosixPath(path.resolve().relative_to(base).as_posix())
            sources.append((str(path), scope, path.read_text(encoding="utf-8")))
    return sources
