"""Import-layer pass: no module-level import of a higher layer.

:data:`IMPORT_LAYERS` declares the package's layer order, lowest first.  A
``repro`` module may import, at module level, only modules of its own
layer or a lower one.  The rule ``import-layer`` fires on a module-level
upward import, absolute or relative, including one inside a ``try``, ``if``
or class body, and on a ``repro`` module that no layer covers.  Imports
inside functions and under ``if TYPE_CHECKING:`` are allowed.  Package
``__init__`` modules are checked like any other: importing
``repro.trace.events`` first runs ``repro/trace/__init__.py``, which is how
one eager re-export there once put scipy on every simulation's import path.

Only modules named ``repro.*`` are checked; module names come from the
package layout, so ``repro check src`` and ``repro check src/repro/engine``
agree.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.analysis.check.findings import Finding
from repro.analysis.check.project import ModuleInfo, Project

__all__ = ["IMPORT_LAYERS", "check_import_layers", "layer_of"]

_ROOT = "repro"

#: (layer name, entries), lowest layer first.  An entry names a module or a
#: package; a package entry covers every submodule no longer entry claims,
#: so ``repro.trace.export`` sits above the rest of ``repro.trace``.  The
#: bare root entry ``repro`` covers only the root package's ``__init__``.
#: Grounding: ``repro.obs`` imports nothing else from ``repro`` and the
#: event loop reads its profiler; ``cluster.routing``/``telemetry`` emit
#: trace events; ``core.scheduler`` subclasses ``schedulers.base`` while
#: ``schedulers.simple``/``coupling`` reuse ``core.cost``, so those two
#: packages share a layer.
IMPORT_LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("base", (
        "repro.accel", "repro.cache", "repro.coherence", "repro.lazy",
        "repro.obs", "repro.units",
    )),
    ("sim", ("repro.sim",)),
    ("trace", ("repro.trace",)),
    ("model", ("repro.metrics", "repro.workload")),
    ("cluster", ("repro.cluster",)),
    ("storage", ("repro.faults", "repro.hdfs", "repro.yarn")),
    ("policy", ("repro.core", "repro.schedulers")),
    ("engine", ("repro.engine",)),
    ("api", ("repro",)),
    ("export", (
        "repro.obs.dashboard", "repro.obs.export",
        "repro.trace.export", "repro.trace.render",
    )),
    ("analysis", ("repro.analysis",)),
    ("experiments", ("repro.experiments",)),
    ("cli", ("repro.__main__", "repro.cli")),
)


def layer_of(module: str) -> Optional[int]:
    """Index in :data:`IMPORT_LAYERS` of a dotted module name, or None."""
    best: Optional[Tuple[int, int]] = None  # (entry length, layer index)
    for index, (_name, entries) in enumerate(IMPORT_LAYERS):
        for entry in entries:
            covers = module == entry or (
                entry != _ROOT and module.startswith(entry + ".")
            )
            if covers and (best is None or len(entry) > best[0]):
                best = (len(entry), index)
    return None if best is None else best[1]


def _is_type_checking(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


def _module_level_imports(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Import statements that run when the module is first imported."""
    for stmt in body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            yield stmt
        elif isinstance(stmt, ast.If):
            if not _is_type_checking(stmt.test):
                yield from _module_level_imports(stmt.body)
            yield from _module_level_imports(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            for block in (stmt.body, stmt.orelse, stmt.finalbody):
                yield from _module_level_imports(block)
            for handler in stmt.handlers:
                yield from _module_level_imports(handler.body)
        elif isinstance(stmt, (ast.ClassDef, ast.With)):
            yield from _module_level_imports(stmt.body)


def _dotted_name(module: ModuleInfo) -> Tuple[str, bool]:
    """(dotted name, is a package ``__init__``) of ``module``."""
    if module.scope.name == "__init__.py":
        return module.name[: -len(".__init__")], True
    return module.name, False


def _targets(
    stmt: ast.stmt, name: str, is_package: bool, known: Set[str]
) -> Iterator[str]:
    """The modules one import statement loads, relative imports resolved."""
    if isinstance(stmt, ast.Import):
        for alias in stmt.names:
            yield alias.name
        return
    assert isinstance(stmt, ast.ImportFrom)
    base = stmt.module or ""
    if stmt.level:
        parts = name.split(".") if is_package else name.split(".")[:-1]
        parts = parts[: len(parts) - (stmt.level - 1)]
        base = ".".join(parts + ([stmt.module] if stmt.module else []))
    for alias in stmt.names:
        submodule = f"{base}.{alias.name}"
        # ``from pkg import sub`` loads pkg.sub; ``from mod import obj``
        # loads mod
        yield submodule if submodule in known else base


def check_import_layers(project: Project) -> List[Finding]:
    """Run the pass over every ``repro`` module of the project."""
    named = [(m, *_dotted_name(m)) for m in project.modules.values()]
    known = {name for _module, name, _pkg in named}
    findings: List[Finding] = []
    for module, name, is_package in named:
        if name != _ROOT and not name.startswith(_ROOT + "."):
            continue
        own = layer_of(name)
        if own is None:
            findings.append(Finding(
                path=module.path, line=1, col=1, rule="import-layer",
                message=(
                    f"module {name} is in no declared import layer; add it "
                    "to IMPORT_LAYERS in repro.analysis.check.layers"
                ),
            ))
            continue
        for stmt in _module_level_imports(module.tree.body):
            targets = set(_targets(stmt, name, is_package, known))
            for target in sorted(targets):
                layer = layer_of(target)
                if layer is None or layer <= own:
                    continue
                findings.append(Finding(
                    path=module.path, line=stmt.lineno,
                    col=stmt.col_offset + 1, rule="import-layer",
                    message=(
                        f"{name} ({IMPORT_LAYERS[own][0]} layer) imports "
                        f"{target} ({IMPORT_LAYERS[layer][0]} layer) at "
                        "module level; move the import into the function "
                        "that needs it, or move the code down a layer"
                    ),
                ))
    return findings
