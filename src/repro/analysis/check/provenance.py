"""RNG-provenance pass: every generator must trace to an injected substream.

The repo's determinism contract (see ``repro.engine.simulation``): one
integer seed fans out through ``numpy.random.SeedSequence`` into named,
uniquely-indexed child streams declared in a module-level ``RNG_STREAMS``
registry; every ``default_rng``/``Generator`` constructed anywhere must be
seeded from one of those children or from an explicitly injected parameter.
This pass verifies the contract statically, whole-program:

* ``rng-ambient`` — ``default_rng()`` / ``SeedSequence()`` with no
  arguments (OS entropy), or any call into numpy's global singleton
  (``np.random.rand``, ``np.random.seed``, an imported
  ``numpy.random.shuffle`` ...) — everything in ``numpy.random`` but the
  generator-construction API;
* ``rng-constant-seed`` — a generator self-seeded with a baked-in literal;
* ``rng-unprovenanced`` — a seed expression that does not trace back to an
  injected parameter (``seed``, ``rng``, ``seed_seq``, ``*_ss``,
  ``*_seed``, ``*_rng``) or to a ``spawn`` of a provenanced sequence;
* ``rng-duplicate-stream`` — an ``RNG_STREAMS`` registry with a repeated
  spawn index or purpose (two subsystems sharing one stream would couple
  their draws);
* ``rng-stream-count`` — a ``spawn(n)`` whose ``n`` disagrees with the
  number of unpack targets, or with the module's registry when spawned as
  ``spawn(len(RNG_STREAMS))``.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.analysis.check.findings import Finding
from repro.analysis.check.project import ModuleInfo, Project, callee_name

__all__ = ["check_provenance"]

#: parameter / attribute names treated as externally injected randomness.
_INJECTED_NAMES = frozenset(
    {"seed", "rng", "seed_seq", "seed_sequence", "ss", "entropy"}
)
_INJECTED_SUFFIXES = ("_seed", "_rng", "_ss", "_seed_seq")

#: numpy.random attributes that construct explicit generators; every other
#: ``numpy.random`` call goes through the global singleton.
_GENERATOR_API = frozenset(
    {
        "default_rng", "Generator", "SeedSequence", "BitGenerator",
        "MT19937", "PCG64", "PCG64DXSM", "Philox", "SFC64",
    }
)

_MAX_DEPTH = 8


def _is_injected_name(name: str) -> bool:
    return name in _INJECTED_NAMES or name.endswith(_INJECTED_SUFFIXES)


def _is_global_draw(target: Optional[str]) -> bool:
    """``numpy.random.<attr>`` outside the generator-construction API."""
    prefix = "numpy.random."
    if target is None or not target.startswith(prefix):
        return False
    attr = target[len(prefix):]
    return "." not in attr and attr not in _GENERATOR_API


def _literal_only(node: ast.expr) -> bool:
    """True when the expression is built purely from literals."""
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return all(_literal_only(e) for e in node.elts)
    if isinstance(node, ast.BinOp):
        return _literal_only(node.left) and _literal_only(node.right)
    if isinstance(node, ast.UnaryOp):
        return _literal_only(node.operand)
    return False


class _FunctionScope:
    """Local name bindings of one function, for provenance tracing."""

    def __init__(self, func: Optional[ast.AST]) -> None:
        self.params: Set[str] = set()
        self.bindings: Dict[str, ast.expr] = {}
        #: names bound by unpacking a ``spawn`` call's result
        self.spawn_products: Dict[str, ast.Call] = {}
        if func is None:
            return
        args = getattr(func, "args", None)
        if args is not None:
            for a in (
                list(args.posonlyargs) + list(args.args)
                + list(args.kwonlyargs)
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            ):
                self.params.add(a.arg)
        for stmt in ast.walk(func):
            if not isinstance(stmt, ast.Assign):
                continue
            value = stmt.value
            is_spawn = (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "spawn"
            )
            for target in stmt.targets:
                if isinstance(target, (ast.Tuple, ast.List)):
                    for elt in target.elts:
                        if isinstance(elt, ast.Name):
                            if is_spawn:
                                self.spawn_products[elt.id] = value
                            else:
                                self.bindings.setdefault(elt.id, value)
                elif isinstance(target, ast.Name):
                    if is_spawn:
                        self.spawn_products[target.id] = value
                    else:
                        self.bindings.setdefault(target.id, value)

    def provenanced(self, node: ast.expr, depth: int = _MAX_DEPTH) -> bool:
        if depth <= 0:
            return False
        if isinstance(node, ast.Name):
            if node.id in self.spawn_products:
                call = self.spawn_products[node.id]
                return self.provenanced(call.func.value, depth - 1)
            if node.id in self.params and _is_injected_name(node.id):
                return True
            if node.id in self.bindings:
                return self.provenanced(self.bindings[node.id], depth - 1)
            return _is_injected_name(node.id)
        if isinstance(node, ast.Attribute):
            # self._churn_ss / tracker.seed / spec.seed: name-convention match
            return _is_injected_name(node.attr)
        if isinstance(node, ast.Call):
            name = callee_name(node)
            if name == "spawn" and isinstance(node.func, ast.Attribute):
                return self.provenanced(node.func.value, depth - 1)
            if name in ("SeedSequence", "default_rng", "Generator"):
                return any(
                    self.provenanced(a, depth - 1) for a in node.args
                )
            return False
        if isinstance(node, (ast.Tuple, ast.List)):
            return any(self.provenanced(e, depth - 1) for e in node.elts)
        if isinstance(node, ast.BinOp):
            return self.provenanced(node.left, depth - 1) or self.provenanced(
                node.right, depth - 1
            )
        if isinstance(node, ast.Subscript):
            return self.provenanced(node.value, depth - 1)
        if isinstance(node, ast.IfExp):
            return self.provenanced(node.body, depth - 1) and self.provenanced(
                node.orelse, depth - 1
            )
        return False


def _registry(module: ModuleInfo) -> Optional[ast.Dict]:
    for stmt in module.tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == "RNG_STREAMS"
            and isinstance(stmt.value, ast.Dict)
        ):
            return stmt.value
    return None


def _spawn_count(
    call: ast.Call, registry_size: Optional[int]
) -> Optional[int]:
    if not call.args:
        return 1  # spawn() is spawn's TypeError, but be permissive
    arg = call.args[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, int):
        return arg.value
    if (
        isinstance(arg, ast.Call)
        and isinstance(arg.func, ast.Name)
        and arg.func.id == "len"
        and arg.args
        and isinstance(arg.args[0], ast.Name)
        and arg.args[0].id == "RNG_STREAMS"
    ):
        return registry_size
    return None


def check_provenance(project: Project) -> List[Finding]:
    findings: List[Finding] = []

    def emit(module: ModuleInfo, node: ast.AST, rule: str, msg: str) -> None:
        findings.append(
            Finding(
                path=module.path, line=node.lineno, col=node.col_offset + 1,
                rule=rule, message=msg,
            )
        )

    for module in project.modules.values():
        registry = _registry(module)
        registry_size: Optional[int] = None
        if registry is not None:
            registry_size = len(registry.keys)
            seen_keys: Set[object] = set()
            seen_values: Set[object] = set()
            for key, value in zip(registry.keys, registry.values):
                if isinstance(key, ast.Constant):
                    if key.value in seen_keys:
                        emit(
                            module, key, "rng-duplicate-stream",
                            f"RNG_STREAMS index {key.value!r} is declared "
                            "twice — later entries silently shadow earlier "
                            "ones and two subsystems would share one stream",
                        )
                    seen_keys.add(key.value)
                if isinstance(value, ast.Constant):
                    if value.value in seen_values:
                        emit(
                            module, value, "rng-duplicate-stream",
                            f"RNG_STREAMS purpose {value.value!r} is "
                            "declared under two indices",
                        )
                    seen_values.add(value.value)
            registry_size = len(seen_keys) if seen_keys else registry_size

        # map every function (and the module body) to its scope
        scopes: List = [(None, _FunctionScope(None))]
        for qual, infos in project.functions.items():
            for info in infos:
                if info.module is module:
                    scopes.append((info, _FunctionScope(info.node)))

        for info, scope in scopes:
            root = info.node if info is not None else module.tree
            nested = (
                {
                    id(n)
                    for fn in ast.walk(root)
                    if fn is not root
                    and isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    for n in ast.walk(fn)
                }
                if info is None
                else set()
            )
            for node in ast.walk(root):
                if id(node) in nested or not isinstance(node, ast.Call):
                    continue
                name = callee_name(node)
                if name == "spawn" and isinstance(node.func, ast.Attribute):
                    count = _spawn_count(node, registry_size)
                    targets = _unpack_arity(module.tree, node)
                    if (
                        count is not None
                        and targets is not None
                        and targets != count
                    ):
                        emit(
                            module, node, "rng-stream-count",
                            f"spawn of {count} child stream(s) unpacked into "
                            f"{targets} name(s) — the registry and the "
                            "unpack must agree",
                        )
                elif name == "default_rng" or name == "Generator":
                    if not node.args and not node.keywords:
                        emit(
                            module, node, "rng-ambient",
                            f"{name}() without a seed draws OS entropy — "
                            "seed it from the run's SeedSequence fan-out",
                        )
                    elif node.args:
                        arg = node.args[0]
                        if _literal_only(arg):
                            emit(
                                module, node, "rng-constant-seed",
                                f"{name}({ast.unparse(arg)}) is self-seeded "
                                "with a constant — inject the seed instead",
                            )
                        elif not scope.provenanced(arg):
                            emit(
                                module, node, "rng-unprovenanced",
                                f"{name}(...) seed {ast.unparse(arg)!r} does "
                                "not trace back to an injected seed or a "
                                "registered SeedSequence substream",
                            )
                elif name == "SeedSequence":
                    if not node.args and not node.keywords:
                        emit(
                            module, node, "rng-ambient",
                            "SeedSequence() without entropy draws from the "
                            "OS — pass the injected seed",
                        )
                    elif node.args and _literal_only(node.args[0]):
                        emit(
                            module, node, "rng-constant-seed",
                            "SeedSequence seeded with a baked-in constant — "
                            "inject the seed instead",
                        )
                elif _is_global_draw(target := module.qualified(node.func)):
                    emit(
                        module, node, "rng-ambient",
                        f"{target}() uses numpy's global RNG — "
                        "draw from an injected Generator",
                    )
    return findings


def _unpack_arity(tree: ast.Module, call: ast.Call) -> Optional[int]:
    """Number of names the enclosing assignment unpacks ``call`` into."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and node.value is call:
            if len(node.targets) == 1 and isinstance(
                node.targets[0], (ast.Tuple, ast.List)
            ):
                return len(node.targets[0].elts)
            return None
    return None
