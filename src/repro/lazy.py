"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exports names from a heavy or higher-layer
submodule lists them here instead of importing them, so importing the
package, or any light submodule of it, does not pay for the heavy one::

    __getattr__, __dir__ = lazy_exports(__name__, {
        ".render": ("ascii_timeline", "trace_summary"),
    })

Each name resolves on its first attribute access at its usual import path
(``from repro.trace import trace_summary`` works unchanged), is cached in
the package namespace, and is listed by ``dir(package)``.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """Module ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps a module, absolute or relative to ``package``
    (``".render"``), to the names it provides.
    """
    owner: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return __getattr__, __dir__
