"""Cache-coherence declarations and the ``REPRO_SANITIZE=cache`` sanitizer.

PR 4 built the scheduler hot path on epoch/version-keyed caches; PR 6 makes
the convention *verifiable*.  Every cached computation declares itself with
:func:`cached_on`::

    @cached_on("network.epoch", inputs=("FlowNetwork._link_flows",),
               reference="_inverse_rate_matrix_uncached",
               probe=lambda self: self._rate_view[0] == ...)
    def inverse_rate_matrix(self): ...

The declaration is read twice:

* **statically** — ``repro check`` parses the decorator (and any module-level
  ``CACHE_DEPS`` map) into its declaration registry and runs a whole-program
  dataflow pass: every attribute write that reaches a declared cache input
  must be accompanied by a bump of the declared version counter (or a call
  to the declared invalidator) on every path, or the write is flagged;
* **at runtime** — when the environment sets ``REPRO_SANITIZE=cache``, each
  declared cache shadow-executes its ``reference`` (the naive recompute kept
  as the ``REPRO_NO_CACHE=1`` escape hatch) on a deterministic sample of
  cache *hits* and asserts byte-equality, closing the loop between the
  static claim and runtime truth.  A mismatch raises
  :class:`CacheCoherenceError` immediately, naming the incoherent layer.

Declaration fields
------------------
``version``
    Attribute whose bump invalidates the cache (``"epoch"``; dotted paths
    such as ``"network.epoch"`` name a counter on a collaborator — only the
    final component is matched by the static pass).
``invalidator``
    Alternative to ``version``: the method whose call drops the cache
    (``"_invalidate_map_views"``).
``inputs``
    ``"Class.attr"`` names the cache is computed from.  The static pass
    hunts for unaccompanied writes to them; an unqualified name is owned by
    the decorated method's class.
``reference``
    Method name of the naive recompute used for runtime shadow execution
    (and checked to exist by the static pass).  It is also the cache
    bypass: when the instance's ``_no_cache`` flag is set
    (``REPRO_NO_CACHE=1``), the wrapper returns the reference instead of
    calling the cached method, so the method body needs no bypass branch.
``watcher``
    For caches invalidated through an attribute hook
    (``"Node.__setattr__"``): the static pass verifies the hook exists and
    that every input attribute appears in the module's watched-field set.
``probe``
    ``probe(self, *args, **kwargs) -> bool`` — True when the upcoming call
    will be served from the cache.  Only hits are shadow-verified (a miss
    recomputes anyway).
``sample``
    Verify the first hit and then every ``sample``-th one (pure counter —
    deterministic, no RNG draw that could shift a seeded run).

The sanitizer is off by default and the wrapper then adds the bypass
check and a single attribute check per call, so the hot path stays
cheap.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

__all__ = [
    "CacheCoherenceError",
    "CacheDecl",
    "DECLARATIONS",
    "cached_on",
    "sanitize_cache_active",
    "sanitizer_report",
    "set_sanitize_cache",
    "reset_sanitizer_stats",
]

#: Environment variable selecting runtime sanitizers (comma-separated).
ENV_VAR = "REPRO_SANITIZE"


class CacheCoherenceError(AssertionError):
    """A cached value diverged from its naive recompute."""


@dataclass
class CacheDecl:
    """One declared cache: where it lives and what keeps it honest."""

    qualname: str                      # "Class.method"
    version: Optional[str] = None      # attribute bumped on invalidation
    invalidator: Optional[str] = None  # method called on invalidation
    inputs: Tuple[str, ...] = ()       # "Class.attr" cache inputs
    reference: Optional[str] = None    # naive recompute method
    watcher: Optional[str] = None      # attribute hook guarding the inputs
    sample: int = 16                   # verify 1st hit, then every Nth
    # runtime counters (not part of the declaration identity)
    hits: int = field(default=0, compare=False)
    verified: int = field(default=0, compare=False)


#: qualname -> declaration, populated at import time by :func:`cached_on`.
DECLARATIONS: Dict[str, CacheDecl] = {}


class _State:
    __slots__ = ("cache",)

    def __init__(self) -> None:
        modes = os.environ.get(ENV_VAR, "")
        self.cache = "cache" in {m.strip() for m in modes.split(",")}


_STATE = _State()


def sanitize_cache_active() -> bool:
    """True when ``REPRO_SANITIZE=cache`` shadow verification is on."""
    return _STATE.cache


def set_sanitize_cache(active: bool) -> None:
    """Toggle the cache sanitizer at runtime (tests)."""
    _STATE.cache = bool(active)


def reset_sanitizer_stats() -> None:
    """Zero every declaration's hit/verified counters (tests)."""
    for decl in DECLARATIONS.values():
        decl.hits = 0
        decl.verified = 0


def sanitizer_report() -> Dict[str, Dict[str, int]]:
    """Per-declaration ``{"hits": n, "verified": n}`` counters."""
    return {
        name: {"hits": d.hits, "verified": d.verified}
        for name, d in sorted(DECLARATIONS.items())
    }


def _equivalent(a: object, b: object) -> bool:
    """Byte-exact structural equality (ndarrays compare raw buffers).

    Objects with a ``dense()`` method (the path-cost views of
    :mod:`repro.cluster.pathcost`) compare by the bytes of that matrix.
    """
    import numpy as np

    if hasattr(a, "dense") or hasattr(b, "dense"):
        if not (hasattr(a, "dense") and hasattr(b, "dense")):
            return False
        return _equivalent(a.dense(), b.dense())

    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if not isinstance(a, np.ndarray) or not isinstance(b, np.ndarray):
            return False
        return (
            a.shape == b.shape
            and a.dtype == b.dtype
            and a.tobytes() == b.tobytes()
        )
    if isinstance(a, (list, tuple)):
        if type(a) is not type(b) or len(a) != len(b):
            return False
        return all(_equivalent(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        if not isinstance(b, dict) or a.keys() != b.keys():
            return False
        return all(_equivalent(v, b[k]) for k, v in a.items())
    if isinstance(a, float) and isinstance(b, float):
        # exact: the caches promise byte-identity, NaN != NaN must not pass
        return a == b or (a != a and b != b)
    if a is b:
        return True
    return bool(a == b)


def cached_on(
    version: Optional[str] = None,
    *,
    inputs: Tuple[str, ...] = (),
    reference: Optional[str] = None,
    invalidator: Optional[str] = None,
    watcher: Optional[str] = None,
    probe: Optional[Callable[..., bool]] = None,
    sample: int = 16,
) -> Callable:
    """Declare a cached method (see the module docstring)."""
    if sample < 1:
        raise ValueError(f"sample must be >= 1, got {sample}")

    def decorate(fn: Callable) -> Callable:
        decl = CacheDecl(
            qualname=fn.__qualname__,
            version=version,
            invalidator=invalidator,
            inputs=tuple(inputs),
            reference=reference,
            watcher=watcher,
            sample=sample,
        )
        DECLARATIONS[decl.qualname] = decl

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            if reference is not None:
                try:
                    bypass = self._no_cache
                except AttributeError:
                    bypass = False
                if bypass:
                    return getattr(self, reference)(*args, **kwargs)
            if not _STATE.cache:
                return fn(self, *args, **kwargs)
            hit = bool(probe(self, *args, **kwargs)) if probe else False
            out = fn(self, *args, **kwargs)
            if hit:
                decl.hits += 1
                if reference is not None and (
                    decl.hits == 1 or decl.hits % decl.sample == 0
                ):
                    shadow = getattr(self, reference)(*args, **kwargs)
                    if not _equivalent(out, shadow):
                        raise CacheCoherenceError(
                            f"{decl.qualname}: cached value diverged from "
                            f"{reference}() recompute (version="
                            f"{decl.version!r}, invalidator="
                            f"{decl.invalidator!r}); a mutation of "
                            f"{decl.inputs} likely skipped its bump"
                        )
                    decl.verified += 1
            return out

        wrapper.__repro_cache_decl__ = decl
        return wrapper

    return decorate
