"""The rule table and the finding record every ``repro check`` pass emits.

A :class:`Finding` pins one defect to a file, line and column, names the
rule that fired (the same name used in ``# repro: lint-ok[<rule>]`` waivers
and in the committed baseline) and carries a human-readable message.
Findings order by location so reports are stable across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Finding", "RULES"]

#: rule name -> one-line description, across every check pass.
RULES = {
    # cache-coherence pass
    "cache-missing-bump": (
        "declared cache input written without a version bump or "
        "invalidator call on every path"
    ),
    "cache-unwatched-input": (
        "declared cache input mutated but not covered by the declared "
        "attribute watcher"
    ),
    "cache-decl-unresolved": (
        "cache declaration references a class, method or field the "
        "project does not define"
    ),
    # RNG-provenance pass
    "rng-ambient": "random state drawn from OS entropy or the global numpy RNG",
    "rng-constant-seed": "generator self-seeded with a baked-in constant",
    "rng-unprovenanced": (
        "generator seeded from a value that does not trace back to an "
        "injected seed or a registered SeedSequence substream"
    ),
    "rng-duplicate-stream": "duplicate index or purpose in an RNG_STREAMS registry",
    "rng-stream-count": (
        "SeedSequence.spawn count disagrees with the unpack targets or "
        "the RNG_STREAMS registry"
    ),
    # closed-vocabulary pass
    "vocab-unknown": "string used at a vocabulary site is not a declared member",
    "vocab-unused": "declared vocabulary member is never used anywhere",
    # determinism pass (simulation-critical packages only)
    "wallclock": "wall-clock read inside simulation-critical code",
    "global-rng": "call through stdlib random's process-global state",
    # hygiene pass
    "magic-unit": "raw size/rate literal where repro.units helpers exist",
    "no-print": "print() in library code; return strings or emit trace events",
    # scheduler-contract pass
    "scheduler-hooks": "TaskScheduler subclass missing select_map/select_reduce",
    "scheduler-name": "TaskScheduler subclass chain never overrides `name`",
    "scheduler-export": "TaskScheduler subclass absent from schedulers __all__",
    "ctx-mutation": "scheduler mutates a SchedulerContext field",
    # import-layer pass
    "import-layer": (
        "module-level import of a higher layer, or a module in no "
        "declared layer"
    ),
    # infrastructure
    "parse-error": "file does not parse",
    "unknown-waiver": "suppression marker names a rule that does not exist",
}


@dataclass(frozen=True, order=True)
class Finding:
    """One check finding, anchored to a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        """``path:line:col: [rule] message`` — editor-clickable."""
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"

    def fingerprint(self) -> str:
        """Line-independent identity used by the baseline ratchet.

        Deliberately excludes ``line``/``col`` so unrelated edits that shift
        a baselined finding do not break CI; includes the message so two
        different defects on one file never collapse.
        """
        return f"{self.rule}|{self.path}|{self.message}"
