"""Trace ledger: the sha256 of each work-ledger case's JSONL trace.

``tests/work_ledger.json`` pins how many calls each layer makes; this
ledger pins what the run *did*.  Every case of ``tests/test_work_ledger.py``
runs once more with ``EngineConfig.trace_jsonl`` set, and the digest of the
written file must equal the one committed in ``tests/trace_ledger.json``.
A speed-up that moves a single byte of any trace fails here, on whichever
fabric path is active: the C kernel and the numpy reference
(``REPRO_NO_CKERNEL=1``) must write the same bytes, so one digest per case
covers both.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from tests.test_work_ledger import SMALL_CASES, _simulations

LEDGER = Path(__file__).with_name("trace_ledger.json")


def _digests(trace: Path) -> dict:
    """Run every case, tracing to ``trace``; the digest of each file."""
    out = {}
    for name, sim in _simulations(trace_jsonl=str(trace)):
        sim.run()
        out[name] = hashlib.sha256(trace.read_bytes()).hexdigest()
        trace.unlink()
    return out


def test_traces_match_ledger(tmp_path):
    ledger = json.loads(LEDGER.read_text())
    measured = _digests(tmp_path / "trace.jsonl")
    problems = [
        f"{name}: expected {ledger.get(name)}, got {measured.get(name)}"
        for name in sorted(set(ledger) | set(measured))
        if ledger.get(name) != measured.get(name)
    ]
    if problems:
        regenerated = json.dumps(measured, indent=2, sort_keys=True)
        pytest.fail(
            "trace ledger mismatch:\n  " + "\n  ".join(problems)
            + f"\n\nregenerated {LEDGER.name}:\n{regenerated}\n",
            pytrace=False,
        )


def test_ledger_covers_every_work_ledger_case():
    ledger = json.loads(LEDGER.read_text())
    assert set(ledger) == {*SMALL_CASES, "clos_linkstate_faults"}
