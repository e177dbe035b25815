"""Compute nodes: slots, disk, and relative compute speed.

A :class:`Node` mirrors a Hadoop-1.x TaskTracker machine: it owns a fixed
number of map slots and reduce slots (the paper configures 4 map + 2 reduce
slots per node), a local-disk streaming bandwidth used for node-local reads,
and a ``compute_factor`` allowing heterogeneous clusters (1.0 = nominal).

Slot accounting lives here; the JobTracker asks nodes for free slots on every
heartbeat and the engine acquires/releases them around task execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.units import MB

__all__ = ["Node", "SlotExhausted"]


class SlotExhausted(RuntimeError):
    """Raised when acquiring a slot on a node that has none free."""


#: Fields whose writes invalidate the cluster's cached free-slot views.
_WATCHED_FIELDS = frozenset({"running_maps", "running_reduces", "alive"})


@dataclass
class Node:
    """A single cluster machine.

    Parameters
    ----------
    name:
        Unique identifier (e.g. ``"r0n3"``).
    rack:
        Rack identifier used for locality classification and for the default
        HDFS replica-placement policy.
    index:
        Dense integer id assigned by the cluster; indexes the path-cost views.
    map_slots, reduce_slots:
        Slot capacity (Hadoop-1 style static slots).
    disk_bandwidth:
        Sequential streaming rate for node-local block reads, bytes/s.
    compute_factor:
        Multiplier on application compute rates (heterogeneity knob).
    """

    name: str
    rack: str
    index: int = -1
    map_slots: int = 4
    reduce_slots: int = 2
    disk_bandwidth: float = 400.0 * MB
    compute_factor: float = 1.0

    running_maps: int = field(default=0, init=False)
    running_reduces: int = field(default=0, init=False)
    #: physical liveness, toggled by the fault injector.  A dead node's
    #: flows are frozen and its slots are unofferable; the JobTracker
    #: notices via missed heartbeats (``tracker_expiry_interval``), not
    #: instantly — exactly like a real TaskTracker loss.
    alive: bool = field(default=True, init=False)
    #: bumped by the fault injector on every crash so the tracker can tell
    #: a restarted node from one that never went away (a TaskTracker that
    #: re-registers within the expiry window still lost all its state).
    incarnation: int = field(default=0, init=False)

    # ------------------------------------------------------------------
    # slot accounting
    # ------------------------------------------------------------------
    @property
    def free_map_slots(self) -> int:
        return self.map_slots - self.running_maps

    @property
    def free_reduce_slots(self) -> int:
        return self.reduce_slots - self.running_reduces

    def acquire_map_slot(self) -> None:
        if self.free_map_slots <= 0:
            raise SlotExhausted(f"{self.name}: no free map slot")
        self.running_maps += 1

    def release_map_slot(self) -> None:
        if self.running_maps <= 0:
            raise SlotExhausted(f"{self.name}: releasing unheld map slot")
        self.running_maps -= 1

    def acquire_reduce_slot(self) -> None:
        if self.free_reduce_slots <= 0:
            raise SlotExhausted(f"{self.name}: no free reduce slot")
        self.running_reduces += 1

    def release_reduce_slot(self) -> None:
        if self.running_reduces <= 0:
            raise SlotExhausted(f"{self.name}: releasing unheld reduce slot")
        self.running_reduces -= 1

    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        # Slot/liveness writes notify the owning cluster so it can dirty its
        # cached free-slot views.  A plain attribute hook (rather than
        # wrapping acquire/release) also catches subclasses that write the
        # counters directly (repro.yarn's ContainerNode) and the fault
        # injector toggling ``alive``.
        object.__setattr__(self, name, value)
        if name in _WATCHED_FIELDS:
            watcher = self.__dict__.get("_slot_watcher")
            if watcher is not None:
                watcher()

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return (
            f"Node({self.name!r}, rack={self.rack!r}, "
            f"maps={self.running_maps}/{self.map_slots}, "
            f"reduces={self.running_reduces}/{self.reduce_slots})"
        )
