"""The fabric flow start path, by call counts that do not depend on the host.

With the C kernel loaded, starting a fabric flow is one kernel call
(``state_start``) on a route of link ids picked without building a link
key: no ``_canon`` call, and none of the numpy reference's
``_register_route``/``_settle_all``/``_attach``.  Without the kernel
(``REPRO_NO_CKERNEL=1``) the reference runs, once each per start, and
both paths write byte-identical traces.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest

from repro import accel
from repro.cluster import topologies, topology
from repro.cluster.network import FlowNetwork
from repro.cluster.topologies import clos_topology
from repro.cluster.topology import GraphTopology, rack_topology
from repro.sim import Simulator
from repro.units import MB
from tests.test_work_ledger import _clos_faults, _simulations

#: every entry of the compiled kernel's ctypes handle
KERNEL_ENTRIES = (
    "gather_min", "state_new", "state_free", "state_attach", "state_detach",
    "state_start", "tick_state", "refill_horizon_state",
)
REFERENCE = ("_register_route", "_settle_all", "_attach")


def _use_kernel(monkeypatch, on: bool):
    """Resolve the kernel handle afresh, loaded or switched off."""
    if on:
        monkeypatch.delenv("REPRO_NO_CKERNEL", raising=False)
    else:
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setattr(accel, "_loaded", None)
    monkeypatch.setattr(accel, "_load_attempted", False)
    kern = accel.refill_kernel()
    if on and kern is None:
        pytest.skip("C fabric kernel unavailable")
    assert (kern is not None) == on


def _topologies():
    # a tree (routes off its up-chains) and link-state and ECMP fabrics
    # (routes unranked from BFS records)
    yield rack_topology(3, 4)
    yield clos_topology(4, routing="linkstate")
    yield clos_topology(4, routing="ecmp")


def _pairs(topo):
    hosts = topo.hosts
    return [(a, b) for a in hosts[:3] for b in hosts if a != b]


class _Counts:
    """Calls of ``_canon``, the reference helpers and the kernel entries
    while the ``with`` block runs."""

    def __init__(self, net):
        self.net = net
        self.patches = []
        self.mocks = {}
        canon = topology._canon
        for module in (topology, topologies):
            self._wrap(module, "_canon", "_canon", canon)
        for name in REFERENCE:
            self._wrap(net, name, name, getattr(net, name))
        if net._kern is not None:
            for name in KERNEL_ENTRIES:
                self._wrap(net._kern, name, "kern." + name,
                           getattr(net._kern, name))

    def _wrap(self, owner, attr, key, target):
        m = self.mocks.get(key) or mock.Mock(wraps=target)
        self.mocks[key] = m
        self.patches.append(mock.patch.object(owner, attr, m))

    def __enter__(self):
        for p in self.patches:
            p.start()
        return self

    def __exit__(self, *exc):
        for p in reversed(self.patches):
            p.stop()

    def calls(self):
        return {key: m.call_count for key, m in self.mocks.items()}


@pytest.mark.parametrize("kernel", [True, False], ids=["ckernel", "numpy"])
@pytest.mark.parametrize("topo_index", range(3))
def test_one_start_is_one_kernel_call(monkeypatch, kernel, topo_index):
    _use_kernel(monkeypatch, kernel)
    topo = list(_topologies())[topo_index]
    net = FlowNetwork(Simulator(), topo)
    # one-time structures (link table, up-chains, nominal adjacency)
    topo.route_ids_for_flow(topo.hosts[0], topo.hosts[1], 0)
    for i, (src, dst) in enumerate(_pairs(topo)):
        net.sim.run(until=net.sim.now + 0.01)  # flows settle on start
        with _Counts(net) as counts:
            net.start_flow(src, dst, 1024 * MB,
                           max_rate=1e8 if i % 2 else math.inf)
        calls = counts.calls()
        assert calls.pop("_canon") == 0, (src, dst)
        kern_calls = {k: v for k, v in calls.items() if k.startswith("kern.")}
        ref_calls = {k: calls[k] for k in REFERENCE}
        if kernel:
            assert kern_calls == {
                "kern." + name: int(name == "state_start")
                for name in KERNEL_ENTRIES
            }, (src, dst)
            assert ref_calls == dict.fromkeys(REFERENCE, 0)
        else:
            assert kern_calls == {}
            assert ref_calls == dict.fromkeys(REFERENCE, 1)
    assert net.active_flows == len(_pairs(topo))


class _BadRoutes(GraphTopology):
    """A tree that hands out link ids of the wrong type or range."""

    bad = np.array([0], dtype=np.int32)

    def route_ids_for_flow(self, src, dst, fid):
        return self.bad


@pytest.mark.parametrize("kernel", [True, False], ids=["ckernel", "numpy"])
def test_bad_route_ids_are_rejected_before_any_write(monkeypatch, kernel):
    _use_kernel(monkeypatch, kernel)
    topo = _BadRoutes(rack_topology(2, 2).graph)
    net = FlowNetwork(Simulator(), topo)
    a, b = topo.hosts[0], topo.hosts[-1]
    with pytest.raises(TypeError, match="int32 link ids"):
        net.start_flow(a, b, MB)
    n_links = len(topo.link_table())
    # a negative id too: numpy would count it at the end of the table
    for ids in ([n_links], [0, -1]):
        topo.bad = np.array(ids, dtype=np.int64)
        with pytest.raises(RuntimeError if kernel else ValueError):
            net.start_flow(a, b, MB)
    assert net.active_flows == 0 and not net._count.any()
    assert not net._seen.any()
    topo.bad = np.array([0, n_links - 1], dtype=np.int64)
    net.start_flow(a, b, MB)
    assert net.active_flows == 1 and net._count.sum() == 2


def test_kernel_start_state_matches_reference(monkeypatch):
    """The same starts, settles and drains leave identical slot and
    per-link arrays on both paths."""
    states = []
    for kernel in (True, False):
        _use_kernel(monkeypatch, kernel)
        topo = clos_topology(4, routing="linkstate")
        net = FlowNetwork(Simulator(), topo)
        for i, (src, dst) in enumerate(_pairs(topo)):
            net.start_flow(src, dst, (1 + i % 5) * 16 * MB,
                           max_rate=math.inf if i % 3 else 2e8)
            net.sim.run(until=net.sim.now + 0.003 * (i % 4))
        n = net.active_flows
        states.append((
            n, net.epoch, net._count.tobytes(), net._seen.tobytes(),
            net._rem[:n].tobytes(), net._rates[:n].tobytes(),
            net._caps[:n].tobytes(), net._route_lens[:n].tobytes(),
            [f.fid for f in net._flows], net._finite_caps,
        ))
    assert states[0] == states[1]


@pytest.mark.parametrize("case", ["fair", "clos_linkstate_faults"])
def test_both_paths_write_the_same_trace(monkeypatch, tmp_path, case):
    traces = []
    for kernel in (True, False):
        _use_kernel(monkeypatch, kernel)
        path = tmp_path / f"{case}-{kernel}.jsonl"
        if case == "clos_linkstate_faults":
            sim = _clos_faults(trace_jsonl=str(path))
        else:
            sim = next(
                s for name, s in _simulations(trace_jsonl=str(path))
                if name == case
            )
        sim.run()
        traces.append(path.read_bytes())
    assert traces[0] and traces[0] == traces[1]
